"""Free-product decomposition of the subgroup a based graph defines.

Every monochromatic component with a cycle contributes one factor: the
component's loop subgroup, conjugated by the label of a breadth-first
approach path from the base point that meets the component only in its
anchor.  Removing each such component's non-tree edges leaves a graph
whose loop subgroup is free; its rank is the number of edge pairs outside
a spanning tree.  The approach paths' tree and the components with a
cycle, each with its own tree, come from ``graphs.whole_graph_walk``,
which the eligibility verdict reads too and the graph keeps, so the two
share one walk.
``check_decomposition`` checks a decomposition exactly: the generators
it names generate the subgroup, and each factor is the component at the
end of its approach path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .factors import FiniteGroupTable, component_cosets, subgroup_closure
from .graphs import (
    LabeledGraph,
    _letters,
    _pair_key,
    _root_path,
    _tree_walk,
    component_graph,
    components,  # unused here; perfbench's tracer self-test checks this binding
    walk,
    whole_graph_walk,
)
from .subgroups import MembershipTester, build_subgroup_graph
from .words import Word, word_inverse


@dataclass(frozen=True)
class KuroshFactor:
    approach: Word
    component: LabeledGraph  # based at its anchor
    factor: str  # 'x' or 'y'
    loop_words: tuple
    subgroup: frozenset | None  # element set, finite factor only

    @property
    def anchor(self) -> int:
        return self.component.base


@dataclass(frozen=True)
class KuroshDecomposition:
    factors: tuple
    free_rank: int
    delta: LabeledGraph


def kurosh_decompose(graph: LabeledGraph, table: FiniteGroupTable) -> KuroshDecomposition:
    """Factor list, free rank, and the pruned graph ``delta``.

    Deterministic choices: breadth-first approach paths and spanning trees
    with letters ordered x-first, ascending index, positive sign first;
    the anchor of a component is the component vertex discovered first by
    the whole-graph walk (the base point if the component holds it), which
    makes the approach path meet the component only at the anchor.
    Factors come in their anchors' discovery order, the x-factor first
    where one vertex anchors two.

    All is read off the adjacency, through ``graphs.whole_graph_walk``:
    its spanning tree gives the approach paths, and its components with a
    cycle, each walked from its anchor, are the factors.  The walk is kept
    on the graph, so after the eligibility verdict this reads it without
    walking again.  A loop word is a non-tree pair of its component
    between the root paths of its ends (``graphs._root_path``, each kept
    once built, so a long cycle costs its one loop word and not a path per
    vertex).  Each factor's component is ``graphs.component_graph`` on the
    vertices of its walk, based at its anchor.  ``delta`` is the adjacency
    less the components' non-tree pairs' slots, a vertex's slots copied on
    their first removal.  When no pair removed is an edge of the
    whole-graph tree, delta holds that tree and is connected; otherwise a
    ``graphs._tree_walk`` over its slots checks that it is.  Its free rank
    is read off the slot counts.
    """
    whole = whole_graph_walk(graph)
    if len(whole.roots) > 1:
        raise ValueError("graph must be connected")
    parent = whole.parent

    factors = []
    pruned = dict(graph.out)
    copied = set()
    approaches = {graph.base: ()}
    cuts_tree = False  # a pair removed is an edge of the whole-graph tree
    for factor, anchor, members, cparent, cnontree in whole.cyclic:
        paths = {anchor: ()}
        loop_words = []
        for u, w, letter in sorted(cnontree, key=_pair_key):
            loop_words.append(_root_path(cparent, paths, u) + (letter,)
                              + word_inverse(_root_path(cparent, paths, w)))
            for v, slot in ((u, letter), (w, letter.inverse())):
                if v not in copied:
                    copied.add(v)
                    pruned[v] = dict(pruned[v])
                del pruned[v][slot]
            if not cuts_tree:
                cuts_tree = (parent.get(w) == (u, letter)
                             or parent.get(u) == (w, letter.inverse()))
        subgroup = None
        if factor == "y":
            subgroup = subgroup_closure(table, [table.word_element(w) for w in loop_words])
        component = component_graph(graph, members, factor, anchor)
        factors.append(KuroshFactor(_root_path(parent, approaches, anchor), component, factor,
                                    tuple(loop_words), subgroup))

    if cuts_tree:
        letters = _letters(pruned)
        if len(_tree_walk(pruned, graph.base, letters["x"] + letters["y"])[0]) != len(pruned):
            raise AssertionError("pruned graph must stay connected")
    # a spanning tree of the connected delta has |V| - 1 pairs, and the
    # rest count toward the rank; each pair fills two slots
    free_rank = sum(map(len, pruned.values())) // 2 - len(pruned) + 1
    return KuroshDecomposition(tuple(factors), free_rank, LabeledGraph(pruned, graph.base))


def check_decomposition(spec, graph: LabeledGraph, decomposition: KuroshDecomposition) -> list:
    """Faults of ``decomposition`` as the free-product decomposition of
    the subgroup H that ``spec``'s words h_i generate, ``graph`` being H's
    based graph (open paths may hang off it); an empty list when it has
    none.  S' is the decomposition's generators: approach * loop word *
    approach^-1 for each factor's loop words, and delta's free basis
    read off a breadth-first tree of delta.

    - (a) every element of S' traces a closed path at the base: <S'> <= H;
    - (b) every h_i is a member of ``build_subgroup_graph`` of S': H <= <S'>;
    - (c) each factor's approach ends at its anchor, which has an edge of
      its factor; its component holds the anchor and has exactly the
      graph's slots of its factor at its vertices, all leading to its
      vertices (connected, as (e) requires, it is the graph's component
      at the anchor); its loop words close at the anchor inside it, and
      its subgroup is the component's loop subgroup read from the anchor
      (``factors.component_cosets``) for a y-factor, None for an x-factor;
    - (d) ``free_rank`` is the size of delta's free basis;
    - (e) delta's pairs are among the graph's, and the graph has one pair
      more than delta for each loop word; delta keeps a spanning tree of
      each factor's component, and each loop word crosses exactly one
      pair of its component outside delta, once, and no other loop word
      crosses that pair.  With the counts, the loop words and the pairs
      taken out of delta then match one to one, so a loop word listed
      twice, or a copy of another one in its place, is a fault even where
      the factor's subgroup does not change.

    A based graph determines its subgroup, and the meet of H with a
    conjugate of a factor is read off the component at the end of the
    conjugating path (Kapovich and Miasnikov, J. Algebra 2002; Kapovich,
    Weidmann and Miasnikov, IJAC 2005).  The graph of S' is not compared
    with ``graph``: open paths and the hairs of unreduced generators make
    the two differ when the decomposition is right.

    Cost: O(|V| * r) for the walks, trees and pair sets, then the
    subgroup graph of S' and one membership query per h_i.
    """
    base, table = graph.base, spec.finite
    delta = decomposition.delta
    kept = delta.out
    faults = []
    generators = []
    closed_by = {}  # pair outside delta -> the loop word that crosses it
    for index, factor in enumerate(decomposition.factors, start=1):
        name = f"factor {index}"
        anchor = factor.anchor
        approach, back = factor.approach, word_inverse(factor.approach)
        generators += [(f"{name} loop word {j}", approach + word + back)
                       for j, word in enumerate(factor.loop_words, start=1)]
        if walk(graph.out, base, approach) != anchor:
            faults.append(f"{name}: the approach does not end at the anchor {anchor}")
        kind, component = factor.factor, factor.component
        if not any(letter.factor == kind for letter in graph.out.get(anchor, ())):
            faults.append(f"{name}: no {kind}-component of the graph holds the anchor")
            continue
        if not _is_component(graph.out, component, kind):
            faults.append(f"{name}: not the graph's {kind}-component at the anchor")
        elif not _keeps_spanning_tree(component, kept):  # (e)
            faults.append(f"{name}: delta does not keep a spanning tree of the component")
        for j, word in enumerate(factor.loop_words, start=1):
            crossed = _crossings(component, word, kept)
            if crossed is None:
                faults.append(f"{name}: loop word {j} does not close at the anchor")
            elif len(crossed) != 1:  # (e)
                faults.append(f"{name}: loop word {j} crosses {len(crossed)} pairs "
                              f"outside delta, not one")
            elif crossed[0] in closed_by:
                faults.append(f"{name}: loop word {j} crosses the pair outside delta "
                              f"that {closed_by[crossed[0]]} crosses")
            else:
                closed_by[crossed[0]] = f"{name} loop word {j}"
        subgroup = None
        if kind == "y":
            ((subgroup, _keys),) = component_cosets(table, graph, [anchor])
        if factor.subgroup != subgroup:
            faults.append(f"{name}: not the loop subgroup of the component")

    letters = _letters(delta.out)
    _order, parent, nontree = _tree_walk(delta.out, delta.base, letters["x"] + letters["y"])
    paths = {delta.base: ()}
    for j, (u, w, letter) in enumerate(nontree, start=1):
        word = (_root_path(parent, paths, u) + (letter,)
                + word_inverse(_root_path(parent, paths, w)))
        generators.append((f"delta basis word {j}", word))

    for label, word in generators:  # (a)
        if walk(graph.out, base, word) != base:
            faults.append(f"{label} is not a closed path at the base")
    rebuilt = build_subgroup_graph(replace(
        spec, subgroup_words=tuple(word for _label, word in generators), separate_words=()))
    tester = MembershipTester(rebuilt.graph, table)
    for i, word in enumerate(spec.subgroup_words, start=1):  # (b)
        if not tester.contains(word):
            faults.append(f"h{i} is not in the subgroup the decomposition generates")
    if decomposition.free_rank != len(nontree):  # (d)
        faults.append(f"free rank {decomposition.free_rank}, but delta's free basis "
                      f"has {len(nontree)} words")
    loops = len(generators) - len(nontree)  # the factors' loop words
    if not delta.pairs <= graph.pairs or len(graph.pairs) - len(delta.pairs) != loops:  # (e)
        faults.append(f"delta is not the graph less one pair for each of {loops} loop words")
    return faults


def _crossings(component: LabeledGraph, word, kept):
    """The pairs outside the adjacency ``kept`` that ``word`` crosses,
    canonically named, once per crossing, on its walk from the
    component's base inside it; None when the walk leaves the component
    or ends off its base."""
    out = component.out
    current = component.base
    crossed = []
    for letter in word:
        target = out.get(current, {}).get(letter)
        if target is None:
            return None
        if kept.get(current, {}).get(letter) != target:
            crossed.append((current, target, letter) if letter.sign > 0
                           else (target, current, letter.inverse()))
        current = target
    return crossed if current == component.base else None


def _is_component(out, component: LabeledGraph, factor: str) -> bool:
    """(c) read off the slots: does ``component`` hold its base and have
    exactly ``out``'s slots of ``factor`` at its vertices, each leading to
    one of them?  ``_keeps_spanning_tree`` checks that it is connected."""
    own = component.out
    return component.base in own and all(
        v in out and slots == {letter: w for letter, w in out[v].items() if letter.factor == factor}
        and all(w in own for w in slots.values())
        for v, slots in own.items())


def _keeps_spanning_tree(component: LabeledGraph, kept) -> bool:
    """Do the component's pairs that the adjacency ``kept`` holds form a
    spanning tree of it: does a breadth-first walk over them from the
    base, its letters in any order, reach each vertex and meet no pair
    outside its tree?"""
    held = {v: {letter: w for letter, w in slots.items() if kept.get(v, {}).get(letter) == w}
            for v, slots in component.out.items()}
    order, _parent, nontree = _tree_walk(held, component.base, set().union(*held.values()))
    return len(order) == len(held) and not nontree


__all__ = [
    "KuroshFactor",
    "KuroshDecomposition",
    "kurosh_decompose",
    "check_decomposition",
]
