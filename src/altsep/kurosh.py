"""Free-product decomposition of the subgroup a based graph defines.

Every monochromatic component with a cycle contributes one factor: the
component's loop subgroup, conjugated by the label of a breadth-first
approach path from the base point that meets the component only in its
anchor.  Removing each such component's non-tree edges leaves a graph
whose loop subgroup is free; its rank is the number of edge pairs outside
a spanning tree.  Every tree, the approach paths' and each factor's, is
grown by the one breadth-first walk ``graphs._tree_walk``, which lists
the pairs outside it too.  A cycle inside one component cannot lie in
the spanning tree of the whole graph, so each component with a cycle
holds a pair outside that tree: the whole-graph walk's own list of those
pairs leads to every factor, and no component sweep runs.
``check_decomposition`` checks a decomposition exactly: the generators
it names generate the subgroup, and each factor is the component at the
end of its approach path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .factors import FiniteGroupTable, component_cosets, subgroup_closure
from .graphs import (
    LabeledGraph,
    _pair_key,
    _root_path,
    _tree_walk,
    component_graph,
    components,
    walk,
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

    All is read off the adjacency.  One ``graphs._tree_walk`` over the
    whole graph gives the approach paths and the pairs outside its tree.
    A monochromatic component with a cycle cannot lie inside that
    spanning tree, so it holds one of those pairs.  For each such pair
    whose source no component of its factor walked so far holds, a
    ``_tree_walk`` over the factor's letters gives the component's
    vertices, and the component has a cycle when that walk meets a
    non-tree pair.  The walk starts where the whole-graph tree's edges of
    the factor lead from the source towards the root; that is most often
    the anchor, and a component with a cycle whose walk started elsewhere
    is walked again from its anchor, for the spanning tree its loop words
    are read from.  A loop word is a non-tree pair between the root paths
    of its ends (``graphs._root_path``, each kept once built, so a long
    cycle costs its one loop word and not a path per vertex).  Each
    factor's component is ``graphs.component_graph`` on the vertices of
    its walk, based at its anchor.  ``delta`` is the adjacency less the
    non-tree pairs' slots, a vertex's slots copied on their first
    removal; a breadth-first pass over its slots checks that it is
    connected, and its free rank is read off the slot counts.
    """
    out = graph.out
    # each factor's letters present in the graph (both signs), in sort-key order
    letters = {"x": [], "y": []}
    for letter in sorted(set().union(*out.values()), key=lambda l: l.sort_key):
        letters[letter.factor].append(letter)
    order, parent, nontree = _tree_walk(out, graph.base, letters["x"] + letters["y"])
    if len(order) != len(graph.vertices):
        raise ValueError("graph must be connected")
    discovery = {v: i for i, v in enumerate(order)}

    # (anchor's discovery, factor, anchor, its walk) per component with a cycle
    cyclic = []
    walked = {"x": set(), "y": set()}  # the vertices of the components walked so far
    for start, _target, letter in nontree:
        factor = letter.factor
        if start in walked[factor]:
            continue
        # the tree's edges of the factor stay in the component, and
        # climbing them mostly ends at the anchor, so one walk serves
        # (5,017 of the 5,026 cyclic components of decompose_problems(1..3))
        while start in parent and parent[start][1].factor == factor:
            start = parent[start][0]
        tree = _tree_walk(out, start, letters[factor])
        walked[factor].update(tree[0])
        if tree[2]:  # a pair outside the component's tree: a cycle
            anchor = min(tree[0], key=discovery.__getitem__)
            if anchor != start:
                tree = _tree_walk(out, anchor, letters[factor])
            cyclic.append((discovery[anchor], factor, anchor, tree))
    cyclic.sort(key=lambda item: item[:2])

    factors = []
    pruned = dict(out)
    copied = set()
    approaches = {graph.base: ()}
    for _discovered, factor, anchor, (members, cparent, cnontree) in cyclic:
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
        subgroup = None
        if factor == "y":
            subgroup = subgroup_closure(table, [table.word_element(w) for w in loop_words])
        component = component_graph(graph, members, factor, anchor)
        factors.append(KuroshFactor(_root_path(parent, approaches, anchor), component, factor,
                                    tuple(loop_words), subgroup))

    reached = [graph.base]
    seen = {graph.base}
    for v in reached:  # grows while it is read
        for w in pruned[v].values():
            if w not in seen:
                seen.add(w)
                reached.append(w)
    if len(seen) != len(pruned):
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
    - (c) each factor's approach ends at its anchor, its component is the
      graph's component of its factor at the anchor, its loop words close
      at the anchor inside it, and its subgroup is the component's loop
      subgroup read from the anchor (``factors.component_cosets``) for a
      y-factor, None for an x-factor;
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
    members = {}  # factor -> vertex -> the vertices of its component
    closed_by = {}  # pair outside delta -> the loop word that crosses it
    for index, factor in enumerate(decomposition.factors, start=1):
        name = f"factor {index}"
        anchor = factor.anchor
        approach, back = factor.approach, word_inverse(factor.approach)
        generators += [(f"{name} loop word {j}", approach + word + back)
                       for j, word in enumerate(factor.loop_words, start=1)]
        if walk(graph.out, base, approach) != anchor:
            faults.append(f"{name}: the approach does not end at the anchor {anchor}")
        if factor.factor not in members:
            members[factor.factor] = {v: vertices for vertices, _pairs
                                      in components(graph, factor.factor) for v in vertices}
        vertices = members[factor.factor].get(anchor)
        if vertices is None:
            faults.append(f"{name}: no {factor.factor}-component of the graph holds the anchor")
            continue
        component = component_graph(graph, vertices, factor.factor, anchor)
        if factor.component != component:
            faults.append(f"{name}: not the graph's {factor.factor}-component at the anchor")
        if not _keeps_spanning_tree(component, kept):  # (e)
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
        if factor.factor == "y":
            ((subgroup, _keys),) = component_cosets(table, graph, [anchor])
        if factor.subgroup != subgroup:
            faults.append(f"{name}: not the loop subgroup of the component")

    letters = sorted(set().union(*delta.out.values()), key=lambda l: l.sort_key)
    _order, parent, nontree = _tree_walk(delta.out, delta.base, letters)
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
        target = out[current].get(letter)
        if target is None:
            return None
        if kept.get(current, {}).get(letter) != target:
            crossed.append((current, target, letter) if letter.sign > 0
                           else (target, current, letter.inverse()))
        current = target
    return crossed if current == component.base else None


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
