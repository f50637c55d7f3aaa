"""Free-product decomposition of the subgroup a based graph defines.

Every monochromatic component with a cycle contributes one factor: the
component's loop subgroup, conjugated by the label of a breadth-first
approach path from the base point that meets the component only in its
anchor.  Removing each such component's non-tree edges leaves a graph
whose loop subgroup is free; its rank is the number of edge pairs outside
a spanning tree.  ``verify_intersection`` checks the defining property of
the factors on a ball: a conjugate g u g^-1 of a factor element lies in
the subgroup exactly when u lies in the component's loop subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factors import FiniteGroupTable, NotGBasedError, subgroup_closure
from .graphs import (
    LabeledGraph,
    _pair_key,
    breadth_first_tree,
    components,
    from_adjacency,
    trace,
    tree_path_word,
)
from .subgroups import MembershipTester
from .words import Word, normal_form, word_inverse, x_alphabet


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
    the anchor of a component is the base point if the component contains
    it, else the component vertex discovered first (which makes the
    approach path meet the component only at the anchor).

    All is read off the adjacency, with no pair set of the graph.  Each
    component with a cycle (by ``graphs.components``' pair counts) gets
    one breadth-first pass from its anchor for its graph, spanning tree
    and non-tree pairs.  ``delta`` is built from the adjacency less the
    non-tree pairs' slots, a vertex's slots copied on their first
    removal; a breadth-first pass over its slots checks that it is
    connected, and its free rank is read off the slot counts.
    """
    out = graph.out
    # each factor's letters present in the graph (both signs), in sort-key order
    letters = {"x": [], "y": []}
    for letter in sorted(set().union(*out.values()), key=lambda l: l.sort_key):
        letters[letter.factor].append(letter)
    order, parent = breadth_first_tree(graph, graph.base, letters["x"] + letters["y"])
    if len(order) != len(graph.vertices):
        raise ValueError("graph must be connected")
    discovery = {v: i for i, v in enumerate(order)}

    # (anchor, vertices, factor), in the anchors' discovery order
    cyclic = [(min(members, key=discovery.__getitem__), members, factor)
              for factor in ("x", "y") for members, pairs in components(graph, factor)
              if pairs >= len(members)]
    cyclic.sort(key=lambda item: discovery[item[0]])

    factors = []
    pruned = dict(out)
    copied = set()
    for anchor, members, factor in cyclic:
        approach = tree_path_word(parent, anchor)
        cparent, pairs, nontree = _component_walk(out, anchor, letters[factor])
        loop_words = []
        for u, w, letter in sorted(nontree, key=_pair_key):
            to_u, to_w = tree_path_word(cparent, u), tree_path_word(cparent, w)
            loop_words.append(to_u + (letter,) + word_inverse(to_w))
            for v, slot in ((u, letter), (w, letter.inverse())):
                if v not in copied:
                    copied.add(v)
                    pruned[v] = dict(pruned[v])
                del pruned[v][slot]
        subgroup = None
        if factor == "y":
            subgroup = subgroup_closure(table, [table.word_element(w) for w in loop_words])
        component = LabeledGraph(frozenset(members), pairs, anchor, True)
        factors.append(KuroshFactor(approach, component, factor, tuple(loop_words), subgroup))

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
    return KuroshDecomposition(tuple(factors), free_rank, from_adjacency(pruned, graph.base))


def _component_walk(out, anchor, letters):
    """One breadth-first pass over the monochromatic component at
    ``anchor``, following only the component's ``letters`` (both signs,
    in order) in the whole graph's adjacency.  Returns (parent, pairs,
    non-tree pairs): parent as from ``graphs.breadth_first_tree``, the
    component's canonical pairs as a frozenset, and the pairs outside the
    spanning tree that parent spells, in the order the pass met them."""
    parent = {}
    pairs = []
    nontree = []
    order = [anchor]
    for v in order:  # grows while it is read: breadth-first order
        slots = out[v]
        for letter in letters:
            w = slots.get(letter)
            if w is None:
                continue
            if w not in parent and w != anchor:
                parent[w] = (v, letter)
                order.append(w)
            elif letter.sign > 0 and parent.get(v) != (w, letter.inverse()):
                # not the tree edge into v, read backwards
                nontree.append((v, w, letter))
            if letter.sign > 0:
                pairs.append((v, w, letter))
    return parent, frozenset(pairs), nontree


def _split_runs(graph: LabeledGraph, start: int, word):
    """Maximal monochromatic runs of a path, each with its start vertex."""
    runs = []
    current = start
    for letter in word:
        target = graph.step(current, letter)
        if target is None:
            raise ValueError("word does not trace a path from the start vertex")
        if runs and runs[-1][0] == letter.factor:
            runs[-1][1].append(letter)
        else:
            runs.append([letter.factor, [letter], current])
        current = target
    return runs, current


def project_loop(
    graph: LabeledGraph,
    table: FiniteGroupTable,
    component: LabeledGraph,
    start: int,
    word,
) -> Word:
    """Rewrite a loop at a component vertex, whose label is a nontrivial
    element of the component's factor, into a loop with the same label
    inside the component, by excising closed identity-labeled sub-paths.

    Raises NotGBasedError when an identity-labeled sub-path fails to close
    (the ambient graph was not based over the free product)."""
    if start not in component.vertices:
        raise ValueError("start vertex is not in the component")
    if not component.pairs:
        raise ValueError("component has no edges, so its factor is ambiguous")
    target_factor = next(iter(component.pairs))[2].factor

    form = normal_form(word, table)
    if len(form) != 1 or form[0][0] != target_factor:
        raise ValueError(
            "label is not a nontrivial element of the component's factor")

    end = trace(graph, start, word)
    if end.status == "stuck":
        raise ValueError("word does not trace a path from the start vertex")
    if not end.closed:
        raise ValueError("path is not a loop at the start vertex")

    runs, _ = _split_runs(graph, start, word)

    while True:
        if all(run[0] == target_factor for run in runs):
            break
        for index, (_factor, letters, run_start) in enumerate(runs):
            if not normal_form(letters, table):
                result = trace(graph, run_start, tuple(letters))
                if result.vertex != run_start:
                    raise NotGBasedError(
                        "identity-labeled sub-path is not closed; the graph "
                        "is not based over the free product")
                left = runs[:index]
                right = runs[index + 1:]
                if left and right and left[-1][0] == right[0][0]:
                    left[-1][1].extend(right[0][1])
                    right = right[1:]
                runs = left + right
                break
        else:
            raise ValueError(
                "label is not a nontrivial element of the component's factor")

    flat = tuple(letter for _factor, letters, _start in runs for letter in letters)
    if not flat:
        raise ValueError("label is the identity")
    if not trace(component, start, flat).closed:
        raise AssertionError("projected loop left the component")
    return flat


@dataclass(frozen=True)
class FactorCheck:
    index: int
    factor: str
    checked: int
    counterexamples: tuple


@dataclass(frozen=True)
class IntersectionReport:
    checks: tuple

    @property
    def counterexamples(self):
        return tuple(w for check in self.checks for w in check.counterexamples)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _reduced_x_words(rank: int, max_len: int):
    """All freely reduced x-words of length 1..max_len."""
    alphabet = x_alphabet(rank)
    words = [(letter,) for letter in alphabet]
    yield from words
    for _ in range(max_len - 1):
        longer = []
        for word in words:
            for letter in alphabet:
                if letter != word[-1].inverse():
                    longer.append(word + (letter,))
        yield from longer
        words = longer


def verify_intersection(
    graph: LabeledGraph,
    table: FiniteGroupTable,
    rank: int,
    decomposition: KuroshDecomposition,
    length_bound: int,
) -> IntersectionReport:
    """Check each factor's intersection identity on a ball.

    For every nontrivial u of the factor's group with letter length at most
    ``length_bound`` (all of G for finite-factor components), the conjugate
    g u g^-1 by the approach word must lie in the subgroup exactly when u
    is a loop label of the component."""
    tester = MembershipTester(graph, table)
    checks = []
    for index, factor in enumerate(decomposition.factors):
        counterexamples = []
        checked = 0
        g = factor.approach
        g_inv = word_inverse(g)
        if factor.factor == "x":
            candidates = _reduced_x_words(rank, length_bound)
            for u in candidates:
                checked += 1
                inside = trace(factor.component, factor.anchor, u).closed
                conjugate = tuple(g) + tuple(u) + tuple(g_inv)
                if tester.contains(conjugate) != inside:
                    counterexamples.append(conjugate)
        else:
            for element in range(1, table.order):
                checked += 1
                u = table.element_word(element)
                inside = element in factor.subgroup
                conjugate = tuple(g) + tuple(u) + tuple(g_inv)
                if tester.contains(conjugate) != inside:
                    counterexamples.append(conjugate)
        checks.append(
            FactorCheck(index, factor.factor, checked, tuple(counterexamples))
        )
    return IntersectionReport(tuple(checks))


__all__ = [
    "KuroshFactor",
    "KuroshDecomposition",
    "kurosh_decompose",
    "project_loop",
    "FactorCheck",
    "IntersectionReport",
    "verify_intersection",
]
