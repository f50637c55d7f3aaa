"""Canonical based graph of a finitely generated subgroup of F_r * G.

The graph is the minimal quotient of a wedge of generator loops (and any
requested separator paths) that is folded and in which every y-component
embeds in its coset graph.  Both conditions together make the graph based
over the free product, so it embeds in the coset graph of the subgroup in
the ambient group; in particular a path from the base point closes exactly
when its label lies in the subgroup, which decides membership.

The quotient is computed as a fixed point: fold, group the vertices of a
y-component that land on the same coset of the subgroup its loops
generate, and fold again with those groups merged.  One breadth-first
pass over the y-edges of the whole graph (``factors.component_cosets``)
finds every round's groups.  Each such round strictly decreases the
vertex count, so the loop terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .factors import FiniteGroupTable, component_cosets
from .graphs import (
    LabeledGraph,
    canonical_pair,
    components,
    fold,
    is_tree,
    make_graph,
    saturation_defects,
    trace,
)
from .words import normal_form, x_alphabet


@dataclass(frozen=True)
class FreeFactor:
    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError(f"free rank must be at least 2, got {self.rank}")


@dataclass(frozen=True)
class ProblemSpec:
    free: FreeFactor
    finite: FiniteGroupTable
    subgroup_words: tuple
    separate_words: tuple

    def __post_init__(self):
        for word in list(self.subgroup_words) + list(self.separate_words):
            for letter in word:
                if letter.factor == "x" and letter.index > self.free.rank:
                    raise ValueError(f"letter {letter} exceeds free rank {self.free.rank}")
                if letter.factor == "y" and letter.index > self.finite.num_generators:
                    raise ValueError(
                        f"letter {letter} names no generator of the finite factor")


@dataclass(frozen=True)
class SubgroupGraph:
    graph: LabeledGraph
    separator_ends: tuple


def _wedge(base, words, open_words):
    """Wedge of loops (one per word) and open paths (one per open word) at
    a common base vertex.  Returns (graph, end vertex of each open path)."""
    vertices = {base}
    pairs = []
    next_id = base + 1
    for word in words:
        current = base
        for i, letter in enumerate(word):
            target = base if i == len(word) - 1 else next_id
            if target != base:
                next_id += 1
            vertices.add(target)
            pairs.append((current, target, letter))
            current = target
    ends = []
    for word in open_words:
        current = base
        for letter in word:
            target = next_id
            next_id += 1
            vertices.add(target)
            pairs.append((current, target, letter))
            current = target
        ends.append(current)
    graph = make_graph(
        vertices,
        {canonical_pair(u, w, letter) for u, w, letter in pairs},
        base,
    )
    return graph, tuple(ends)


def based_fixpoint(graph, table, tracked=()):
    """Fold, merging the previous round's coset groups, to a fixed point;
    returns the stable graph and the images of the tracked vertices."""
    tracked = list(tracked)
    groups = ()
    while True:
        before = len(graph.vertices)
        graph, vmap = fold(graph, groups)
        tracked = [vmap[v] for v in tracked]
        if groups and len(graph.vertices) >= before:
            raise AssertionError("identification round failed to shrink the graph")
        groups = []
        for _subgroup, keys in component_cosets(table, graph):
            if len(set(keys.values())) == len(keys):
                continue
            buckets = {}
            for v, key in keys.items():
                buckets.setdefault(key, []).append(v)
            groups.extend(group for group in buckets.values() if len(group) > 1)
        if not groups:
            return graph, tuple(tracked)


def build_subgroup_graph(spec: ProblemSpec) -> SubgroupGraph:
    """Canonical based graph for the subgroup, with one open path per
    separator word; returns the graph and each path's end vertex."""
    wedge, ends = _wedge(0, spec.subgroup_words, spec.separate_words)
    graph, ends = based_fixpoint(wedge, spec.finite, ends)
    for word in spec.subgroup_words:
        if not trace(graph, graph.base, word).closed:
            raise AssertionError("generator loop failed to close")
    return SubgroupGraph(graph, ends)


class MembershipTester:
    """Membership queries against a fixed based graph.

    A word lies in the subgroup exactly when reading its normal form from
    the base point closes (Kapovich, Weidmann and Miasnikov, IJAC 2005).
    An x-syllable follows edges.  A y-syllable g moves a vertex on the
    coset K*a of its y-component, K the subgroup of the component's loops,
    to the vertex on K*a*g.  A missing edge or vertex means a non-member.
    """

    def __init__(self, graph: LabeledGraph, table: FiniteGroupTable):
        if not graph.folded:
            raise ValueError("membership needs a folded graph")
        self.graph = graph
        self.table = table

    @cached_property
    def _cosets(self):
        """Vertex with a y-edge -> (K, its coset key, key -> vertex) of its
        y-component; built on the first y-syllable read."""
        cosets = {}
        for subgroup, keys in component_cosets(self.table, self.graph):
            at_key = {key: v for v, key in keys.items()}
            if len(at_key) != len(keys):
                raise ValueError("membership needs a based graph: two vertices "
                                 "of a y-component lie on one coset")
            for v, key in keys.items():
                cosets[v] = (subgroup, key, at_key)
        return cosets

    def contains(self, word) -> bool:
        table = self.table
        current = self.graph.base
        for tag, syllable in normal_form(word, table):
            if tag == "x":
                result = trace(self.graph, current, syllable)
                current = None if result.status == "stuck" else result.vertex
            elif current in self._cosets:
                subgroup, key, at_key = self._cosets[current]
                moved = table.multiply(key, syllable)
                current = at_key.get(min(table.multiply(k, moved) for k in subgroup))
            else:
                return False
            if current is None:
                return False
        return current == self.graph.base


def membership(spec: ProblemSpec, word) -> bool:
    """Does the word lie in the subgroup the problem generates?  Any
    separator words in the problem are ignored."""
    core = build_subgroup_graph(replace(spec, separate_words=()))
    return MembershipTester(core.graph, spec.finite).contains(tuple(word))


VERDICT_TREES = "all_components_trees"
VERDICT_DEFICIENT = "deficient_component"
VERDICT_NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class HypothesisVerdict:
    kind: str
    witness: LabeledGraph | None = None
    reason: str | None = None


def hypothesis_check(graph: LabeledGraph, rank: int) -> HypothesisVerdict:
    """Which route to a separating cover applies.

    - every x-component a tree (or none): conjugates of the free factor
      meet the subgroup trivially;
    - some x-component with a cycle misses edges: that witness has an
      infinite-index, nontrivial intersection and can host the gadgets;
    - otherwise every x-component with a cycle is a saturated cover, the
      intersections have finite index, and the construction does not apply.
    """
    cyclic = [
        (component, anchor)
        for component, anchor in components(graph, "x")
        if not is_tree(component)
    ]
    if not cyclic:
        return HypothesisVerdict(VERDICT_TREES)
    for component, _anchor in cyclic:
        if saturation_defects(component, x_alphabet(rank)):
            return HypothesisVerdict(VERDICT_DEFICIENT, witness=component)
    return HypothesisVerdict(
        VERDICT_NOT_APPLICABLE,
        reason=(
            "every x-component with a cycle is a saturated cover of the free "
            "factor, so all nontrivial free-factor intersections have finite "
            "index (relative to the given generating set)"
        ),
    )
