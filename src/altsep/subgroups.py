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
pass over the y-edges (``factors.component_cosets``) finds a round's
groups: over the whole graph in the first round, and in a later round
over only the y-components its merges touched.  Each such round strictly
decreases the vertex count, so the loop terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .factors import FiniteGroupTable, component_cosets
from .graphs import LabeledGraph, _fold, _write_pairs, component_graph, components, fold
from .words import normal_form


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
    a common base vertex, written straight into an adjacency.  Its edges
    go in word order, each oriented along its word, through
    ``_write_pairs``, which leaves out the edges that clash with one
    already written.  Returns (adjacency, clashing edges, end vertex of
    each open path): ``graphs._fold`` of the first two is the folded
    wedge."""
    out = {base: {}}
    edges = []

    def path(word):
        """Fresh vertices along ``word`` from the base; returns its end."""
        current = base
        for letter in word:
            target = base + len(out)
            out[target] = {}
            edges.append((current, target, letter))
            current = target
        return current

    for word in words:
        if word:
            edges.append((path(word[:-1]), base, word[-1]))
    ends = [path(word) for word in open_words]
    return out, _write_pairs(out, edges), tuple(ends)


def based_fixpoint(graph, table, tracked=()):
    """Merge each round's coset groups and fold, to a fixed point; returns
    the stable graph and the images of the tracked vertices.  Requires a
    folded graph, which is returned as it is when it has no groups.

    The first round scans every y-component for coset groups; a later one
    scans only the y-components that hold a survivor of its merges.  A
    y-component without one has the vertices and edges it had at its last
    scan, which found no groups in it, and the groups of a component do
    not depend on the vertex its scan starts from."""
    tracked = tuple(tracked)
    starts = None
    while True:
        groups = []
        for _subgroup, keys in component_cosets(table, graph, starts):
            if len(set(keys.values())) == len(keys):
                continue
            buckets = {}
            for v, key in keys.items():
                buckets.setdefault(key, []).append(v)
            groups.extend(group for group in buckets.values() if len(group) > 1)
        if not groups:
            return graph, tracked
        before = len(graph.vertices)
        graph, vmap = fold(graph, groups)
        tracked = tuple(vmap[v] for v in tracked)
        if len(graph.vertices) >= before:
            raise AssertionError("identification round failed to shrink the graph")
        starts = {vmap[v] for v in vmap if vmap[v] != v}


def build_subgroup_graph(spec: ProblemSpec) -> SubgroupGraph:
    """Canonical based graph for the subgroup, with one open path per
    separator word; returns the graph and each path's end vertex.  Every
    generator loop must close at the base, read off the adjacency."""
    out, clashes, ends = _wedge(0, spec.subgroup_words, spec.separate_words)
    graph, vmap = _fold(out, clashes, out, 0, ())
    graph, ends = based_fixpoint(graph, spec.finite, [vmap[v] for v in ends])
    out, base = graph.out, graph.base
    for word in spec.subgroup_words:
        end = base
        for letter in word:
            end = out[end].get(letter)
            if end is None:
                break
        if end != base:
            raise AssertionError("generator loop failed to close")
    return SubgroupGraph(graph, ends)


class MembershipTester:
    """Membership queries against a fixed based graph.

    A based graph embeds in the coset graph of its subgroup H in F_r * G
    (Kapovich, Weidmann and Miasnikov, IJAC 2005), so a path from the base
    point labelled w ends on the vertex of the coset H*w when it exists.
    A query is read in two phases.

    Phase 1 walks the word letter by letter, x and y alike, along the
    graph's edges.  When every letter has an edge, the word lies in H
    exactly when the walk ends on the base point.

    Phase 2 starts at the first letter without an edge, at the vertex c
    the walk reached, and reads the normal form of the unread rest (that
    letter onward) from c.  An x-syllable follows edges of the adjacency.
    A y-syllable g moves a vertex on the coset K*a of its y-component, K
    the subgroup of the component's loops, to the vertex on K*a*g.  When K
    is trivial the product a*g is itself the key of that coset; otherwise
    the key is the smallest element of K*a*g.  A missing edge or vertex
    means a non-member.  The reading is exact:

    - a reading that closes spells, up to loops, a path labelled
      prefix*rest = w from the base back to it, so w is in H, since the
      graph embeds;
    - if w is in H, the normal form of w reads inside the graph from the
      base.  The prefix's path reduces to a path of the prefix's normal
      form that ends at c.  Read from c, the normal form of the rest first
      retraces the part of that path which the rest cancels: edges are
      involutive, and a y-syllable moves between coset keys whatever path
      led to its vertex.  After that it follows the path of w's normal
      form, back to the base.

    A graph that is not based is refused, with ValueError, by the first
    query that holds a y-letter.
    """

    def __init__(self, graph: LabeledGraph, table: FiniteGroupTable):
        if not graph.folded:
            raise ValueError("membership needs a folded graph")
        self.graph = graph
        self.table = table

    @cached_property
    def _cosets(self):
        """Vertex with a y-edge -> (its coset key, key -> vertex of its
        y-component, and K when K is nontrivial, else None); built by the
        first query that holds a y-letter."""
        cosets = {}
        for subgroup, keys in component_cosets(self.table, self.graph):
            at_key = {key: v for v, key in keys.items()}
            if len(at_key) != len(keys):
                raise ValueError("membership needs a based graph: two vertices "
                                 "of a y-component lie on one coset")
            loops = subgroup if len(subgroup) > 1 else None
            for v, key in keys.items():
                cosets[v] = (key, at_key, loops)
        return cosets

    def contains(self, word) -> bool:
        if "_cosets" not in self.__dict__ and any(letter.factor == "y" for letter in word):
            self._cosets  # refuses a graph that is not based
        out = self.graph.out
        current = self.graph.base
        for i, letter in enumerate(word):
            step = out[current].get(letter)
            if step is None:
                return self._read_rest(word[i:], current)
            current = step
        return current == self.graph.base

    def _read_rest(self, rest, current) -> bool:
        """Phase 2: read the normal form of ``rest`` from ``current``.  A
        y-letter that names no generator raises ValueError here, since it
        never has an edge."""
        out = self.graph.out
        multiply = self.table.multiply
        for tag, syllable in normal_form(rest, self.table):
            if tag == "x":
                for letter in syllable:
                    current = out[current].get(letter)
                    if current is None:
                        return False
            else:
                coset = self._cosets.get(current)
                if coset is None:
                    return False
                key, at_key, loops = coset
                moved = multiply(key, syllable)
                if loops is not None:
                    moved = min(multiply(k, moved) for k in loops)
                current = at_key.get(moved)
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

    Decided by ``graphs.components``' pair counts; only the witness is
    built as a graph, based at its least vertex.
    """
    xcomps = components(graph, "x")
    for members, pairs in xcomps:
        if len(members) <= pairs < rank * len(members):
            return HypothesisVerdict(
                VERDICT_DEFICIENT, witness=component_graph(graph, members, "x", members[0]))
    if all(pairs < len(members) for members, pairs in xcomps):
        return HypothesisVerdict(VERDICT_TREES)
    return HypothesisVerdict(
        VERDICT_NOT_APPLICABLE,
        reason=(
            "every x-component with a cycle is a saturated cover of the free "
            "factor, so all nontrivial free-factor intersections have finite "
            "index (relative to the given generating set)"
        ),
    )
