"""Canonical based graph of a finitely generated subgroup of F_r * G.

The graph is the minimal quotient of a wedge of generator loops (and any
requested separator paths) in which no vertex has two edges with one
letter and every y-component embeds in its coset graph.  Both conditions
together make the graph based over the free product, so it embeds in the
coset graph of the subgroup in the ambient group; in particular a path
from the base point closes exactly when its label lies in the subgroup,
which decides membership.

The quotient is computed as a fixed point: fold, group the vertices of a
y-component that land on the same coset of the subgroup its loops
generate, and fold again with those groups merged.  The wedge writes
each maximal y-run of a word in G's Cayley graph, one vertex per prefix
element of the run, so the first fold starts from a graph whose
y-components away from the base and from the fold's merges have nothing
left to merge.  One breadth-first pass over the y-edges
(``factors.component_cosets``) finds a round's groups: in the first
round over the y-components that hold the base or a survivor of the
first fold, and in a later round over only the y-components its merges
touched.  Each such round strictly decreases the vertex count, so the
loop terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, count

from .factors import FiniteGroupTable, component_cosets, coset_keys
from .graphs import (
    LabeledGraph,
    _write_pairs,
    component_graph,
    components,  # unused here; perfbench's tracer self-test checks this binding
    fold,
    walk,
    whole_graph_walk,
)
from .words import flat_form


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
        # each distinct letter once, in the order of first occurrence, so
        # the first bad letter is the one a letter-by-letter check meets
        self.check_word(dict.fromkeys(chain.from_iterable(
            (*self.subgroup_words, *self.separate_words))))

    def check_word(self, word):
        """Raise ValueError for a letter outside the problem's alphabet."""
        for letter in word:
            if letter.factor == "x" and letter.index > self.free.rank:
                raise ValueError(f"letter {letter} exceeds free rank {self.free.rank}")
            if letter.factor == "y" and letter.index > self.finite.num_generators:
                raise ValueError(f"letter {letter} names no generator of the finite factor")


@dataclass(frozen=True)
class SubgroupGraph:
    graph: LabeledGraph
    separator_ends: tuple


def _wedge(base, words, open_words, table):
    """Wedge of loops (one per word) and open paths (one per open word) at
    a common base vertex, written straight into an adjacency, each maximal
    y-run of a word in G's Cayley graph.  Returns (adjacency, merge pairs,
    end vertex of each open path): ``graphs.fold`` of the adjacency, based
    at ``base``, with the merge pairs folds the wedge.

    Letter i of the words, counted over all of them in order, would end on
    the fresh vertex base + i, a loop's last letter on the base, as in the
    plain wedge of one vertex per letter.  A y-letter instead ends on the
    vertex of its prefix element, counted in ``table`` from the start of
    its y-run, when an earlier vertex of the run has that element; an
    x-letter starts a run, with the identity at its end.  A loop's last
    run ends on the base, which is the run's vertex of the run's whole
    product; when that is the identity, the x-letter that starts the run
    ends on the base too.  The ids of letters that end on an earlier
    vertex are skipped, never written.  Two vertices of a run with one
    element are joined by a y-path that spells the identity, which the
    based graph closes, and the vertex kept is the least id of the two,
    so the fixpoint reaches the graph, vertex ids included, that it
    reaches from the plain wedge.

    Its edges go in word order, each oriented along its word, through
    ``_write_pairs``, which leaves out the edges that clash with one
    already written.  A clash u --a--> w yields two merge pairs: each end
    with the target of its slot there, which is the end itself when the
    slot is empty.  A run's vertices have distinct elements, so no two of
    its own edges clash.  Raises ValueError for a y-letter that names no
    generator of ``table``."""
    steps = table.steps
    identity = table.identity
    span = table.order
    out = {base: {}}
    edges = []
    write = edges.append
    fresh = base  # the id of the last letter written

    def path(word, closes):
        """The path of ``word`` from the base, closed at it when
        ``closes``; returns its end.  The run that starts at id s keys its
        vertex of element e as s * span + e, the first run's s being
        ``fresh``."""
        nonlocal fresh
        run = fresh * span
        at = {run + identity: base}  # key -> its vertex
        if closes:
            tail = len(word)  # the id of the loop's last run's start is fresh + tail
            while tail and word[tail - 1].factor == "y":
                tail -= 1
            at[(fresh + tail) * span + table.word_element(word[tail:])] = base
        element = identity
        current = base
        for target, letter in zip(count(fresh + 1), word):
            step = steps.get(letter)
            if step is not None:
                element = step[element]
            elif letter.factor == "x":
                run, element = target * span, identity
            else:
                raise ValueError(f"no generator y{letter.index}")
            known = at.setdefault(run + element, target)
            if known == target:
                out[target] = {}
            else:
                target = known
            write((current, target, letter))
            current = target
        fresh += len(word) - closes
        return current

    for word in words:
        if word:
            path(word, True)
    ends = [path(word, False) for word in open_words]
    merge = []
    for u, w, letter in _write_pairs(out, edges):
        merge += (out[u].get(letter, w), w), (out[w].get(letter.inverse(), u), u)
    return out, merge, tuple(ends)


def based_fixpoint(graph, table, tracked=(), starts=None):
    """Merge each round's coset groups and fold, to a fixed point; returns
    the stable graph and the images of the tracked vertices.  A graph
    with no groups is returned as it is.

    The first round scans the y-components that hold a vertex of
    ``starts``, every y-component when it is None; a later one scans only
    the y-components that hold a survivor of its merges.  A y-component
    without one has the vertices and edges it had at its last scan, which
    found no groups in it, and the groups of a component do not depend on
    the vertex its scan starts from.  A caller that passes ``starts``
    vouches that the y-components it leaves out have no groups, as
    ``build_subgroup_graph`` does for the pieces of single y-runs."""
    tracked = tuple(tracked)
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
        starts = _survivors(vmap)


def _survivors(vmap):
    """The vertices a fold's vertex map merged others into."""
    return {keep for v, keep in vmap.items() if keep != v}


def build_subgroup_graph(spec: ProblemSpec) -> SubgroupGraph:
    """Canonical based graph for the subgroup, with one open path per
    separator word; returns the graph and each path's end vertex.  Every
    generator loop must close at the base (``graphs.walk``).

    The first fold is ``fold`` of ``_wedge``'s adjacency with its merge
    pairs, and the first coset round scans only the y-components that
    hold the base or a survivor of it.  Any other y-component is one y-run's
    piece of the wedge, as ``_wedge`` wrote it: the runs of different
    words meet only at the base, a run starts at the base or at the end of
    an x-letter, which is a fresh vertex or the base, and the fold left
    the component's vertices and edges alone, or one of them would have
    survived a merge.  Its vertices have distinct prefix elements in G's
    Cayley graph, so every cycle in it spells the identity, its loop
    subgroup K is trivial, and it has no coset group."""
    out, merge, ends = _wedge(0, spec.subgroup_words, spec.separate_words, spec.finite)
    graph, vmap = fold(LabeledGraph(out, 0), merge)
    starts = _survivors(vmap)
    starts.add(graph.base)
    graph, ends = based_fixpoint(graph, spec.finite, [vmap[v] for v in ends], starts)
    for word in spec.subgroup_words:
        if walk(graph.out, graph.base, word) != graph.base:
            raise AssertionError("generator loop failed to close")
    return SubgroupGraph(graph, ends)


class MembershipTester:
    """Membership queries against a fixed based graph.

    A based graph embeds in the coset graph of its subgroup H in F_r * G
    (Kapovich, Weidmann and Miasnikov, IJAC 2005), so a path from the base
    point labelled w ends on the vertex of the coset H*w when it exists.
    A query is read in two phases.

    Phase 1 walks the word letter by letter, x and y alike, along the
    graph's edges, one subscript of the adjacency per letter.  When every
    letter has an edge, the word lies in H exactly when the walk ends on
    the base point.

    Phase 2 starts at the first letter without an edge, at the vertex c
    the walk reached, and reads the flat form of the unread rest (that
    letter onward; ``words.flat_form``) from c: its syllables, the normal
    form's, laid end to end.  An x-letter follows an edge of the
    adjacency.  A y-syllable g moves a vertex on the coset K*a of its
    y-component, K the subgroup of the component's loops, to the vertex on
    K*a*g, whose key K's ``factors.coset_keys`` table gives.  A missing
    edge or vertex means a non-member.  The whole rest is reduced before
    the first step, because a later letter can cancel any part of it: a
    y-run that multiplies to 1 joins the x-letters around it.  The reading
    is exact:

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
        self.graph = graph
        self.table = table

    @cached_property
    def _cosets(self):
        """Vertex with a y-edge -> (its coset key, key -> vertex of its
        y-component, K's coset keys); built by the first query that holds
        a y-letter."""
        cosets = {}
        for subgroup, keys in component_cosets(self.table, self.graph):
            at_key = {key: v for v, key in keys.items()}
            if len(at_key) != len(keys):
                raise ValueError("membership needs a based graph: two vertices "
                                 "of a y-component lie on one coset")
            least = coset_keys(self.table, subgroup)
            cosets.update((v, (key, at_key, least)) for v, key in keys.items())
        return cosets

    def contains(self, word) -> bool:
        if "_cosets" not in self.__dict__ and any(letter.factor == "y" for letter in word):
            self._cosets  # refuses a graph that is not based
        out = self.graph.out
        current = self.graph.base
        letters = iter(word)
        try:
            for letter in letters:
                current = out[current][letter]
        except KeyError:  # no edge: ``letter`` onward is the unread rest
            return self._read_rest((letter, *letters), current)
        return current == self.graph.base

    def _read_rest(self, rest, current) -> bool:
        """Phase 2: read the flat form of ``rest`` from ``current``.  A
        y-letter that names no generator raises ValueError here, since it
        never has an edge."""
        out = self.graph.out
        multiply = self.table.multiply
        for item in flat_form(rest, self.table):
            if item.__class__ is not int:
                current = out[current].get(item)
                if current is None:
                    return False
            else:
                coset = self._cosets.get(current)
                if coset is None:
                    return False
                key, at_key, least = coset
                current = at_key.get(least[multiply(key, item)])
                if current is None:
                    return False
        return current == self.graph.base


def membership(spec: ProblemSpec, word) -> bool:
    """Does the word lie in the subgroup the problem generates?  Any
    separator words in the problem are ignored, and a letter outside the
    problem's alphabet raises ValueError, as it does in a problem."""
    word = tuple(word)
    spec.check_word(word)
    core = build_subgroup_graph(replace(spec, separate_words=()))
    return MembershipTester(core.graph, spec.finite).contains(word)


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

    Decided by the x-components with a cycle of
    ``graphs.whole_graph_walk``, which the graph keeps for the Kurosh
    decomposition: one has |V| - 1 pairs in its tree and one for each of
    its non-tree pairs, and misses edges when that is less than r|V|.
    Only the witness is built as a graph: of the components that miss
    edges, the one with the least vertex, based at that vertex.
    """
    cyclic = [c for c in whole_graph_walk(graph).cyclic if c.factor == "x"]
    if not cyclic:
        return HypothesisVerdict(VERDICT_TREES)
    deficient = [c.vertices for c in cyclic
                 if len(c.vertices) - 1 + len(c.nontree) < rank * len(c.vertices)]
    if deficient:
        members = min(deficient, key=min)
        return HypothesisVerdict(
            VERDICT_DEFICIENT, witness=component_graph(graph, members, "x", min(members)))
    return HypothesisVerdict(
        VERDICT_NOT_APPLICABLE,
        reason=(
            "every x-component with a cycle is a saturated cover of the free "
            "factor, so all nontrivial free-factor intersections have finite "
            "index (relative to the given generating set)"
        ),
    )
