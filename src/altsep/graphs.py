"""Finite labeled graphs with involutive edges, and folding.

An edge u --x1--> w and its involution partner w --x1^-1--> u are one
edge pair, named canonically by the orientation whose letter has
positive sign: (u, w, x1).  A graph is *folded* when no vertex has two
outgoing edges with the same letter, and a folded graph is stored as its
adjacency ``out``, vertex -> {letter -> target}, in the format this
module owns: ``_write_pairs`` writes every slot of one, and
``from_adjacency`` makes one a graph, whose ``pairs`` are read off its
positive-sign slots when first asked for.  A graph made from pairs keeps
them, and a folded one writes its adjacency from them when first read.
Graphs are immutable.  ``fold`` is the only operation that merges
vertices; folding is confluent, so it picks its own order, and the test
suite checks that against random fold orders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError, dataclass

from .words import Letter


def canonical_pair(source: int, target: int, letter: Letter):
    """Orient an edge so its letter has positive sign."""
    if letter.sign < 0:
        return (target, source, letter.inverse())
    return (source, target, letter)


def _pair_key(pair):
    """Edge-pair order: source, letter, target.  Private, so that a tracer
    wrapping the public functions records no span per comparison."""
    u, w, letter = pair
    return (u, letter.sort_key, w)


class LabeledGraph:
    """Vertices, canonical edge pairs, base vertex and whether the graph
    is folded; equality and hashing read these four.  Immutable."""

    __slots__ = ("vertices", "base", "folded", "_pairs", "_out", "_components")

    def __init__(self, vertices, pairs, base, folded):
        for name, value in zip(self.__slots__, (vertices, base, folded, pairs, None, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return LabeledGraph, (self.vertices, self.pairs, self.base, self.folded)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    @property
    def pairs(self):
        """Canonical edge pairs, a frozenset; a graph built by
        ``from_adjacency`` reads them off its positive-sign slots once."""
        if self._pairs is None:
            object.__setattr__(self, "_pairs", frozenset(
                (u, w, letter) for u, slots in self._out.items()
                for letter, w in slots.items() if letter.sign > 0))
        return self._pairs

    @property
    def out(self):
        """Adjacency of a folded graph: vertex -> {letter -> target}; that
        of ``from_adjacency``, else written once from the pairs on first
        use.  Treat it as read-only: ``fold`` shares the slot dicts of
        unchanged vertices.  Raises ValueError on an unfolded graph."""
        if self._out is None:
            if not self.folded:
                raise ValueError("adjacency requires a folded graph")
            table = {v: {} for v in self.vertices}
            _write_pairs(table, self._pairs)
            object.__setattr__(self, "_out", table)
        return self._out

    def step(self, vertex: int, letter: Letter):
        """Unique out-neighbor along ``letter``, or None.  Requires folded."""
        return self.out[vertex].get(letter)

    def __repr__(self):
        return (f"LabeledGraph({len(self.vertices)} vertices, "
                f"{len(self.pairs)} edge pairs, base={self.base}, "
                f"folded={self.folded})")


@dataclass(frozen=True)
class TraceResult:
    status: str  # 'closed' | 'open' | 'stuck'
    vertex: int
    position: int | None = None  # 1-based index of the letter with no edge

    @property
    def closed(self) -> bool:
        return self.status == "closed"


def _write_pairs(out, pairs):
    """Write edges, each a (source, target, letter) triple in either
    orientation, into an adjacency that has all their vertices: an edge
    fills its two slots when each is empty or holds the edge already.
    Returns, in order and as given, the edges that found a slot holding
    another edge, and writes neither slot of those, so the adjacency stays
    folded.  Private, so that a tracer records no span per write."""
    clashes = []
    for u, w, letter in pairs:
        inverse = letter.inverse()
        head, tail = out[u], out[w]
        if (letter in head and head[letter] != w) or (inverse in tail and tail[inverse] != u):
            clashes.append((u, w, letter))
        else:
            head[letter] = w
            tail[inverse] = u
    return clashes


def from_adjacency(out, base) -> LabeledGraph:
    """The folded graph an adjacency spells, with it as its ``out``; its
    pairs are read off the adjacency when first asked for."""
    graph = LabeledGraph(frozenset(out), None, base, True)
    object.__setattr__(graph, "_out", out)
    return graph


def make_graph(vertices, pairs, base) -> LabeledGraph:
    """Assemble a graph from canonical pairs; it is folded, and is the
    adjacency they spell, exactly when no pair clashes."""
    out = {v: {} for v in vertices}
    pairs = frozenset(pairs)
    if _write_pairs(out, pairs):
        return LabeledGraph(frozenset(out), pairs, base, False)
    return from_adjacency(out, base)


class _UnionFind:
    def __init__(self, items):
        self.parent = dict(zip(items, items))

    def find(self, item):
        parent = self.parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a, b):
        """Merge classes; the smaller id survives (deterministic) and is
        returned, or None when a and b were in one class already."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return None
        keep, drop = (a, b) if a < b else (b, a)
        self.parent[drop] = keep
        return keep


def fold(graph: LabeledGraph, merge=()):
    """Least folded quotient in which each group (a sequence of vertices)
    in ``merge`` is one vertex: merge the groups, then identify
    same-source same-letter edges until none remain.  Returns (folded
    graph, total vertex map).  Raises ValueError for a group naming an
    unknown vertex.

    A folded input starts from its ``out``; an unfolded one from its pairs
    written into empty slots by ``_write_pairs``, less the clashing pairs.
    ``_fold`` does the rest.
    """
    if graph.folded:
        start, clashes = graph.out, ()
    else:
        start = {v: {} for v in graph.vertices}
        clashes = _write_pairs(start, graph.pairs)
    return _fold(start, clashes, graph.vertices, graph.base, merge)


def _fold(start, clashes, vertices, base, merge):
    """``fold`` from a folded adjacency ``start`` on ``vertices`` and the
    edges ``_write_pairs`` returned as clashes when it wrote ``start``:
    the one body of every fold, the subgroup graph's first included.

    Each slot a clashing edge finds taken has its target identified with
    the edge's own end there, as a merge group is.  Merging two classes is
    one step for a merge group, a clash and two edges that collide later:
    union them and replay only the dropped class's slots onto the
    survivor, in a shallow copy of the adjacency that copies a vertex's
    slots when the vertex first survives a merge.  Only the survivors and
    the neighbours of dropped vertices can hold a stale target, so only
    their slots are resolved.  ``start`` is never written.  The result is
    the adjacency built here, with no pair set kept beside it: its pairs
    are read off it only if something asks for them.

    Cost: the union-find work of the merges, the clashes and the folds
    they cause, one replay per slot of each vertex merged away, and O(d)
    for the d slots resolved.  The rest of O(|V| + |E|) is whole-set
    copies (the adjacency's top level, the union-find map, the vertex
    set) with no Python step per vertex.  Every class is named by its
    least vertex (``_UnionFind.union`` keeps the smaller id), so neither
    the result nor the vertex map depends on the order of the groups and
    clashes.
    """
    uf = _UnionFind(vertices)
    find = uf.find
    work = deque()
    out = dict(start)
    owned = set()  # vertices whose slot dict is a copy: merge survivors
    dropped = []

    def identify(a, b):
        """Union the classes of a and b; the dropped class's slots are
        replayed from the survivor, and stale targets resolve through
        find() on their next visit."""
        a, b = find(a), find(b)
        if a != b:
            keep = uf.union(a, b)
            drop = b if keep == a else a
            dropped.append(drop)
            if keep not in owned:
                owned.add(keep)
                out[keep] = dict(out[keep])
            for letter, target in out.pop(drop).items():
                work.append((keep, target, letter))

    for group in merge:
        for v in group:
            if v not in vertices:
                raise ValueError(f"unknown vertex {v!r}")
            identify(group[0], v)
    # each end of a clashing edge joins the target of its slot there; an
    # empty slot yields the end itself, which identify leaves alone
    for u, w, letter in clashes:
        identify(start[u].get(letter, w), w)
        identify(start[w].get(letter.inverse(), u), u)
    while work:
        source, target, letter = work.popleft()
        source, target = find(source), find(target)
        slots = out[source]
        existing = slots.get(letter)
        if existing is None:
            slots[letter] = target
        else:
            identify(existing, target)
    for v in dropped:
        find(v)  # path compression points each at its class's least vertex
    vmap = uf.parent
    # a stale target sits only at a merge survivor or at a neighbour of a
    # dropped vertex
    changed = set(owned)
    for v in dropped:
        changed.update(start[v].values())
    for v in changed:
        if v in out:
            out[v] = {letter: vmap[target] for letter, target in out[v].items()}
    return from_adjacency(out, vmap[base]), vmap


def trace(graph: LabeledGraph, start: int, word) -> TraceResult:
    """Follow ``word`` letter by letter from ``start`` in a folded graph."""
    if not graph.folded:
        raise ValueError("trace requires a folded graph")
    if start not in graph.vertices:
        raise ValueError(f"unknown vertex {start!r}")
    current = start
    for position, letter in enumerate(word, start=1):
        target = graph.step(current, letter)
        if target is None:
            return TraceResult("stuck", current, position)
        current = target
    return TraceResult("closed" if current == start else "open", current)


def components(graph: LabeledGraph, factor: str):
    """Maximal connected monochromatic subgraphs of a folded graph for one
    factor, as (vertices, pair count) entries in order of least vertex.

    A component's vertices are a tuple in breadth-first order from its
    least vertex, each vertex's slots followed in their order; a vertex
    with no edge of the factor belongs to no component.  A component has
    a cycle when its pair count is at least its vertex count, and is
    saturated for a factor of rank r (every vertex has all 2r slots)
    when the count is r times its vertex count.  ``component_graph``
    makes one a graph.  Raises ValueError on an unfolded graph.

    Cost: one breadth-first sweep over the adjacency, which reads every
    slot of both factors once, and a sort of the vertices, on the first
    call for a graph and factor; no subgraph is built.  The result is
    kept on the graph, and later calls copy the list, so callers may
    change the list they get.
    """
    found = graph._components.get(factor)
    if found is None:
        found = graph._components[factor] = _sweep(graph, factor)
    return list(found)


def _sweep(graph: LabeledGraph, factor: str):
    """The pass ``components`` keeps on the graph."""
    out = graph.out
    seen = set()
    found = []
    for start in sorted(graph.vertices):
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        slots = 0  # each pair fills two slots of the component, a loop both at one vertex
        for v in members:  # grows while it is read: breadth-first order
            for letter, w in out[v].items():
                if letter.factor == factor:
                    slots += 1
                    if w not in seen:
                        seen.add(w)
                        members.append(w)
        if slots:  # a tuple of ints, unlike a list, drops out of the collector's scans
            found.append((tuple(members), slots // 2))
    return found


def component_graph(graph: LabeledGraph, vertices, factor: str, base: int) -> LabeledGraph:
    """The component of ``factor`` on ``vertices`` (those of an entry of
    ``components``) as a folded graph based at ``base``, its pairs read
    off their positive-sign slots; its adjacency is written when first
    read."""
    out = graph.out
    pairs = frozenset((v, w, letter) for v in vertices for letter, w in out[v].items()
                      if letter.sign > 0 and letter.factor == factor)
    return LabeledGraph(frozenset(vertices), pairs, base, True)


def breadth_first_tree(graph: LabeledGraph, root: int, letters=None):
    """Deterministic BFS that follows the edges labeled by ``letters``, in
    that order; by default every letter of the graph, sorted x-first,
    ascending index, positive sign first.  Returns (discovery order,
    parent) where parent maps each non-root reached vertex to (parent
    vertex, letter of the edge parent->v).  Requires a folded graph.
    """
    out = graph.out
    if letters is None:
        letters = sorted({letter for slots in out.values() for letter in slots},
                         key=lambda l: l.sort_key)
    order = [root]
    parent = {}
    seen = {root}
    for v in order:  # grows while it is read: breadth-first order
        slots = out[v]
        for letter in letters:
            w = slots.get(letter)
            if w is not None and w not in seen:
                seen.add(w)
                parent[w] = (v, letter)
                order.append(w)
    return order, parent


def tree_path_word(parent, vertex):
    """Word along BFS-tree edges from the root to ``vertex``."""
    letters = []
    while vertex in parent:
        vertex, letter = parent[vertex]
        letters.append(letter)
    return tuple(reversed(letters))
