"""Finite labeled graphs with involutive edges, and folding.

An edge u --x1--> w and its involution partner w --x1^-1--> u are one
edge pair, named canonically by the orientation whose letter has
positive sign: (u, w, x1).  A graph is an immersion into the rose: no
vertex has two outgoing edges with one letter, so each letter is a
partial injection of the vertices.  It is stored as those injections,
the adjacency ``out``, vertex -> {letter -> target}, and its base
vertex; ``_write_pairs`` writes the slots of one, and the graph's
``pairs`` are read off its positive-sign slots when first asked for.
Graphs are immutable.  ``fold`` is the only operation that merges
vertices; folding is confluent, so it picks its own order, and the test
suite checks that against random fold orders.

A graph is read in two ways: ``walk`` follows a word from a vertex,
and ``_tree_walk``, the module's one breadth-first walk, grows a
spanning tree from a root and lists the pairs outside it; ``_root_path``
reads a vertex's word off that tree.  ``components`` runs ``_tree_walk``
from each vertex that no earlier walk reached, and ``whole_graph_walk``
runs it over the whole graph and over each monochromatic component with
a cycle, which the pairs outside the whole-graph tree lead to; the
eligibility verdict and the Kurosh decomposition both read it.  A graph
keeps, once read, its pairs and its whole-graph walk.
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError
from typing import NamedTuple


def _pair_key(pair):
    """Edge-pair order: source, letter, target.  Private, so that a tracer
    wrapping the public functions records no span per comparison."""
    u, w, letter = pair
    return (u, letter.sort_key, w)


class LabeledGraph:
    """A graph: its adjacency ``out``, vertex -> {letter -> target}, with
    both orientations of every edge, and its base vertex.  Equality and
    hashing read the vertices, the pairs and the base.  Immutable; treat
    ``out`` as read-only too, since ``fold`` shares the slot dicts of
    unchanged vertices."""

    __slots__ = ("out", "base", "vertices", "_pairs", "_walk")

    def __init__(self, out, base):
        init = object.__setattr__  # one call per slot: a Kurosh pass builds a graph per factor
        init(self, "out", out)
        init(self, "base", base)
        init(self, "vertices", frozenset(out))
        init(self, "_pairs", None)
        init(self, "_walk", None)

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return LabeledGraph, (self.out, self.base)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self.vertices, self.pairs, self.base

    @property
    def pairs(self):
        """Canonical edge pairs, a frozenset read off the positive-sign
        slots once."""
        if self._pairs is None:
            object.__setattr__(self, "_pairs", frozenset(
                (u, w, letter) for u, slots in self.out.items()
                for letter, w in slots.items() if letter.sign > 0))
        return self._pairs

    def __repr__(self):
        return (f"LabeledGraph({len(self.vertices)} vertices, "
                f"{len(self.pairs)} edge pairs, base={self.base})")


def _write_pairs(out, pairs):
    """Write edges, each a (source, target, letter) triple in either
    orientation, into an adjacency that has all their vertices: an edge
    fills its two slots when each is empty or holds the edge already.
    Returns, in order and as given, the edges that found a slot holding
    another edge, and writes neither slot of those, so no vertex gets two
    edges with one letter.  Private, so that a tracer records no span per
    write."""
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


def fold(graph: LabeledGraph, merge=()):
    """Least quotient in which each group (a sequence of vertices) in
    ``merge`` is one vertex and no vertex has two edges with one letter:
    merge the groups, then identify same-source same-letter edges until
    none remain.  Returns (quotient graph, total vertex map).  Raises
    ValueError for a group naming an unknown vertex.

    Merging two classes is one step for a merge group and for two edges
    that collide: union them and replay only the dropped class's slots
    onto the survivor, in a shallow copy of the adjacency that copies a
    vertex's slots when the vertex first survives a merge.  Only the
    survivors and the neighbours of dropped vertices can hold a stale
    target, so only their slots are resolved.  ``graph`` is never written.

    Cost: the union-find work of the merges and the folds they cause, one
    replay per slot of each vertex merged away, and O(d) for the d slots
    resolved.  The rest of O(|V| + |E|) is whole-set copies (the
    adjacency's top level, the union-find map, the vertex set) with no
    Python step per vertex.  Every class is named by its least vertex (a
    merge keeps the smaller id), so neither the result nor the vertex map
    depends on the order of the groups.
    """
    start, vertices = graph.out, graph.vertices
    vmap = dict(zip(vertices, vertices))  # union-find parents; the vertex map at the end

    def find(v):
        root = v
        while vmap[root] != root:
            root = vmap[root]
        while vmap[v] != root:
            vmap[v], v = root, vmap[v]
        return root

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
            keep, drop = (a, b) if a < b else (b, a)
            vmap[drop] = keep
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
    # a stale target sits only at a merge survivor or at a neighbour of a
    # dropped vertex
    changed = set(owned)
    for v in dropped:
        changed.update(start[v].values())
    for v in changed:
        if v in out:
            out[v] = {letter: vmap[target] for letter, target in out[v].items()}
    return LabeledGraph(out, vmap[graph.base]), vmap


def walk(out, start: int, word):
    """End of the path that ``word`` spells from ``start`` in the
    adjacency ``out``, or None when a letter has no edge.  Raises
    ValueError for a start that is not a vertex."""
    if start not in out:
        raise ValueError(f"unknown vertex {start!r}")
    current = start
    for letter in word:
        current = out[current].get(letter)
        if current is None:
            return None
    return current


def components(graph: LabeledGraph, factor: str):
    """Maximal connected monochromatic subgraphs of a graph for one
    factor, as (vertices, pair count) entries in order of least vertex.

    A component's vertices are a tuple in the discovery order of
    ``_tree_walk`` from its least vertex over the factor's letters; a
    vertex with no edge of the factor belongs to no component.  A
    component has a cycle when its pair count is at least its vertex
    count, and is saturated for a factor of rank r (every vertex has all
    2r slots) when the count is r times its vertex count.
    ``component_graph`` makes one a graph.

    Cost: one ``_tree_walk`` from each vertex no earlier walk reached,
    which together read every slot of the factor once, and a sort of the
    vertices; no subgraph is built.
    """
    out = graph.out
    letters = _letters(out)[factor]
    reached = set()
    found = []
    for start in sorted(out):
        if start in reached:
            continue
        order, _parent, nontree = _tree_walk(out, start, letters)
        reached.update(order)
        pairs = len(order) - 1 + len(nontree)
        if pairs:  # a tuple of ints, unlike a list, drops out of the collector's scans
            found.append((tuple(order), pairs))
    return found


def component_graph(graph: LabeledGraph, vertices, factor: str, base: int) -> LabeledGraph:
    """The component of ``factor`` on ``vertices`` (those of an entry of
    ``components``) as a graph based at ``base``: their slots of that
    factor."""
    out = graph.out
    return LabeledGraph({v: {letter: w for letter, w in out[v].items() if letter.factor == factor}
                         for v in vertices}, base)


def _letters(out):
    """Each factor's letters present in the adjacency ``out`` (both
    signs), factor -> list in sort-key order: x-letters and y-letters
    joined are every letter of ``out`` in that order."""
    letters = {"x": [], "y": []}
    for letter in sorted(set().union(*out.values()), key=lambda l: l.sort_key):
        letters[letter.factor].append(letter)
    return letters


def _tree_walk(out, root, letters):
    """Breadth-first spanning tree of what the edges labeled by
    ``letters`` reach from ``root`` in the adjacency ``out``, each vertex's
    letters followed in the order given (list both signs of a letter to
    cross its edges both ways).  Returns (discovery order, parent,
    non-tree pairs): parent maps each reached vertex but the root to
    (parent vertex, letter of the edge parent -> vertex), and the
    non-tree pairs are the canonical pairs, among those followed, outside
    the tree parent spells, in the order the walk met them.  Private, so
    that a tracer records no span per component."""
    order = [root]
    parent = {}
    nontree = []
    for v in order:  # grows while it is read: breadth-first order
        slots = out[v]
        for letter in letters:
            w = slots.get(letter)
            if w is None:
                continue
            if w not in parent and w != root:
                parent[w] = (v, letter)
                order.append(w)
            elif letter.sign > 0:
                into = parent.get(v)  # a pair other than the tree edge into v?
                if into is None or into[0] != w or into[1] is not letter.inverse():
                    nontree.append((v, w, letter))
    return order, parent, nontree


def _root_path(parent, paths, vertex):
    """Word along the tree edges of ``_tree_walk``'s parent map from the
    root to ``vertex``, kept in ``paths`` (vertex -> word, holding the
    root's empty word).  The climb stops at the nearest vertex whose word
    is kept, and only ``vertex``'s word is added, so a call costs
    O(depth) and a word once kept costs one lookup: the root paths of a
    long cycle are never all built.  Private, so that a tracer records no
    span per call."""
    path = paths.get(vertex)
    if path is None:
        letters = []
        v = vertex
        while v not in paths:
            v, letter = parent[v]
            letters.append(letter)
        letters.reverse()
        path = paths[vertex] = paths[v] + tuple(letters)
    return path


class CyclicComponent(NamedTuple):
    """A monochromatic component with a cycle, as ``whole_graph_walk``
    finds it: its factor, its anchor (the vertex of it that the
    whole-graph walk discovered first), and ``_tree_walk`` over the
    factor's letters from the anchor: its vertices in discovery order,
    its spanning tree's parent map and its pairs outside that tree, at
    least one.  It has len(vertices) - 1 + len(nontree) pairs."""

    factor: str
    anchor: int
    vertices: list
    parent: dict
    nontree: list


class WholeGraphWalk(NamedTuple):
    """``whole_graph_walk``'s result: the walk's roots (the base, then
    each vertex the earlier roots' walks did not reach, ascending; one
    root exactly when the graph is connected), its spanning forest's
    parent map, as ``_tree_walk`` gives it, and the monochromatic
    components with a cycle in their anchors' discovery order, the
    x-component first where one vertex anchors two."""

    roots: tuple
    parent: dict
    cyclic: tuple


def whole_graph_walk(graph: LabeledGraph) -> WholeGraphWalk:
    """One breadth-first walk over every vertex and both factors'
    letters, and the monochromatic components with a cycle that its
    pairs outside the tree lead to.  Letters are followed x-first,
    ascending index, positive sign first.

    A component with a cycle cannot lie inside the walk's spanning
    forest, so it holds one of the forest's non-tree pairs.  For each
    such pair whose source no component of its factor walked so far
    holds, a ``_tree_walk`` over the factor's letters gives the
    component's vertices, and the component has a cycle when that walk
    meets a non-tree pair.  The walk starts where the forest's edges of
    the factor lead from the source towards the root; that is most often
    the anchor, and a component with a cycle whose walk started elsewhere
    is walked again from its anchor, so that its tree is grown from
    there.  A component without a cycle is walked only when it holds a
    pair outside the forest, and is not kept.

    Cost: O(|V| * r) in all (a component is walked at most twice, and the
    components of a factor are disjoint), on the first call for a graph;
    the result is kept on the graph, so the eligibility verdict and the
    Kurosh decomposition of one graph share one walk.  Read-only: callers
    must not change what it holds."""
    found = graph._walk
    if found is None:
        found = _walk_whole_graph(graph)
        object.__setattr__(graph, "_walk", found)
    return found


def _walk_whole_graph(graph: LabeledGraph) -> WholeGraphWalk:
    """The pass ``whole_graph_walk`` keeps on the graph."""
    out = graph.out
    letters = _letters(out)
    both = letters["x"] + letters["y"]
    roots = [graph.base]
    order, parent, nontree = _tree_walk(out, graph.base, both)
    if len(order) < len(out):
        reached = set(order)
        for root in sorted(out):
            if root not in reached:
                more, more_parent, more_nontree = _tree_walk(out, root, both)
                roots.append(root)
                reached.update(more)
                order += more
                parent.update(more_parent)
                nontree += more_nontree
    discovery = {v: i for i, v in enumerate(order)}

    cyclic = []  # (anchor's discovery, factor, anchor, its walk)
    walked = {"x": set(), "y": set()}  # the vertices of the components walked so far
    for start, _target, letter in nontree:
        factor = letter.factor
        if start in walked[factor]:
            continue
        # the forest's edges of the factor stay in the component, and
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
    return WholeGraphWalk(tuple(roots), parent, tuple(
        CyclicComponent(factor, anchor, *tree) for _discovered, factor, anchor, tree in cyclic))
