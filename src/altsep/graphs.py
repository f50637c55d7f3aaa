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

A graph is read in two ways besides its component sweep: ``walk``
follows a word from a vertex, and ``_tree_walk`` grows a breadth-first
spanning tree from a root and lists the pairs outside it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError


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

    __slots__ = ("out", "base", "vertices", "_pairs", "_components")

    def __init__(self, out, base):
        init = object.__setattr__  # one call per slot: a Kurosh pass builds a graph per factor
        init(self, "out", out)
        init(self, "base", base)
        init(self, "vertices", frozenset(out))
        init(self, "_pairs", None)
        init(self, "_components", {})

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
    ValueError for a group naming an unknown vertex."""
    return _fold(graph.out, (), graph.vertices, graph.base, merge)


def _fold(start, clashes, vertices, base, merge):
    """``fold`` from an adjacency ``start`` on ``vertices`` and the
    edges ``_write_pairs`` returned as clashes when it wrote ``start``:
    the one body of every fold, the subgroup graph's first included.

    Each slot a clashing edge finds taken has its target identified with
    the edge's own end there, as a merge group is.  Merging two classes is
    one step for a merge group, a clash and two edges that collide later:
    union them and replay only the dropped class's slots onto the
    survivor, in a shallow copy of the adjacency that copies a vertex's
    slots when the vertex first survives a merge.  Only the survivors and
    the neighbours of dropped vertices can hold a stale target, so only
    their slots are resolved.  ``start`` is never written.

    Cost: the union-find work of the merges, the clashes and the folds
    they cause, one replay per slot of each vertex merged away, and O(d)
    for the d slots resolved.  The rest of O(|V| + |E|) is whole-set
    copies (the adjacency's top level, the union-find map, the vertex
    set) with no Python step per vertex.  Every class is named by its
    least vertex (a merge keeps the smaller id), so neither the result
    nor the vertex map depends on the order of the groups and clashes.
    """
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
    # a stale target sits only at a merge survivor or at a neighbour of a
    # dropped vertex
    changed = set(owned)
    for v in dropped:
        changed.update(start[v].values())
    for v in changed:
        if v in out:
            out[v] = {letter: vmap[target] for letter, target in out[v].items()}
    return LabeledGraph(out, vmap[base]), vmap


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

    A component's vertices are a tuple in breadth-first order from its
    least vertex, each vertex's slots followed in their order; a vertex
    with no edge of the factor belongs to no component.  A component has
    a cycle when its pair count is at least its vertex count, and is
    saturated for a factor of rank r (every vertex has all 2r slots)
    when the count is r times its vertex count.  ``component_graph``
    makes one a graph.

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
    ``components``) as a graph based at ``base``: their slots of that
    factor."""
    out = graph.out
    return LabeledGraph({v: {letter: w for letter, w in out[v].items() if letter.factor == factor}
                         for v in vertices}, base)


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


def tree_path_word(parent, vertex):
    """Word along the tree edges of ``_tree_walk``'s parent map from the
    root to ``vertex``."""
    letters = []
    while vertex in parent:
        vertex, letter = parent[vertex]
        letters.append(letter)
    return tuple(reversed(letters))
