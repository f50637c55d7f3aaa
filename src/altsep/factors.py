"""The two free factors: a free group of rank r and a finite group G.

G is always presented by permutation generators and closed by breadth-first
enumeration into a multiplication table (element 0 is the identity).  The
finite side keys the right cosets Kg, numbers them and moves each along
Kg --y--> Kgy per generator, once per subgroup K per table.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from . import permgroup
from .graphs import LabeledGraph
from .words import y_letter


class NotGBasedError(ValueError):
    """A path with identity label is not closed: the graph does not embed
    in a coset graph of the finite factor."""


class FiniteGroupTable:
    """Enumerated finite group: elements are indices into a closed list of
    permutations; index 0 is the identity."""

    identity = 0

    def __init__(self, degree, elements, generator_indices):
        self.degree = degree
        self.elements = tuple(elements)
        self.generator_indices = tuple(generator_indices)
        self._index = {perm: i for i, perm in enumerate(self.elements)}
        self._inverses = tuple(
            self._index[permgroup.inverse(perm)] for perm in self.elements
        )
        # Right multiplication by each y-letter as a table: steps[letter]
        # is the tuple t with t[a] = a*letter for every element a.  A
        # letter's inverse gets the inverse permutation of its table.
        self.steps = {}
        for index, element in enumerate(self.generator_indices, start=1):
            forward = tuple(self.multiply(a, element) for a in range(self.order))
            self.steps[y_letter(index)] = forward
            self.steps[y_letter(index, -1)] = permgroup.inverse(forward)
        # subgroup_closure's, coset_keys' and coset_action's results
        self._closures, self._coset_keys, self._coset_actions = {}, {}, {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def num_generators(self) -> int:
        return len(self.generator_indices)

    def multiply(self, a: int, b: int) -> int:
        return self._index[permgroup.compose(self.elements[a], self.elements[b])]

    def inverse(self, a: int) -> int:
        return self._inverses[a]

    def word_element(self, word) -> int:
        """Evaluate a y-word in the table, by one index into ``steps`` per
        letter.  Raises ValueError for an x-letter or a y-letter that
        names no generator."""
        steps = self.steps
        out = self.identity
        for letter in word:
            step = steps.get(letter)
            if step is None:
                if letter.factor != "y":
                    raise ValueError(f"not a finite-factor letter: {letter}")
                raise ValueError(f"no generator y{letter.index}")
            out = step[out]
        return out


# Largest finite factor that is enumerated into a table: |S_8|, about
# 0.3 s with its step tables.  The closure stops as soon as it passes
# this order.
MAX_GROUP_ORDER = 40_320


def enumerate_group(degree: int, generators) -> FiniteGroupTable:
    """Close permutation generators into a full group table.  Raises
    ValueError once the closure passes MAX_GROUP_ORDER elements."""
    gens = []
    for perm in generators:
        perm = tuple(perm)
        if sorted(perm) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {perm}")
        gens.append(perm)
    identity = permgroup.identity_perm(degree)
    elements = [identity]
    index = {identity: 0}
    queue = deque([identity])
    while queue:
        current = queue.popleft()
        for g in gens:
            product = permgroup.compose(current, g)
            if product not in index:
                index[product] = len(elements)
                elements.append(product)
                queue.append(product)
        if len(elements) > MAX_GROUP_ORDER:
            raise ValueError(f"finite factor has more than {MAX_GROUP_ORDER} elements")
    return FiniteGroupTable(degree, elements, tuple(index[g] for g in gens))


def subgroup_closure(table: FiniteGroupTable, seeds) -> frozenset:
    """Smallest subgroup of the table containing the seed elements.  A
    table closes each distinct seed set once: equal seed sets share one
    frozenset."""
    seeds = frozenset(seeds)
    closure = table._closures.get(seeds)
    if closure is not None:
        return closure
    members = {table.identity}
    queue = deque([table.identity])
    gens = sorted(seeds | {table.inverse(s) for s in seeds})
    while queue:
        current = queue.popleft()
        for s in gens:
            product = table.multiply(current, s)
            if product not in members:
                members.add(product)
                queue.append(product)
    closure = table._closures[seeds] = frozenset(members)
    return closure


class _CosetKeys(dict):
    """Element e -> least element of its right coset K*e, filled a coset at a time."""

    def __init__(self, table, subgroup):
        self._table, self._subgroup = table, subgroup

    def __missing__(self, element):
        coset = [self._table.multiply(k, element) for k in self._subgroup]
        self.update(dict.fromkeys(coset, min(coset)))
        return self[element]


def coset_keys(table: FiniteGroupTable, subgroup: frozenset) -> _CosetKeys:
    """The element -> coset key table of a subgroup K, one per K per table:
    a coset's first read fills it by |K| products; unread cosets cost nothing."""
    keys = table._coset_keys.get(subgroup)
    if keys is None:
        keys = table._coset_keys[subgroup] = _CosetKeys(table, subgroup)
    return keys


def coset_action(table: FiniteGroupTable, subgroup: frozenset):
    """Right cosets Kg of a subgroup K, numbered breadth-first from coset
    0 = K over the generators; the walk visits all of G, whatever |K|, so
    the table keeps its result per K.  Returns (element_to_coset, moves):
    element_to_coset[e] is the coset of e, and moves[j - 1][c] that of
    coset c times y<j>.  The caller guarantees that K is a subgroup."""
    action = table._coset_actions.get(subgroup)
    if action is not None:
        return action
    element_to_coset = [None] * table.order
    for e in subgroup:
        element_to_coset[e] = 0
    cosets = [list(subgroup)]
    steps = [table.steps[y_letter(j)] for j in range(1, table.num_generators + 1)]
    moves = [[] for _ in steps]
    for members in cosets:  # grows while it is read: breadth-first order
        for step, move in zip(steps, moves):
            image = [step[e] for e in members]
            target = element_to_coset[image[0]]
            if target is None:
                target = len(cosets)
                cosets.append(image)
                for e in image:
                    element_to_coset[e] = target
            move.append(target)
    action = table._coset_actions[subgroup] = (element_to_coset, moves)
    return action


def component_cosets(table: FiniteGroupTable, graph: LabeledGraph, starts=None):
    """Loop subgroup K and coset keys of every y-component of a graph,
    from one breadth-first pass over its y-edges; with ``starts``,
    of only the y-components that hold a vertex of ``starts``.

    Returns one (K, {vertex: key}) per y-component.  A component's pass
    starts at the first vertex of ``starts`` it holds; without ``starts``,
    at the base point when the component holds it, else at a fixed vertex
    of it.  The pass records reach[w] = reach[v]*letter along first
    visits; each edge that closes a cycle adds the loop element
    reach[v]*letter*reach[w]^-1.  K is generated by the loop elements, and
    the key of v is the smallest element of its coset K*reach[v] (read
    from K's ``coset_keys``), so vertices sharing a key have a non-closed
    identity-label path between them.  Another start vertex
    left-multiplies every reach by one element g, which conjugates K by g
    and maps its cosets bijectively, so the partition into keys does not
    depend on the start.  Vertices with no y-edge belong to no component.

    Cost: O(|V| + |E|) steps along ``table.steps`` over the components
    scanned, plus, once per table, one closure per distinct seed set and
    |K| products per coset of a nontrivial K that a key falls in.
    """
    out = graph.out
    steps = table.steps
    trivial = frozenset((table.identity,))
    if starts is None:
        starts = chain((graph.base,), out)
    reach = {}
    result = []
    for start in starts:
        if start in reach:
            continue
        reach[start] = table.identity
        members = [start]
        loops = []
        slots = 0
        for v in members:  # grows while it is read: breadth-first order
            here = reach[v]
            for letter, w in out[v].items():
                step = steps.get(letter)
                if step is None:
                    continue
                slots += 1
                moved = step[here]
                there = reach.get(w)
                if there is None:
                    reach[w] = moved
                    members.append(w)
                elif there != moved:
                    loops.append(table.multiply(moved, table.inverse(there)))
        if not slots:
            continue
        if loops:
            subgroup = subgroup_closure(table, loops)
            least = coset_keys(table, subgroup)
            result.append((subgroup, {v: least[reach[v]] for v in members}))
        else:  # the reach is the key, with no table
            result.append((trivial, {v: reach[v] for v in members}))
    return result


__all__ = [
    "FiniteGroupTable",
    "NotGBasedError",
    "enumerate_group",
    "subgroup_closure",
    "coset_keys",
    "coset_action",
    "component_cosets",
]
