"""Independent oracles for the test suite.

Everything here decides questions by brute force, without going through
the code paths under test: permutation groups by exhaustive closure,
folding by exhaustive or random fold-order search, connectivity and
canonical forms of based graphs by one breadth-first numbering, subgroup
membership by breadth-first enumeration over normal forms or by
re-running the graph fixpoint on a glued query path, membership queries,
normal forms and y-words element by element, geodesic spellings of
finite-factor elements by breadth-first search (a coset key as a min
over the loop subgroup, a y-letter as a table product), monochromatic
components and spanning trees by plain breadth-first search with a queue
over the canonical pairs, walks of a word by a map of the pairs' slots,
saturation defects by a set of the pairs' slots, eligibility verdicts by
listing the defects of each component that is not a tree, coset keys and
the based fixpoint one component subgraph at a time or by a full rescan
each round, the embedding of a y-component in its coset graph with
cosets as element sets, kernel generating sets by the Schreier
transversal construction, words by one regex match per term, the folded
wedge through a canonical pair set, with or without each y-run's
vertices of one prefix element merged, and the Kurosh decomposition
through pair sets, set differences and that breadth-first search, and a
Kurosh decomposition's factor intersections on a ball: every conjugate
of a short factor element tested for membership.

Not oracles: ``make_graph`` and ``build_graph`` assemble a test graph
from edge pairs, a ``RawGraph`` when they do not spell an adjacency,
which ``fold_pairs`` folds; and ``decompose`` records a problem's
eligibility verdict and Kurosh decomposition as JSON data, for the
Kurosh pins (``test_kurosh_pins.py``) and the byte-identity corpus
(``corpus_outputs.py``); ``free_reduce``, ``generator_element`` and
``letter_element`` are the plain word and letter helpers that the
element-by-element oracles build on.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import product

from altsep import kurosh, permgroup
from altsep.cli import MAX_NUMBER_DIGITS, MAX_WORD_LENGTH, ProblemFormatError
from altsep.factors import NotGBasedError, component_cosets, subgroup_closure
from altsep.graphs import (
    LabeledGraph,
    _pair_key,
    _write_pairs,
    component_graph,
    components,
    fold,
)
from altsep.kurosh import KuroshDecomposition, KuroshFactor
from altsep.subgroups import (
    MembershipTester,
    VERDICT_DEFICIENT,
    VERDICT_NOT_APPLICABLE,
    VERDICT_TREES,
    based_fixpoint,
    build_subgroup_graph,
    hypothesis_check,
)
from altsep.words import (
    Letter,
    word_inverse,
    word_str,
    x_alphabet,
    x_letter,
    y_alphabet,
    y_letter,
)


# -- permutation groups -------------------------------------------------------


def exhaustive_closure(gens, degree):
    """All elements of the generated group, by plain closure."""
    identity = permgroup.identity_perm(degree)
    seen = {identity}
    queue = deque([identity])
    while queue:
        current = queue.popleft()
        for g in gens:
            nxt = tuple(g[i] for i in current)  # current, then g
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


# -- graph construction ---------------------------------------------------------


def canonical_pair(source: int, target: int, letter: Letter):
    """Orient an edge so its letter has positive sign."""
    if letter.sign < 0:
        return (target, source, letter.inverse())
    return (source, target, letter)


@dataclass(frozen=True)
class RawGraph:
    """A test graph whose edge pairs need not spell an adjacency: two of
    them may claim one slot.  ``fold_pairs`` folds it."""

    vertices: frozenset
    pairs: tuple  # canonical pairs, in the order ``fold_pairs`` writes them
    base: int


def make_graph(vertices, pairs, base):
    """The graph canonical pairs spell, or a RawGraph of them when two
    claim one slot."""
    out = {v: {} for v in vertices}
    pairs = tuple(pairs)
    if _write_pairs(out, pairs):
        return RawGraph(frozenset(out), pairs, base)
    return LabeledGraph(out, base)


def fold_pairs(graph, merge=()):
    """``graphs.fold`` of a LabeledGraph or a RawGraph: a RawGraph's pairs
    are written into empty slots by ``_write_pairs``, and each clash it
    returns becomes two merge pairs after ``merge``, as the subgroup
    wedge's do: each end of the clashing edge with the target of its slot
    there (the end itself when the slot is empty)."""
    if isinstance(graph, LabeledGraph):
        return fold(graph, merge)
    out = {v: {} for v in graph.vertices}
    merge = list(merge)
    for u, w, letter in _write_pairs(out, graph.pairs):
        merge += (out[u].get(letter, w), w), (out[w].get(letter.inverse(), u), u)
    return fold(LabeledGraph(out, graph.base), merge)


def build_graph(vertices, edges, base):
    """``make_graph`` of declared vertices and (source, target, letter)
    edges; each listed edge also carries its involution partner.

    Listing the same edge pair twice (directly or via its inverse
    orientation) is rejected.
    """
    vertex_set = frozenset(vertices)
    if base not in vertex_set:
        raise ValueError(f"base {base!r} is not a declared vertex")
    pairs = set()
    for source, target, letter in edges:
        if source not in vertex_set or target not in vertex_set:
            raise ValueError(f"edge ({source}, {target}, {letter}) uses an undeclared vertex")
        pair = canonical_pair(source, target, letter)
        if pair in pairs:
            raise ValueError(f"duplicate edge {pair[0]} --{pair[2]}--> {pair[1]}")
        pairs.add(pair)
    return make_graph(vertex_set, pairs, base)


# -- graph shape ----------------------------------------------------------------


def orbits_oracle(gens, degree):
    """Orbits of a permutation group by union-find over the pairs (i, g(i))
    of its generators, in ``permgroup.orbit_transitive``'s order, and
    whether there is just one."""
    parent = list(range(degree))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in gens:
        for i, j in enumerate(g):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(degree):
        groups.setdefault(find(i), []).append(i)
    orbits = [tuple(groups[root]) for root in sorted(groups)]
    return orbits, len(orbits) == 1


def slot_targets(graph: LabeledGraph):
    """(vertex, letter) -> target, both orientations of each canonical
    pair."""
    targets = {}
    for u, w, letter in graph.pairs:
        targets[u, letter] = w
        targets[w, letter.inverse()] = u
    return targets


def bfs_tree(graph: LabeledGraph, root, letters):
    """Breadth-first tree at ``root`` with a queue, following the edges
    labeled by ``letters`` in that order, read off the canonical pairs.
    Returns (discovery order, parent): parent maps each reached vertex but
    the root to (parent vertex, letter of the edge parent -> vertex)."""
    targets = slot_targets(graph)
    order, parent = [root], {}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for letter in letters:
            w = targets.get((v, letter))
            if w is not None and w != root and w not in parent:
                parent[w] = (v, letter)
                order.append(w)
                queue.append(w)
    return order, parent


def tree_word(parent, vertex):
    """Label of the path of ``bfs_tree``'s tree from its root to ``vertex``."""
    word = ()
    while vertex in parent:
        vertex, letter = parent[vertex]
        word = (letter,) + word
    return word


def walk_oracle(targets, start, word):
    """End of the path ``word`` spells from ``start`` in a graph's
    ``slot_targets``; None where a letter has no edge."""
    current = start
    for letter in word:
        current = targets.get((current, letter))
        if current is None:
            return None
    return current


def is_connected(graph: LabeledGraph) -> bool:
    order, _ = bfs_tree(graph, graph.base, sorted_letters(graph))
    return len(order) == len(graph.vertices)


def sorted_letters(graph: LabeledGraph):
    """Every letter of the graph, sorted x-first, ascending index,
    positive sign first."""
    return sorted({letter for slots in graph.out.values() for letter in slots},
                  key=lambda l: l.sort_key)


def canonical_form(graph: LabeledGraph):
    """Canonical relabeling of a connected folded based graph.

    Two such graphs are isomorphic as based labeled graphs exactly when
    their canonical forms are equal (folded based graphs are rigid, so the
    letter-ordered BFS numbering is a complete invariant).
    """
    order, _ = bfs_tree(graph, graph.base, sorted_letters(graph))
    if len(order) != len(graph.vertices):
        raise ValueError("canonical_form requires a connected graph")
    number = {v: i for i, v in enumerate(order)}
    pairs = sorted(
        (canonical_pair(number[u], number[w], letter) for u, w, letter in graph.pairs),
        key=_pair_key,
    )
    return (len(order), tuple((u, w, str(letter)) for u, w, letter in pairs))


# -- folding ------------------------------------------------------------------


def is_folded(vertices, pairs) -> bool:
    """Whether no slot, a (vertex, letter), is claimed by two of the
    canonical pairs, each claiming one slot per orientation: a set of the
    slots seen so far."""
    seen = set()
    for u, w, letter in pairs:
        for s, _, lab in ((u, w, letter), (w, u, letter.inverse())):
            key = (s, lab)
            if key in seen:
                return False
            seen.add(key)
    return True


def fold_violations(graph: LabeledGraph):
    """All (vertex, letter, target pair) conflicts: two distinct outgoing
    edges with one label."""
    slots = {}
    for u, w, letter in sorted(graph.pairs, key=lambda p: (p[0], p[2].sort_key, p[1])):
        for s, t, lab in ((u, w, letter), (w, u, letter.inverse())):
            slots.setdefault((s, lab), []).append(t)
    return [
        (s, lab, targets) for (s, lab), targets in sorted(
            slots.items(), key=lambda item: (item[0][0], item[0][1].sort_key)
        ) if len(set(targets)) > 1
    ]


def merge_vertices(graph: LabeledGraph, groups):
    """Quotient by merging each group of vertices, naming every class by
    its least vertex, with explicit class sets; the result is not folded
    in general."""
    classes = {v: frozenset([v]) for v in graph.vertices}
    for group in groups:
        merged = frozenset().union(*(classes[v] for v in group))
        for v in merged:
            classes[v] = merged
    name = {v: min(members) for v, members in classes.items()}
    pairs = {canonical_pair(name[u], name[w], letter) for u, w, letter in graph.pairs}
    return make_graph(name.values(), pairs, name[graph.base])


def fold_step(graph: LabeledGraph, violation):
    """Perform one fold: merge two targets of a violating slot."""
    _s, _lab, targets = violation
    return merge_vertices(graph, [sorted(set(targets))[:2]])


def random_fold(graph: LabeledGraph, rng):
    """Fold to completion, choosing each fold uniformly at random."""
    while True:
        violations = fold_violations(graph)
        if not violations:
            break
        graph = fold_step(graph, rng.choice(violations))
    assert isinstance(graph, LabeledGraph)
    return graph


def all_fold_results(graph: LabeledGraph, limit=200000):
    """Canonical forms of every maximal fold sequence (exhaustive search)."""
    results = set()
    stack = [graph]
    steps = 0
    while stack:
        current = stack.pop()
        violations = fold_violations(current)
        if not violations:
            results.add(canonical_form(current))
            continue
        for violation in violations:
            steps += 1
            if steps > limit:
                raise RuntimeError("fold search exploded")
            stack.append(fold_step(current, violation))
    return results


# -- components ------------------------------------------------------------------


def bfs_components(graph: LabeledGraph, factor):
    """Monochromatic components by breadth-first search from each unvisited
    vertex in ascending order; returns (members, pairs, anchor) triples in
    the order ``graphs.components`` promises."""
    own = [pair for pair in graph.pairs if pair[2].factor == factor]
    neighbours = {v: [] for v in graph.vertices}
    for u, w, _letter in own:
        neighbours[u].append(w)
        neighbours[w].append(u)
    seen = set()
    out = []
    for start in sorted(graph.vertices):
        if start in seen or not neighbours[start]:
            continue
        seen.add(start)
        members = {start}
        queue = deque([start])
        while queue:
            for w in neighbours[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    members.add(w)
                    queue.append(w)
        pairs = frozenset(pair for pair in own if pair[0] in members)
        anchor = graph.base if graph.base in members else start
        out.append((frozenset(members), pairs, anchor))
    return out


def component_subgraphs(graph: LabeledGraph, factor):
    """``bfs_components`` as (subgraph, anchor) pairs: each subgraph keeps
    the original vertex ids and is based at its anchor."""
    return [(make_graph(members, pairs, anchor), anchor)
            for members, pairs, anchor in bfs_components(graph, factor)]


def is_tree(graph: LabeledGraph) -> bool:
    """A connected graph is a tree iff its edge-pair count is |V| - 1."""
    return len(graph.pairs) == len(graph.vertices) - 1


@dataclass(frozen=True)
class SaturationDefect:
    vertex: int
    missing: Letter


def saturation_defects(graph: LabeledGraph, alphabet):
    """All (vertex, letter) gaps: letters of the alphabet with no outgoing
    edge at a vertex, read off the pairs one orientation at a time."""
    present = {(s, lab) for u, w, letter in graph.pairs
               for s, lab in ((u, letter), (w, letter.inverse()))}
    return [SaturationDefect(v, letter) for v in sorted(graph.vertices)
            for letter in sorted(alphabet, key=lambda l: l.sort_key)
            if (v, letter) not in present]


def hypothesis_oracle(graph: LabeledGraph, rank):
    """The eligibility verdict by the defect rule: the x-components that
    are not trees, by ``bfs_components``; the first of them with a
    saturation defect is the witness.  Returns (kind, witness subgraph or
    None)."""
    cyclic = [sub for sub, _anchor in component_subgraphs(graph, "x") if not is_tree(sub)]
    if not cyclic:
        return VERDICT_TREES, None
    for sub in cyclic:
        if saturation_defects(sub, x_alphabet(rank)):
            return VERDICT_DEFICIENT, sub
    return VERDICT_NOT_APPLICABLE, None


def spanning_tree(graph: LabeledGraph):
    """Breadth-first spanning tree at the base point.

    Returns (discovery order, parent, tree pairs): order and parent as from
    ``bfs_tree``, and the tree edges as canonical pairs.  Raises
    ValueError when the graph is not connected.
    """
    order, parent = bfs_tree(graph, graph.base, sorted_letters(graph))
    if len(order) != len(graph.vertices):
        raise ValueError("graph must be connected")
    tree = {canonical_pair(u, v, letter) for v, (u, letter) in parent.items()}
    return order, parent, tree


# -- coset keys and the based fixpoint, one component at a time ----------------


def component_cosets_oracle(table, component: LabeledGraph):
    """Loop subgroup K of one y-component, read at its base point from a
    spanning tree, and the coset key min(K*g) of each vertex, g the label
    of its tree path."""
    order, parent, tree = spanning_tree(component)
    reach = {component.base: table.identity}
    for v in order[1:]:
        u, letter = parent[v]
        reach[v] = table.multiply(reach[u], letter_element(table, letter))
    loops = [
        table.multiply(
            table.multiply(reach[u], letter_element(table, letter)),
            table.inverse(reach[w]),
        )
        for u, w, letter in component.pairs - tree
    ]
    subgroup = subgroup_closure(table, loops)
    assignment = {
        v: min(table.multiply(k, g) for k in subgroup) for v, g in reach.items()
    }
    return subgroup, assignment


def coset_graph_oracle(table, subgroup):
    """Coset graph of the finite factor relative to a subgroup K, with
    each right coset Kg built as a set of elements, breadth-first over the
    generators: vertices are the cosets, base K, and one edge
    Kg --y--> Kgy per generator.  Returns (graph, coset_of), coset_of
    mapping each element to its coset's vertex."""
    cosets = [frozenset(subgroup)]
    number = {cosets[0]: 0}
    pairs = set()
    for coset in cosets:  # grows while it is read: breadth-first order
        for j in range(1, table.num_generators + 1):
            image = frozenset(table.multiply(e, generator_element(table, j)) for e in coset)
            if image not in number:
                number[image] = len(cosets)
                cosets.append(image)
            pairs.add((number[coset], number[image], y_letter(j)))
    coset_of = {e: number[coset] for coset in cosets for e in coset}
    return make_graph(range(len(cosets)), pairs, 0), coset_of


def embed_Y_component(table, component: LabeledGraph):
    """Embed a connected folded y-component into the coset graph of the
    subgroup K generated by its loop labels.

    Returns (cover, embedding).  Raises NotGBasedError when two vertices
    land on the same coset, i.e. some identity-label path is not closed,
    and ValueError when the component is not connected.
    """
    subgroup, keys = component_cosets_oracle(table, component)
    cover, coset_of = coset_graph_oracle(table, subgroup)
    embedding = {v: coset_of[key] for v, key in keys.items()}
    if len(set(embedding.values())) != len(embedding):
        raise NotGBasedError(
            "two vertices of the component land on the same coset; "
            "an identity-labeled path is not closed")
    return cover, embedding


def wedge_graph(base, words, open_words):
    """The folded wedge of ``subgroups._wedge`` through a pair set: every
    edge as a canonical pair in one frozenset, an unfolded graph of them,
    and ``fold``.  Returns (folded wedge, end vertex of each open path in
    it)."""
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
    pairs = frozenset(canonical_pair(u, w, letter) for u, w, letter in pairs)
    graph, vmap = fold_pairs(RawGraph(frozenset(vertices), pairs, base))
    return graph, tuple(vmap[v] for v in ends)


def run_wedge_graph(base, words, open_words, table):
    """The folded wedge of ``subgroups._wedge``: the plain wedge of
    ``wedge_graph``, one vertex per letter, folded with each y-run's
    vertices of one prefix element merged.  A run starts at the base or
    at the end of an x-letter and takes each y-letter after it; its
    prefix elements are permutations, composed from the identity with
    ``permgroup.compose`` over ``table.elements``.  A loop's last vertex
    is the base.  Returns (folded wedge, end vertex of each open path in
    it)."""
    identity = permgroup.identity_perm(table.degree)
    vertices = {base}
    pairs = []
    groups = []
    next_id = base + 1
    ends = []
    for word, closes in [(word, True) for word in words] + [(word, False) for word in open_words]:
        current = base
        run = {identity: [base]}  # prefix element -> the run's vertices with it
        element = identity
        for i, letter in enumerate(word):
            if closes and i == len(word) - 1:
                target = base
            else:
                target = next_id
                next_id += 1
            vertices.add(target)
            pairs.append(canonical_pair(current, target, letter))
            if letter.factor == "x":
                groups.extend(run.values())
                run, element = {}, identity
            else:
                perm = table.elements[generator_element(table, letter.index)]
                element = permgroup.compose(
                    element, perm if letter.sign > 0 else permgroup.inverse(perm))
            run.setdefault(element, []).append(target)
            current = target
        groups.extend(run.values())
        if not closes:
            ends.append(current)
    merge = [group for group in groups if len(group) > 1]
    graph, vmap = fold_pairs(RawGraph(frozenset(vertices), frozenset(pairs), base), merge=merge)
    return graph, tuple(vmap[v] for v in ends)


def based_fixpoint_oracle(graph, table, tracked=()):
    """``subgroups.based_fixpoint`` with its coset groups found one
    y-component subgraph at a time."""
    tracked = list(tracked)
    groups = ()
    while True:
        graph, vmap = fold(graph, groups)
        tracked = [vmap[v] for v in tracked]
        groups = []
        for component, _anchor in component_subgraphs(graph, "y"):
            _subgroup, assignment = component_cosets_oracle(table, component)
            buckets = {}
            for v, key in assignment.items():
                buckets.setdefault(key, []).append(v)
            groups.extend(group for group in buckets.values() if len(group) > 1)
        if not groups:
            return graph, tuple(tracked)


def based_fixpoint_full_rescan(graph, table, tracked=()):
    """``subgroups.based_fixpoint`` with every round scanning every
    y-component of the whole graph for coset groups."""
    tracked = list(tracked)
    groups = ()
    while True:
        graph, vmap = fold(graph, groups)
        tracked = [vmap[v] for v in tracked]
        groups = []
        for _subgroup, keys in component_cosets(table, graph):
            buckets = {}
            for v, key in keys.items():
                buckets.setdefault(key, []).append(v)
            groups.extend(group for group in buckets.values() if len(group) > 1)
        if not groups:
            return graph, tuple(tracked)


# -- ambient group arithmetic ---------------------------------------------------


@cache
def geodesic_words(table):
    """Shortest generator word per element of a finite factor, by
    breadth-first search with the fixed letter order y1, y1^-1, y2, ...;
    ties break toward earlier letters."""
    steps = [(letter, table.steps[letter]) for letter in y_alphabet(table.num_generators)]
    words = {table.identity: ()}
    queue = deque([table.identity])
    while queue:
        current = queue.popleft()
        for letter, step in steps:
            target = step[current]
            if target not in words:
                words[target] = words[current] + (letter,)
                queue.append(target)
    if len(words) != table.order:
        raise AssertionError("generators do not generate the closed table")
    return words


def element_word(table, element):
    return geodesic_words(table)[element]


def spell(form, table):
    """Spell a normal form back into a word, using geodesic spellings for
    finite-factor syllables."""
    letters = []
    for tag, value in form:
        if tag == "x":
            letters.extend(value)
        else:
            letters.extend(element_word(table, value))
    return tuple(letters)


def nf_mul(a, b, table):
    return normal_form_oracle(spell(a, table) + spell(b, table), table)


def iter_reduced_x_words(rank, max_len):
    alphabet = []
    for i in range(1, rank + 1):
        alphabet.append(x_letter(i))
        alphabet.append(x_letter(i, -1))
    frontier = [(letter,) for letter in alphabet]
    for word in frontier:
        yield word
    for _ in range(max_len - 1):
        grown = []
        for word in frontier:
            for letter in alphabet:
                if letter != word[-1].inverse():
                    grown.append(word + (letter,))
        yield from grown
        frontier = grown


def iter_ball(rank, table, max_len):
    """Every element of the ambient free product with normal-form letter
    length at most max_len, as a normal form (identity included)."""
    x_by_len = {}
    for word in iter_reduced_x_words(rank, max_len):
        x_by_len.setdefault(len(word), []).append(("x", word))
    y_by_len = {}
    for element in range(1, table.order):
        length = len(element_word(table, element))
        if length <= max_len:
            y_by_len.setdefault(length, []).append(("y", element))

    def extend(prefix, used, last):
        yield tuple(prefix)
        pools = []
        if last != "x":
            pools.append(x_by_len)
        if last != "y":
            pools.append(y_by_len)
        for pool in pools:
            for length in sorted(pool):
                if used + length > max_len:
                    continue
                for syllable in pool[length]:
                    prefix.append(syllable)
                    yield from extend(prefix, used + length, syllable[0])
                    prefix.pop()

    yield from extend([], 0, None)


def subgroup_ball(table, generator_words, max_len, hard_cap=60):
    """Normal forms of subgroup elements with letter length <= max_len.

    Breadth-first closure under the generators, truncated at a working cap
    on intermediate lengths; the cap grows until the answer set within the
    target ball stabilizes across an increase, which happens immediately
    for every fixture here (products of short generators stay short).
    """
    gens = []
    for word in generator_words:
        gens.append(normal_form_oracle(word, table))
        gens.append(normal_form_oracle(word_inverse(word), table))
    base = max([max_len] + [len(spell(g, table)) for g in gens])
    cap = base + 2
    previous = None
    while True:
        seen = {(): None}
        queue = deque([()])
        while queue:
            current = queue.popleft()
            for g in gens:
                nxt = nf_mul(current, g, table)
                if nxt not in seen and len(spell(nxt, table)) <= cap:
                    seen[nxt] = None
                    queue.append(nxt)
        answer = frozenset(f for f in seen if len(spell(f, table)) <= max_len)
        if answer == previous:
            return answer
        previous = answer
        cap += 2
        if cap > hard_cap:
            raise RuntimeError("subgroup ball failed to stabilize")


def random_raw_word(rng, rank, num_ygens, max_len, min_len=0):
    alphabet = []
    for i in range(1, rank + 1):
        alphabet.append(x_letter(i))
        alphabet.append(x_letter(i, -1))
    for j in range(1, num_ygens + 1):
        alphabet.append(y_letter(j))
        alphabet.append(y_letter(j, -1))
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(min_len, max_len)))


# -- membership by re-stabilisation ---------------------------------------------


def fixpoint_contains(graph: LabeledGraph, table, word):
    """Membership by re-stabilising: glue an open path for the word onto
    the base point and run the full fold/identify fixpoint.  The stable
    graph never has two of its own vertices merged, so the word lies in
    the subgroup exactly when the path's end lands on the base point."""
    vertices = set(graph.vertices)
    pairs = set(graph.pairs)
    current = graph.base
    next_id = max(graph.vertices) + 1
    for letter in word:
        vertices.add(next_id)
        pairs.add(canonical_pair(current, next_id, letter))
        current = next_id
        next_id += 1
    folded, vmap = fold_pairs(RawGraph(frozenset(vertices), frozenset(pairs), graph.base))
    _stable, (base, end) = based_fixpoint(folded, table, (vmap[graph.base], vmap[current]))
    return base == end


# -- membership queries, element by element ------------------------------------


def free_reduce(word):
    """Cancel adjacent inverse letters until no cancellation applies."""
    stack = []
    for letter in word:
        if stack and stack[-1] == letter.inverse():
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def generator_element(table, index: int) -> int:
    """Element of the 1-based generator y<index>."""
    if not 1 <= index <= table.num_generators:
        raise ValueError(f"no generator y{index}")
    return table.generator_indices[index - 1]


def letter_element(table, letter) -> int:
    """Element of a y-letter, its generator's or that one's inverse."""
    element = generator_element(table, letter.index)
    return element if letter.sign > 0 else table.inverse(element)


def word_element_oracle(table, word):
    """``FiniteGroupTable.word_element`` as a fold of ``multiply`` over
    each letter's element, read by ``letter_element``."""
    out = table.identity
    for letter in word:
        if letter.factor != "y":
            raise ValueError(f"not a finite-factor letter: {letter}")
        out = table.multiply(out, letter_element(table, letter))
    return out


def normal_form_oracle(word, table):
    """Alternating syllable form of a word in the free product: a tuple of
    syllables ('x', letters) / ('y', element index), x-syllables freely
    reduced, y-syllables nonidentity elements, no two adjacent syllables
    from one factor; the empty tuple is the identity.  Each y-letter's
    element is read by ``letter_element`` and multiplied in by
    ``multiply``."""
    stack = []  # mutable entries ["x", [letters]] or ["y", element]
    for letter in word:
        if letter.factor == "x":
            if stack and stack[-1][0] == "x":
                run = stack[-1][1]
                if run and run[-1] == letter.inverse():
                    run.pop()
                    if not run:
                        stack.pop()
                else:
                    run.append(letter)
            else:
                stack.append(["x", [letter]])
        else:
            element = letter_element(table, letter)
            if stack and stack[-1][0] == "y":
                product = table.multiply(stack[-1][1], element)
                if product == table.identity:
                    stack.pop()
                else:
                    stack[-1][1] = product
            elif element != table.identity:
                stack.append(["y", element])
    return tuple(("x", tuple(run)) if tag == "x" else ("y", run) for tag, run in stack)


def contains_oracle(graph: LabeledGraph, table, word):
    """``MembershipTester.contains`` by ``walk_oracle`` along each x-syllable
    and, for a y-syllable g at a vertex keyed a on the coset K*a, the new
    key min(k*a*g for k in K) looked up among its component's keys.
    Raises ValueError for a graph that is not based, at once rather than
    at the first y-syllable."""
    cosets = {}
    for subgroup, keys in component_cosets(table, graph):
        at_key = {key: v for v, key in keys.items()}
        if len(at_key) != len(keys):
            raise ValueError("membership needs a based graph: two vertices "
                             "of a y-component lie on one coset")
        for v, key in keys.items():
            cosets[v] = (subgroup, key, at_key)
    targets = slot_targets(graph)
    current = graph.base
    for tag, syllable in normal_form_oracle(word, table):
        if tag == "x":
            current = walk_oracle(targets, current, syllable)
        elif current in cosets:
            subgroup, key, at_key = cosets[current]
            moved = table.multiply(key, syllable)
            current = at_key.get(min(table.multiply(k, moved) for k in subgroup))
        else:
            return False
        if current is None:
            return False
    return current == graph.base


# -- kernels of homomorphisms onto finite groups --------------------------------


def reidemeister_schreier(target, rank, num_ygens, x_images, y_images):
    """Generating words of the kernel of the homomorphism onto the finite
    group ``target`` sending x_i, y_j to the given element indices, via a
    breadth-first Schreier transversal."""
    letters = [x_letter(i) for i in range(1, rank + 1)]
    letters += [y_letter(j) for j in range(1, num_ygens + 1)]
    images = {}
    for letter, element in zip(letters, list(x_images) + list(y_images)):
        images[letter] = element
        images[letter.inverse()] = target.inverse(element)
    transversal = {target.identity: ()}
    order = [target.identity]
    queue = deque([target.identity])
    while queue:
        current = queue.popleft()
        for letter in letters:
            nxt = target.multiply(current, images[letter])
            if nxt not in transversal:
                transversal[nxt] = transversal[current] + (letter,)
                order.append(nxt)
                queue.append(nxt)
    generators = []
    seen = set()
    for rep in order:
        for letter in letters:
            image = target.multiply(rep, images[letter])
            word = free_reduce(
                transversal[rep] + (letter,) + word_inverse(transversal[image])
            )
            if word and word not in seen:
                seen.add(word)
                generators.append(word)
    return generators


# -- word grammar ---------------------------------------------------------------

_WORD_TERM_RE = re.compile(r"([xy])([0-9]+)(?:\^(-?[0-9]+))?$")  # ASCII digits, as cli's


def parse_word_oracle(text: str, rank: int, num_ygens: int, line: int):
    """``cli.parse_word`` as one regex match per term occurrence: the
    column of each term comes from its own match."""
    text = text.strip()
    if text == "1":
        return ()
    letters = []
    for term in re.finditer(r"\S+", text):
        token, column = term.group(), term.start() + 1
        match = _WORD_TERM_RE.match(token)
        if not match:
            raise ProblemFormatError(f"bad word term {token!r}", line, column)
        factor, index, exponent = match.group(1, 2, 3)
        if len(index) > MAX_NUMBER_DIGITS or len((exponent or "").lstrip("-")) > MAX_NUMBER_DIGITS:
            raise ProblemFormatError(
                f"generator index or exponent longer than {MAX_NUMBER_DIGITS} digits",
                line, column)
        index = int(index)
        exponent = 1 if exponent is None else int(exponent)
        limit = rank if factor == "x" else num_ygens
        if not 1 <= index <= limit:
            raise ProblemFormatError(f"unknown generator {factor}{index}", line, column)
        if len(letters) + abs(exponent) > MAX_WORD_LENGTH:
            raise ProblemFormatError(
                f"word longer than {MAX_WORD_LENGTH} letters", line, column)
        sign = 1 if exponent > 0 else -1
        base = x_letter(index, sign) if factor == "x" else y_letter(index, sign)
        letters.extend([base] * abs(exponent))
    return tuple(letters)


# -- Kurosh decomposition through pair sets --------------------------------------


def kurosh_oracle(graph: LabeledGraph, table) -> KuroshDecomposition:
    """``kurosh.kurosh_decompose`` through pair sets: the letters present
    read off the graph's pairs, each cyclic component made a graph by
    ``component_graph`` with its own breadth-first spanning tree as a set
    of canonical pairs, its loop words from the set difference, and
    ``delta`` the graph's pairs less the removed ones, checked connected
    by ``is_connected``."""
    letters = {"x": [], "y": []}
    for letter in sorted({pair[2] for pair in graph.pairs}, key=lambda l: l.sort_key):
        letters[letter.factor] += (letter, letter.inverse())
    order, parent = bfs_tree(graph, graph.base, letters["x"] + letters["y"])
    if len(order) != len(graph.vertices):
        raise ValueError("graph must be connected")
    discovery = {v: i for i, v in enumerate(order)}
    cyclic = [(min(members, key=discovery.__getitem__), members, factor)
              for factor in ("x", "y") for members, pairs in components(graph, factor)
              if pairs >= len(members)]
    cyclic.sort(key=lambda item: discovery[item[0]])

    factors = []
    removed = set()
    for anchor, members, factor in cyclic:
        component = component_graph(graph, members, factor, anchor)
        approach = tree_word(parent, anchor)
        _order, cparent = bfs_tree(graph, anchor, letters[factor])
        ctree = {canonical_pair(u, v, letter) for v, (u, letter) in cparent.items()}
        loop_words = []
        for u, w, letter in sorted(component.pairs - ctree, key=_pair_key):
            loop_words.append(tree_word(cparent, u) + (letter,)
                              + word_inverse(tree_word(cparent, w)))
            removed.add((u, w, letter))
        subgroup = None
        if factor == "y":
            subgroup = subgroup_closure(table, [table.word_element(w) for w in loop_words])
        factors.append(KuroshFactor(approach, component, factor, tuple(loop_words), subgroup))

    delta = make_graph(graph.vertices, graph.pairs - frozenset(removed), graph.base)
    if not is_connected(delta):
        raise AssertionError("pruned graph must stay connected")
    free_rank = len(delta.pairs) - len(delta.vertices) + 1
    return KuroshDecomposition(tuple(factors), free_rank, delta)


def assert_same_decomposition(got, expected):
    """Approach and loop words, each component's vertices, pairs and
    base, the finite subgroups, the free rank, and delta's vertices and
    pairs."""
    assert len(got.factors) == len(expected.factors)
    for mine, theirs in zip(got.factors, expected.factors):
        assert (mine.approach, mine.loop_words) == (theirs.approach, theirs.loop_words)
        assert (mine.factor, mine.subgroup) == (theirs.factor, theirs.subgroup)
        assert mine.component.vertices == theirs.component.vertices
        assert mine.component.pairs == theirs.component.pairs
        assert mine.component.base == theirs.component.base
    assert got.free_rank == expected.free_rank
    assert got.delta.vertices == expected.delta.vertices
    assert got.delta.pairs == expected.delta.pairs


def intersection_ball_oracle(graph: LabeledGraph, table, rank, decomposition, radius):
    """Counterexamples to each factor's intersection identity on a ball.

    For every nontrivial u of the factor's group with letter length at
    most ``radius`` (all of G for a finite-factor factor), the conjugate
    g u g^-1 by the approach word g must lie in the subgroup exactly when
    u is a loop label of the component.  Returns (conjugates checked,
    conjugates on which membership disagrees)."""
    tester = MembershipTester(graph, table)
    checked = 0
    counterexamples = []
    for factor in decomposition.factors:
        g, g_inv = factor.approach, word_inverse(factor.approach)
        if factor.factor == "x":
            targets = slot_targets(factor.component)
            candidates = ((u, walk_oracle(targets, factor.anchor, u) == factor.anchor)
                          for u in iter_reduced_x_words(rank, radius))
        else:
            candidates = ((element_word(table, element), element in factor.subgroup)
                          for element in range(1, table.order))
        for u, inside in candidates:
            checked += 1
            conjugate = g + u + g_inv
            if tester.contains(conjugate) != inside:
                counterexamples.append(conjugate)
    return checked, counterexamples


# -- recorded decompositions ------------------------------------------------------


def decomposition_record(verdict, decomposition) -> dict:
    """An eligibility verdict and a Kurosh decomposition as JSON data:
    the verdict kind and its witness's vertices, the free rank, and per
    factor its tag, anchor, approach word, loop words, component vertices
    and pair count, and, for a finite-factor one, its subgroup's element
    indices."""
    witness = verdict.witness
    return {
        "verdict": verdict.kind,
        "witness": None if witness is None else sorted(witness.vertices),
        "free_rank": decomposition.free_rank,
        "factors": [
            {"factor": f.factor, "anchor": f.anchor, "approach": word_str(f.approach),
             "loop_words": [word_str(w) for w in f.loop_words],
             "vertices": sorted(f.component.vertices), "pairs": len(f.component.pairs),
             "subgroup": None if f.subgroup is None else sorted(f.subgroup)}
            for f in decomposition.factors
        ],
    }


def decompose(spec) -> dict:
    """``decomposition_record`` of a problem's subgroup graph, separator
    paths included."""
    graph = build_subgroup_graph(spec).graph
    verdict = hypothesis_check(graph, spec.free.rank)
    return decomposition_record(verdict, kurosh.kurosh_decompose(graph, spec.finite))


# -- misc -----------------------------------------------------------------------


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        for combo in product(alphabet, repeat=length):
            yield combo
