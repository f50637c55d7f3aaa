"""Separating covers of prime degree.

Given the subgroup's based graph and an eligibility verdict, build a
connected, fully saturated graph with a prime number p of vertices into
which the based graph embeds.  The group then acts on the p vertices by
edge-following; because one chosen generator ("move letter") moves fewer
than a fixed number of vertices while the action is transitive of prime
degree, the image is the full alternating or symmetric group once its
exact order says so.  The order check replaces any a-priori degree bound:
candidate primes are tried in ascending order until recognition succeeds.

The pipeline:

1. pick the host component: the verdict's deficient witness, else the
   first x-component (all are trees), else the bare base vertex;
2. embed every y-component into the coset graph of its loop subgroup K:
   its vertices keep their ids on the cosets their keys lie in, and the
   cosets it misses get fresh ids, so no vertex is merged.  The cosets
   each y-component misses give the cover's size, and a size past
   ``max_prime`` - 5 stops the run before K's cosets are enumerated (once
   per K per table, ``factors.coset_action``).  Complete every other
   x-component in place;
3. pick a prime p >= |V| + 5, bridge the host's missing connect-letter
   slots through a chain gadget of length p - |V| - 4 and a four-vertex
   mover gadget, and complete the host's x-structure: the bridges fill
   the gadgets' only open slots, so this completes host, chain and mover;
4. give every vertex with no edge of a factor that factor's one-vertex
   cover, a loop per generator, without adding vertices.

Steps 2-4 write the cover into one adjacency through the slot writer of
``graphs``: an edge that finds a slot taken fails the immersion
condition, and the cover is saturated once every vertex has a slot for
every letter.  Recognition runs on the generators' permutations read off
the adjacency.  Step 4 writes its loops into fresh slot dicts, leaving
step 3's adjacency as the precover; only for the accepted prime is each
stage graph (``component_covers``, ``precover``, ``cover``) made a
``LabeledGraph`` of its adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .factors import NotGBasedError, component_cosets, coset_action
from .graphs import LabeledGraph, _write_pairs, components
from . import permgroup
from .subgroups import (
    ProblemSpec,
    VERDICT_DEFICIENT,
    VERDICT_NOT_APPLICABLE,
    HypothesisVerdict,
)
from .words import x_alphabet, x_letter, y_alphabet

DEFAULT_MAX_PRIME = 100000  # the largest prime degree tried by default


class HypothesisNotSatisfiedError(Exception):
    """The eligibility check ruled the construction out."""


class CoverSearchExhaustedError(Exception):
    """No prime up to the cap produced a recognized image."""


@dataclass(frozen=True)
class GadgetParams:
    signs: tuple
    connect_letter: int
    move_letter: int


@dataclass(frozen=True)
class CoverPlan:
    base_size: int
    degree: int
    chain_length: int

    def __post_init__(self):
        if self.degree != self.base_size + self.chain_length + 4:
            raise ValueError("degree must be base size + chain length + 4")
        if self.chain_length < 1:
            raise ValueError("chain length must be positive")
        if not _is_prime(self.degree):
            raise ValueError(f"{self.degree} is not prime")


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def choose_prime(base_size: int):
    """Plans with successive primes p >= base_size + 5, ascending."""
    if base_size < 1:
        raise ValueError("base size must be positive")
    p = base_size + 5
    while True:
        if _is_prime(p):
            yield CoverPlan(base_size, p, p - base_size - 4)
        p += 1


def chain_gadget(length: int, rank: int, connect: int) -> LabeledGraph:
    """Interval of ``length`` vertices joined by connect-letter edges, with
    a loop at every vertex for every other x-generator, so that every
    non-connect generator fixes all its vertices.  The only saturation
    gaps are the missing connect-inverse at the first vertex and the
    missing connect at the last."""
    if length < 1 or rank < 2 or not 1 <= connect <= rank:
        raise ValueError("bad chain gadget parameters")
    out = {j: {} for j in range(length)}
    _immerse(out, [(j, j + 1, x_letter(connect)) for j in range(length - 1)]
             + [(j, j, x_letter(i)) for i in range(1, rank + 1) if i != connect
                for j in range(length)])
    return LabeledGraph(out, 0)


def mover_gadget(signs, rank: int, connect: int, move: int) -> LabeledGraph:
    """Four-vertex block (v1..v4 = 0..3) with one connect edge v1 -> v2,
    arranged so the move letter permutes its vertices nontrivially and the
    only saturation gaps are the missing connect-inverse at v1 and the
    missing connect at v2.

    Per generator i: for i outside {connect, move}, loops at v1 and v2;
    for i != move, sign +1 gives loops at v3 and v4, sign -1 a double edge
    v3 <-> v4; the move letter gives edge pairs v1 <-> v3 and v2 <-> v4 on
    sign +1, and a directed 4-cycle v1 v2 v3 v4 on sign -1."""
    signs = tuple(signs)
    if len(signs) != rank:
        raise ValueError("need one sign per x-generator")
    if connect == move:
        raise ValueError("connect and move letters must differ")
    if not (1 <= connect <= rank and 1 <= move <= rank):
        raise ValueError("letters out of range")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    v1, v2, v3, v4 = 0, 1, 2, 3
    pairs = [(v1, v2, x_letter(connect))]
    for i in range(1, rank + 1):
        letter = x_letter(i)
        if i not in (connect, move):
            pairs += [(v1, v1, letter), (v2, v2, letter)]
        if i != move:
            pairs += ([(v3, v3, letter), (v4, v4, letter)] if signs[i - 1] == 1
                      else [(v3, v4, letter), (v4, v3, letter)])
    letter = x_letter(move)
    if signs[move - 1] == 1:
        pairs += [(v1, v3, letter), (v3, v1, letter), (v2, v4, letter), (v4, v2, letter)]
    else:
        pairs += [(v1, v2, letter), (v2, v3, letter), (v3, v4, letter), (v4, v1, letter)]
    out = {v: {} for v in range(4)}
    _immerse(out, pairs)
    return LabeledGraph(out, 0)


def word_action(images, word, point: int) -> int:
    """Image of a point under a word, through the generator actions.  Each
    generator is inverted at most once per call."""
    inverses = {}
    for letter in word:
        name = f"{letter.factor}{letter.index}"
        if letter.sign > 0:
            perm = images[name]
        else:
            perm = inverses.get(name)
            if perm is None:
                perm = inverses[name] = permgroup.inverse(images[name])
        point = perm[point]
    return point


@dataclass
class SeparatingCover:
    """The accepted cover and what the certificate reads of it.  The
    images act on the points 0..p-1, and ``positions`` maps each cover
    vertex to its point, in ascending vertex order; ``plan`` gives the
    cover's size after step 2 (its base size) and after step 4 (its
    degree)."""

    cover: LabeledGraph  # the based graph's vertices keep their ids
    plan: CoverPlan
    params: GadgetParams
    positions: dict
    images: dict
    image_type: str
    retries: int
    stages: dict
    move_support: int


def _pick_attachment(defects):
    """First defect fixes the connect letter; its partner missing the
    inverse letter is the lowest-id vertex, preferring one distinct from
    the first.

    Takes (vertex, missing letter) pairs in ascending order and returns
    (connect index, needs_out vertex a, needs_in vertex b): a is missing
    the outgoing connect letter, b the outgoing inverse."""
    first, letter = defects[0]
    partners = [v for v, missing in defects if missing == letter.inverse()]
    partner = next((v for v in partners if v != first), partners[0])
    a, b = (first, partner) if letter.sign > 0 else (partner, first)
    return letter.index, a, b


def build_separating_cover(
    spec: ProblemSpec,
    graph: LabeledGraph,
    verdict: HypothesisVerdict,
    signs=None,
    max_prime: int = DEFAULT_MAX_PRIME,
) -> SeparatingCover:
    """Run the four-step pipeline, retrying over ascending primes until the
    vertex action is recognized as alternating or symmetric."""
    if verdict.kind == VERDICT_NOT_APPLICABLE:
        raise HypothesisNotSatisfiedError(verdict.reason)
    table = spec.finite
    rank = spec.free.rank
    if signs is None:
        signs = (1,) * rank
    signs = tuple(signs)
    if len(signs) != rank:
        raise ValueError(f"sign vector must have length {rank}")

    # Step 1: host component.  The component list also holds the x-components
    # step 2 completes.
    xcomps = components(graph, "x")
    if verdict.kind == VERDICT_DEFICIENT:
        host_vertices = verdict.witness.vertices
    else:
        host_vertices = frozenset(xcomps[0][0] if xcomps else [graph.base])

    # Step 2: component covers, written into a copy of the based graph's
    # adjacency.  Every based-graph vertex keeps its id; coset c of a
    # y-component's cover is the vertex whose key lies in c, else the
    # fresh id offset + c.  Each y-component adds the cosets it misses, so
    # the cover's size is known before anything is written, and every
    # plan's degree is at least that size + 5.
    cosets = component_cosets(table, graph, sorted(graph.vertices))
    size = len(graph.vertices) + sum(table.order // len(subgroup) - len(keys)
                                     for subgroup, keys in cosets)
    if size + 5 > max_prime:
        raise CoverSearchExhaustedError(
            f"no recognized cover with prime degree <= {max_prime}")
    out = {v: dict(slots) for v, slots in graph.out.items()}
    offset = max(graph.vertices) + 1
    xs, ys = x_alphabet(rank)[::2], y_alphabet(table.num_generators)[::2]  # positive letters
    for subgroup, keys in cosets:
        element_to_coset, moves = coset_action(table, subgroup)
        if len(set(keys.values())) != len(keys):
            raise NotGBasedError(
                "two vertices of the component land on the same coset; "
                "an identity-labeled path is not closed")
        name = list(range(offset, offset + table.order // len(subgroup)))
        for v, key in keys.items():
            name[element_to_coset[key]] = v
        out.update((v, {}) for v in name if v not in out)
        _immerse(out, [(name[c], name[d], letter)
                       for letter, move in zip(ys, moves) for c, d in enumerate(move)])
        offset += len(name)
    for members, _pairs in xcomps:
        if members[0] not in host_vertices:  # components are disjoint
            _complete(out, members, xs)

    # Step 2 wrote no x-edge at a host vertex: its gaps are the based graph's.
    defects = [(v, letter) for v in sorted(host_vertices) for letter in x_alphabet(rank)
               if letter not in out[v]]
    if not defects:
        raise AssertionError("host component has no saturation gap to attach to")
    connect, a, b = _pick_attachment(defects)
    move = min(i for i in range(1, rank + 1) if i != connect)

    params = GadgetParams(signs, connect, move)
    for retries, plan in enumerate(choose_prime(len(out))):
        if plan.degree > max_prime:
            raise CoverSearchExhaustedError(
                f"no recognized cover with prime degree <= {max_prime}")
        result = _attempt(spec, out, host_vertices, plan, params, a, b)
        if result is not None:
            precover_out, cover_out, positions, images, image_type, move_support = result
            cover = LabeledGraph(cover_out, graph.base)
            stages = {"component_covers": LabeledGraph(out, graph.base),
                      "precover": LabeledGraph(precover_out, graph.base), "cover": cover}
            return SeparatingCover(cover, plan, params, positions, images, image_type,
                                   retries, stages, move_support)


def _attempt(spec, glued, host_vertices, plan, params, a, b):
    """Steps 3 and 4 for one prime in a shallow copy of the glued
    adjacency, then recognition on the permutations read off the result.
    Returns None when the image is neither alternating nor symmetric,
    else the precover's and the cover's adjacencies and what the
    certificate reads; no stage graph is built either way."""
    table = spec.finite
    rank = spec.free.rank
    connect, move = params.connect_letter, params.move_letter
    out = dict(glued)
    out.update((v, dict(glued[v])) for v in host_vertices)

    # Step 3: bridge the gaps a -> chain -> mover -> b.  That fills the
    # gadgets' only open slots, so completing the host's x-structure
    # completes the connect component, host + chain + mover.  Of the glued
    # vertices it writes only the host's, so only those slots are copied.
    chain = chain_gadget(plan.chain_length, rank, connect)
    mover = mover_gadget(params.signs, rank, connect, move)
    off1 = max(glued) + 1
    off2 = off1 + plan.chain_length
    cl = x_letter(connect)
    out.update((v, {}) for v in range(off1, off2 + 4))
    _immerse(out, [(off1 + u, off1 + w, letter) for u, w, letter in chain.pairs])
    _immerse(out, [(off2 + u, off2 + w, letter) for u, w, letter in mover.pairs])
    _immerse(out, [(a, off1, cl), (off2 - 1, off2, cl), (off2 + 1, b, cl)])
    _complete(out, host_vertices, x_alphabet(rank)[::2])

    # Step 4: a vertex with no edge of a factor gets that factor's one-vertex
    # cover, a loop per generator, in fresh slots: step 3's adjacency is the precover.
    alphabets = (x_alphabet(rank), y_alphabet(table.num_generators))
    loops = [(v, v, letter) for alphabet in alphabets
             for v, slots in out.items() if slots.keys().isdisjoint(alphabet)
             for letter in alphabet[::2]]
    cover = dict(out)
    cover.update((v, dict(out[v])) for v in {v for v, _v, _letter in loops})
    _immerse(cover, loops)

    if len(cover) != plan.degree:
        raise AssertionError("final cover has the wrong number of vertices")
    letters = sum(map(len, alphabets))
    if any(len(slots) != letters for slots in cover.values()):
        raise AssertionError("final graph is not saturated")

    order = sorted(cover)
    position = {v: i for i, v in enumerate(order)}
    images = {str(letter): tuple(position[cover[v][letter]] for v in order)
              for alphabet in alphabets for letter in alphabet[::2]}
    if not permgroup.orbit_transitive(list(images.values()), plan.degree)[1]:
        raise AssertionError("final cover is not connected")
    move_support = len(permgroup.support(images[f"x{move}"]))
    if move_support >= plan.base_size + 5:
        raise AssertionError("move letter exceeds its support bound")
    image_type = permgroup.recognize_alt_sym(list(images.values()), plan.degree)
    if image_type == permgroup.OTHER:
        return None
    return out, cover, position, images, image_type, move_support


def _immerse(out, pairs):
    """Write canonical pairs into the cover's adjacency; a pair that finds
    a slot holding another edge fails the immersion condition."""
    clashes = _write_pairs(out, pairs)
    if clashes:
        u, w, letter = clashes[0]
        raise AssertionError(
            f"two {letter} edges share a slot at vertex {u} or {w}: "
            "the immersion condition fails")


def _complete(out, vertices, letters):
    """Extend each positive letter's partial injection on ``vertices`` to
    a permutation of them: the i-th vertex with no outgoing edge joins the
    i-th with no incoming edge, in ascending vertex order."""
    order = sorted(vertices)
    for letter in letters:
        inverse = letter.inverse()
        sources = [v for v in order if letter not in out[v]]
        targets = [v for v in order if inverse not in out[v]]
        if len(sources) != len(targets):
            raise AssertionError("partial injection is unbalanced")
        _immerse(out, [(s, t, letter) for s, t in zip(sources, targets)])

