"""Checks of altsep's outputs that trust nothing altsep computed.

``check_certificate`` re-derives every claim of a separation certificate
from the problem alone: prime degree, a homomorphism from G (through the
benchmark's own closure of G), base point and separations, transitivity,
parity, and the A_p/S_p claim by a Jordan witness.  ``check_decomposition``
checks a subgroup graph and its free-product decomposition against the
problem's quotient phi.  Both return a list of faults; empty means correct.
"""

from __future__ import annotations

import math
import random

from problems import (
    act, closure, compose, inverse, parse_cycles, parse_word, word_inverse,
)

# Random-walk steps allowed to find a Jordan witness.
WITNESS_BUDGET = 2000
WALK_LENGTH = 12


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def cycle_lengths(p):
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if not seen[i]:
            n = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                n += 1
            lengths.append(n)
    return lengths


def is_even(p) -> bool:
    return sum(n - 1 for n in cycle_lengths(p)) % 2 == 0


def jordan_prime(p, degree: int):
    """Prime q <= degree - 3 such that p has exactly one q-cycle and every
    other cycle length is coprime to q, or None.  A power of such a p is a
    q-cycle; a primitive group containing one contains A_degree (Jordan)."""
    lengths = cycle_lengths(p)
    for q in set(lengths):
        if q <= degree - 3 and is_prime(q) and lengths.count(q) == 1:
            if all(n == q or math.gcd(n, q) == 1 for n in lengths):
                return q
    return None


def find_jordan_witness(gens, degree: int, seed):
    """Seeded random walks over generator products, restarted every
    WALK_LENGTH steps; returns the q of the first Jordan witness, or None
    once WITNESS_BUDGET steps are spent."""
    rng = random.Random(seed)
    moves = list(gens) + [inverse(g) for g in gens]
    for step in range(WITNESS_BUDGET):
        if step % WALK_LENGTH == 0:
            element = tuple(range(degree))
        element = compose(element, rng.choice(moves))
        q = jordan_prime(element, degree)
        if q is not None:
            return q
    return None


def g_homomorphism_faults(ygens, sigmas):
    """Does y_j -> sigma_j extend to a homomorphism of G?  Builds G as the
    closure of its generators, names each element by the image of its
    breadth-first word, and checks image(a) sigma_j = image(a y_j)."""
    identity = tuple(range(len(ygens[0])))
    image = {identity: tuple(range(len(sigmas[0])))}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g, s in zip(ygens, sigmas):
                b = compose(a, g)
                if b not in image:
                    image[b] = compose(image[a], s)
                    nxt.append(b)
        frontier = nxt
    for a, ia in image.items():
        for j, (g, s) in enumerate(zip(ygens, sigmas), 1):
            if compose(ia, s) != image[compose(a, g)]:
                return [f"y{j} -> sigma_{j} does not extend to a homomorphism of G"]
    return []


def check_certificate(problem, cert: dict, seed) -> list:
    """Faults of a separation certificate for the problem (empty if none)."""
    degree = cert.get("degree")
    if not isinstance(degree, int) or not is_prime(degree) or cert.get("prime") is not True:
        return [f"degree {degree!r} is not a prime"]
    names = [f"x{i}" for i in range(1, problem.rank + 1)]
    names += [f"y{j}" for j in range(1, len(problem.ygens) + 1)]
    texts = cert.get("generator_images", {})
    if sorted(texts) != sorted(names):
        return [f"generator images for {sorted(texts)}, expected {sorted(names)}"]
    try:
        images = {name: parse_cycles(texts[name], degree) for name in names}
    except ValueError as err:
        return [f"bad generator image: {err}"]

    faults = g_homomorphism_faults(
        problem.ygens, [images[f"y{j}"] for j in range(1, len(problem.ygens) + 1)])

    base = cert.get("base_point", 0) - 1
    if not 0 <= base < degree:
        return faults + [f"base point {base + 1} outside 1..{degree}"]
    for i, h in enumerate(problem.subgroup, 1):
        if act(images, h, base) != base:
            faults.append(f"subgroup generator h{i} moves the base point")
    records = cert.get("separations", [])
    if len(records) != len(problem.separate):
        faults.append(f"{len(records)} separation records for {len(problem.separate)} words")
    for j, (g, record) in enumerate(zip(problem.separate, records), 1):
        end = act(images, g, base)
        if parse_word(record.get("word", "")) != g:
            faults.append(f"separation record {j} names another word")
        if end == base or record.get("separated") is not True:
            faults.append(f"g{j} fixes the base point")
        if record.get("base_image_vertex") != end + 1:
            faults.append(f"g{j} moves the base point to {end + 1}, "
                          f"not {record.get('base_image_vertex')}")

    gens = [images[name] for name in names]
    orbit = {0}
    frontier = [0]
    while frontier:
        frontier = [g[v] for v in frontier for g in gens if g[v] not in orbit]
        orbit.update(frontier)
    if len(orbit) != degree:
        faults.append("the image is not transitive")
        return faults

    expected = "alternating" if all(is_even(g) for g in gens) else "symmetric"
    if cert.get("image_type") != expected:
        faults.append(f"image_type {cert.get('image_type')!r} but generator parity says {expected}")
    if degree < 5 or find_jordan_witness(gens, degree, seed) is None:
        faults.append("no Jordan witness found: the A_p/S_p claim is unconfirmed")
    return faults


def read_word(adjacency, start, word):
    """End of the path labelled ``word`` from ``start``, or None if stuck."""
    v = start
    for letter in word:
        v = adjacency.get((v, letter))
        if v is None:
            return None
    return v


def _letter(letter):
    return (letter.factor, letter.index, letter.sign)


def adjacency_of(pairs):
    """(vertex, letter) -> target over both orientations; None if two edges
    with one label leave a vertex (the graph is not folded)."""
    adjacency = {}
    for u, w, letter in pairs:
        f, i, s = _letter(letter)
        for key, target in (((u, (f, i, s)), w), ((w, (f, i, -s)), u)):
            if adjacency.setdefault(key, target) != target:
                return None
    return adjacency


def _reached(adjacency, base):
    """Vertices reachable from the base, and every step (vertex, letter,
    target) out of a reached vertex, in breadth-first order."""
    out = {}
    for (v, letter), w in adjacency.items():
        out.setdefault(v, []).append((letter, w))
    seen = {base}
    steps = []
    frontier = [base]
    while frontier:
        nxt = []
        for v in frontier:
            for letter, w in out.get(v, ()):
                steps.append((v, letter, w))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen, steps


def check_decomposition(problem, graph, verdict_kind, decomposition, elements) -> list:
    """Faults of a subgroup graph and its Kurosh decomposition.

    The graph must be folded and connected, read every subgroup generator
    as a closed path at the base, and map onto phi's action: the base to
    point 0 and each edge to its letter's image.  Every conjugated factor
    loop must fix point 0 under phi, the pruned graph must keep all
    vertices connected with the stated free rank, and each finite factor's
    element set (indices into ``elements``, the enumerated G) must be a
    subgroup containing its loops."""
    vertices, pairs, base = graph.vertices, graph.pairs, graph.base
    adjacency = adjacency_of(pairs)
    if adjacency is None:
        return ["the subgroup graph is not folded"]
    faults = []
    for i, h in enumerate(problem.subgroup, 1):
        if read_word(adjacency, base, h) != base:
            faults.append(f"h{i} does not read a closed path at the base")
    seen, steps = _reached(adjacency, base)
    if len(seen) != len(vertices):
        faults.append("the subgroup graph is not connected")
    point = {base: 0}
    for v, letter, w in steps:
        target = act(problem.phi, (letter,), point[v])
        if point.setdefault(w, target) != target:
            faults.append("the subgroup graph does not map onto phi's action")
            break
    if verdict_kind not in ("all_components_trees", "deficient_component"):
        faults.append(f"verdict {verdict_kind!r}, but no subgroup generator uses x{problem.rank}")

    removed = 0
    for n, factor in enumerate(decomposition.factors, 1):
        approach = tuple(map(_letter, factor.approach))
        if read_word(adjacency, base, approach) != factor.component.base:
            faults.append(f"factor {n}: approach path does not reach its anchor")
        loops = [tuple(map(_letter, w)) for w in factor.loop_words]
        removed += len(loops)
        component = adjacency_of(factor.component.pairs)
        for loop in loops:
            if any(letter[0] != factor.factor for letter in loop):
                faults.append(f"factor {n}: loop word leaves its factor")
            if read_word(component, factor.component.base, loop) != factor.component.base:
                faults.append(f"factor {n}: loop word does not close at the anchor")
            if act(problem.phi, approach + loop + word_inverse(approach), 0) != 0:
                faults.append(f"factor {n}: a conjugated loop lies outside the subgroup")
        if factor.factor == "y":
            faults += _finite_factor_faults(n, problem, loops, {elements[e] for e in factor.subgroup})
    delta = decomposition.delta
    if removed != len(pairs) - len(delta.pairs) or not delta.pairs <= pairs:
        faults.append("the pruned graph does not drop exactly the factor loop edges")
    if len(_reached(adjacency_of(delta.pairs), base)[0]) != len(vertices):
        faults.append("the pruned graph is not connected")
    if decomposition.free_rank != len(delta.pairs) - len(vertices) + 1:
        faults.append("free rank differs from the pruned graph's cycle rank")
    return faults


def _finite_factor_faults(n, problem, loops, members):
    identity = tuple(range(problem.degree))
    if members != closure(list(members), identity):
        return [f"factor {n}: finite factor is not a subgroup"]
    for loop in loops:
        g = identity
        for _f, i, s in loop:
            y = problem.ygens[i - 1]
            g = compose(g, y if s > 0 else inverse(y))
        if g not in members:
            return [f"factor {n}: a loop's element lies outside the factor"]
    return []
