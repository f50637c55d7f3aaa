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

1. pick the host component (a deficient cyclic x-component, else any tree
   x-component, else the bare base vertex);
2. embed every y-component into its coset graph and glue that on by
   renaming: the embedding is injective, so every based-graph vertex keeps
   its id, the cosets it misses get fresh ids, and no vertex is merged;
   complete every other x-component in place;
3. pick a prime p >= |V| + 5, bridge the host's missing connect-letter
   slots through a chain gadget of length p - |V| - 4 and a four-vertex
   mover gadget, and complete the connect component's x-structure;
4. give every vertex with no edge of a factor that factor's one-vertex
   cover, a loop per generator, without adding vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factors import complete_X_cover, embed_Y_component
from .graphs import (
    LabeledGraph,
    canonical_pair,
    components,
    is_tree,
    make_graph,
    saturation_defects,
)
from . import permgroup
from .subgroups import (
    ProblemSpec,
    VERDICT_DEFICIENT,
    VERDICT_NOT_APPLICABLE,
    HypothesisVerdict,
)
from .words import x_alphabet, x_letter, y_alphabet, y_letter


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
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
    pairs = set()
    letter = x_letter(connect)
    for j in range(length - 1):
        pairs.add((j, j + 1, letter))
    for i in range(1, rank + 1):
        if i == connect:
            continue
        for j in range(length):
            pairs.add((j, j, x_letter(i)))
    return make_graph(range(length), pairs, 0)


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
    pairs = {(v1, v2, x_letter(connect))}
    for i in range(1, rank + 1):
        letter = x_letter(i)
        if i not in (connect, move):
            pairs.add((v1, v1, letter))
            pairs.add((v2, v2, letter))
        if i != move:
            if signs[i - 1] == 1:
                pairs.add((v3, v3, letter))
                pairs.add((v4, v4, letter))
            else:
                pairs.add((v3, v4, letter))
                pairs.add((v4, v3, letter))
    if signs[move - 1] == 1:
        pairs.add((v1, v3, x_letter(move)))
        pairs.add((v3, v1, x_letter(move)))
        pairs.add((v2, v4, x_letter(move)))
        pairs.add((v4, v2, x_letter(move)))
    else:
        pairs.add((v1, v2, x_letter(move)))
        pairs.add((v2, v3, x_letter(move)))
        pairs.add((v3, v4, x_letter(move)))
        pairs.add((v4, v1, x_letter(move)))
    return make_graph(range(4), pairs, 0)


def permutation_rep(graph: LabeledGraph, rank: int, num_ygens: int):
    """Action of each generator on the (sorted) vertices of a saturated
    graph, as 0-based permutations keyed 'x1'..'xr', 'y1'..'yq'."""
    order = sorted(graph.vertices)
    position = {v: i for i, v in enumerate(order)}
    images = {}
    letters = [x_letter(i) for i in range(1, rank + 1)]
    letters += [y_letter(j) for j in range(1, num_ygens + 1)]
    for letter in letters:
        perm = []
        for v in order:
            target = graph.step(v, letter)
            if target is None:
                raise ValueError(f"graph is not saturated at vertex {v} for {letter}")
            perm.append(position[target])
        images[str(letter)] = tuple(perm)
    return images


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
    cover: LabeledGraph  # the based graph's vertices keep their ids
    plan: CoverPlan
    params: GadgetParams
    images: dict
    image_type: str
    retries: int
    stages: dict
    move_support: int


def _pick_attachment(defects):
    """First defect fixes the connect letter; its partner of the opposite
    sign is the lowest-id vertex, preferring one distinct from the first.

    Returns (connect index, needs_out vertex a, needs_in vertex b): a is
    missing the outgoing connect letter, b the outgoing inverse."""
    first_vertex, first_letter = defects[0].vertex, defects[0].missing
    connect = first_letter.index
    positive = [d.vertex for d in defects if d.missing == x_letter(connect)]
    negative = [d.vertex for d in defects if d.missing == x_letter(connect, -1)]
    if first_letter.sign > 0:
        a = first_vertex
        others = [v for v in negative if v != a]
        b = others[0] if others else negative[0]
    else:
        b = first_vertex
        others = [v for v in positive if v != b]
        a = others[0] if others else positive[0]
    return connect, a, b


def build_separating_cover(
    spec: ProblemSpec,
    graph: LabeledGraph,
    verdict: HypothesisVerdict,
    signs=None,
    max_prime: int = 100000,
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
    # every plan's degree is at least |V| + 5: fail before building covers
    if len(graph.vertices) + 5 > max_prime:
        raise CoverSearchExhaustedError(
            f"no recognized cover with prime degree <= {max_prime}")

    # Step 1: host component.
    xcomps = components(graph, "x")
    ycomps = components(graph, "y")
    if verdict.kind == VERDICT_DEFICIENT:
        host = verdict.witness
    else:
        trees = [c for c, _anchor in xcomps if is_tree(c)]
        host = trees[0] if trees else None  # None: bare base vertex

    # Step 2: component covers, glued on by renaming.  Every based-graph
    # vertex keeps its id; coset c of a y-component's cover is the vertex
    # the injective embedding sends onto it, else the fresh id offset + c.
    vertices = set(graph.vertices)
    pairs = set(graph.pairs)
    offset = max(graph.vertices) + 1
    for component, _anchor in ycomps:
        cover, embedding = embed_Y_component(table, component)
        name = {c: offset + c for c in cover.vertices}
        name.update((c, v) for v, c in embedding.items())
        vertices.update(name.values())
        pairs.update((name[u], name[w], letter) for u, w, letter in cover.pairs)
        offset += len(cover.vertices)
    for component, _anchor in xcomps:
        if host is None or component.vertices != host.vertices:
            pairs.update(complete_X_cover(component, rank).pairs)
    glued = make_graph(vertices, pairs, graph.base)
    if not glued.folded:
        raise AssertionError("gluing broke the immersion condition")
    k = len(glued.vertices)

    host_vertices = host.vertices if host is not None else {graph.base}
    defects = [
        d for d in saturation_defects(glued, x_alphabet(rank)) if d.vertex in host_vertices
    ]
    if not defects:
        raise AssertionError("host component has no saturation gap to attach to")
    connect, a, b = _pick_attachment(defects)
    move = min(i for i in range(1, rank + 1) if i != connect)

    params = GadgetParams(signs, connect, move)
    for retries, plan in enumerate(choose_prime(k)):
        if plan.degree > max_prime:
            raise CoverSearchExhaustedError(
                f"no recognized cover with prime degree <= {max_prime}")
        result = _attempt(spec, graph, glued, plan, params, a, b)
        if result is not None:
            cover, precover, images, image_type, move_support = result
            stages = {"component_covers": glued, "precover": precover, "cover": cover}
            return SeparatingCover(
                cover, plan, params, images, image_type, retries, stages, move_support
            )


def _attempt(spec, graph, glued, plan, params, a, b):
    """Steps 3 and 4 for one prime, then recognition.  Returns None when
    the image is neither alternating nor symmetric."""
    table = spec.finite
    rank = spec.free.rank
    connect, move = params.connect_letter, params.move_letter

    # Step 3: bridge the gaps a -> chain -> mover -> b and complete the
    # connect component's x-structure, giving a precover.
    chain = chain_gadget(plan.chain_length, rank, connect)
    mover = mover_gadget(params.signs, rank, connect, move)
    off1 = max(glued.vertices) + 1
    off2 = off1 + plan.chain_length
    vertices = set(glued.vertices)
    pairs = set(glued.pairs)
    vertices.update(off1 + v for v in chain.vertices)
    pairs.update((off1 + u, off1 + w, letter) for u, w, letter in chain.pairs)
    vertices.update(off2 + v for v in mover.vertices)
    pairs.update((off2 + u, off2 + w, letter) for u, w, letter in mover.pairs)
    cl = x_letter(connect)
    pairs.add(canonical_pair(a, off1 + 0, cl))
    pairs.add(canonical_pair(off1 + plan.chain_length - 1, off2 + 0, cl))
    pairs.add(canonical_pair(off2 + 1, b, cl))
    bridged = make_graph(vertices, pairs, glued.base)
    if not bridged.folded:
        raise AssertionError("gadget attachment broke the immersion condition")

    target = next(
        c for c, _anchor in components(bridged, "x") if off2 + 0 in c.vertices
    )
    completed = complete_X_cover(target, rank)
    precover = make_graph(
        bridged.vertices, set(bridged.pairs) | set(completed.pairs), bridged.base
    )

    # Step 4: a vertex with no edge of a factor gets that factor's
    # one-vertex cover, a loop per generator; no new vertices.
    pairs = set(precover.pairs)
    for v, slots in precover.out.items():
        for factor, letter, count in (
            ("x", x_letter, rank), ("y", y_letter, table.num_generators)
        ):
            if not any(l.factor == factor for l in slots):
                pairs.update((v, v, letter(j)) for j in range(1, count + 1))
    saturated = make_graph(precover.vertices, pairs, precover.base)

    if len(saturated.vertices) != plan.degree:
        raise AssertionError("final cover has the wrong number of vertices")
    if saturation_defects(saturated, x_alphabet(rank)) or saturation_defects(
        saturated, y_alphabet(table.num_generators)
    ):
        raise AssertionError("final graph is not saturated")
    if not graph.pairs <= saturated.pairs:
        raise AssertionError("based graph does not embed in the final cover")

    images = permutation_rep(saturated, rank, table.num_generators)
    _orbits, transitive = permgroup.orbit_transitive(
        list(images.values()), plan.degree
    )
    if not transitive:
        raise AssertionError("final cover is not connected")
    move_image = images[f"x{move}"]
    move_support = len(permgroup.support(move_image))
    if move_support >= plan.base_size + 5:
        raise AssertionError("move letter exceeds its support bound")
    image_type = permgroup.recognize_alt_sym(list(images.values()), plan.degree)
    if image_type == permgroup.OTHER:
        return None
    return saturated, precover, images, image_type, move_support
