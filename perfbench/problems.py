"""Seeded problems with answers known without asking altsep.

Every problem comes with a permutation quotient phi of F_r * G on a few
points.  The x-images are random permutations; the y-images are G's own
generators padded with fixed points.  Subgroup generators are drawn only
from words whose phi-image fixes point 0, so the subgroup H lies in the
stabiliser of 0, and every word that moves point 0 lies outside H.  Such
words serve as separators and as certified non-members; products of
subgroup generators are certified members.

Words are tuples of letters ``(factor, index, sign)``, e.g. ``("x", 1, -1)``.
Permutations are 0-based tuples; ``p[i]`` is the image of i, and products
apply left to right, as paths are read.  This module imports nothing from
altsep, and parses problem text itself.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace


def compose(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycles_text(p) -> str:
    """1-based cycle notation; the identity is '()'."""
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cycle = [i]
        seen.add(i)
        j = p[i]
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = p[j]
        parts.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(parts) or "()"


def parse_cycles(text: str, degree: int):
    images = list(range(degree))
    for body in re.findall(r"\(([^()]*)\)", text):
        points = [int(tok) - 1 for tok in body.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            if not (0 <= a < degree and 0 <= b < degree):
                raise ValueError(f"point out of range in {text!r}")
            images[a] = b
    if sorted(images) != list(range(degree)):
        raise ValueError(f"not a permutation: {text!r}")
    return tuple(images)


# The finite factors of the ladder: (degree, generators in cycle notation).
GROUPS = {
    "Z2": (2, ("(1 2)",)),
    "S3": (3, ("(1 2 3)", "(1 2)")),
    "D4": (4, ("(1 2 3 4)", "(1 3)")),
    "A4": (4, ("(1 2 3)", "(1 2)(3 4)")),
}

# Points phi acts on beyond those of G.
EXTRA_POINTS = 2


@dataclass(frozen=True)
class Problem:
    """A problem and the quotient that certifies its answers."""

    name: str
    rank: int
    degree: int
    ygens: tuple  # G's generators as permutations of 0..degree-1
    subgroup: tuple  # words
    separate: tuple  # words
    phi: dict | None = None  # letter name -> permutation, or None if unknown

    def text(self) -> str:
        gens = "; ".join(f"y{j}: {cycles_text(g)}" for j, g in enumerate(self.ygens, 1))
        lines = [f"# {self.name}", f"[free] rank = {self.rank}",
                 f"[finite] degree = {self.degree} ; gens = {gens}", "[subgroup]"]
        lines += [f"h{i} = {spell(w)}" for i, w in enumerate(self.subgroup, 1)]
        lines.append("[separate]")
        lines += [f"g{i} = {spell(w)}" for i, w in enumerate(self.separate, 1)]
        return "\n".join(lines) + "\n"


def spell(word) -> str:
    if not word:
        return "1"
    return " ".join(f"{f}{i}" if s > 0 else f"{f}{i}^-1" for f, i, s in word)


_TERM_RE = re.compile(r"([xy])(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str):
    """Word from the problem-file and certificate spelling ('x1^2 y1^-1')."""
    text = text.strip()
    if text == "1":
        return ()
    word = []
    for token in text.split():
        match = _TERM_RE.match(token)
        if not match:
            raise ValueError(f"bad word term {token!r}")
        exponent = int(match.group(3) or 1)
        letter = (match.group(1), int(match.group(2)), 1 if exponent > 0 else -1)
        word.extend([letter] * abs(exponent))
    return tuple(word)


def parse_problem(text: str, name: str = "problem") -> Problem:
    """Minimal reader of the problem-file format, for the checker."""
    rank = degree = None
    gens = {}
    words = {"subgroup": {}, "separate": {}}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        header = re.match(r"^\[(\w+)\]\s*(.*)$", line)
        if header:
            section, line = header.group(1), header.group(2).strip()
        for chunk in filter(None, (c.strip() for c in line.split(";"))):
            key, _, value = (s.strip() for s in chunk.partition("=")) if "=" in chunk else ("", "", chunk)
            if section == "free":
                rank = int(value)
            elif section == "finite" and key == "degree":
                degree = int(value)
            elif section == "finite":
                gen = re.match(r"^y(\d+)\s*:\s*(.*)$", value)
                gens[int(gen.group(1))] = gen.group(2)
            else:
                words[section][int(key[1:])] = parse_word(value)
    return Problem(
        name, rank, degree,
        tuple(parse_cycles(gens[j], degree) for j in sorted(gens)),
        tuple(words["subgroup"][i] for i in sorted(words["subgroup"])),
        tuple(words["separate"][i] for i in sorted(words["separate"])),
    )


def act(images, word, point: int) -> int:
    """Image of a point under a word, through generator permutations keyed
    'x1', 'y1', ...; inverse letters use the inverse permutation."""
    inverses = {}
    for factor, index, sign in word:
        perm = images[f"{factor}{index}"]
        if sign < 0:
            if perm not in inverses:
                inverses[perm] = inverse(perm)
            perm = inverses[perm]
        point = perm[point]
    return point


def word_inverse(word):
    return tuple((f, i, -s) for f, i, s in reversed(word))


def closure(gens, identity):
    """All products of the generators (a finite group), breadth first."""
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = compose(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def cover_size(problem: Problem) -> int:
    """Vertices of the subgroup graph once every y-component is completed
    to its coset graph: the k of the prime search p >= k + 5.

    Computed here from first principles (wedge, fold, coset identification)
    so that ladder rungs can be drawn at a fixed prime degree without
    asking altsep.  It only selects inputs; no check depends on it.
    """
    identity = tuple(range(problem.degree))
    ygen = dict(enumerate(problem.ygens, 1))
    edges = set()
    vertices = {0}
    fresh = 1
    for word, closed in [(w, True) for w in problem.subgroup] + [(w, False) for w in problem.separate]:
        current = 0
        for n, letter in enumerate(word):
            target = 0 if closed and n == len(word) - 1 else fresh
            if target:
                fresh += 1
            vertices.add(target)
            edges.add((current, target, letter[:2]) if letter[2] > 0 else (target, current, letter[:2]))
            current = target
    while True:
        vertices, edges = _fold(vertices, edges)
        groups = []
        for component, ycomp_edges in _y_components(edges):
            reach, loops = _component_elements(component, ycomp_edges, ygen, identity)
            subgroup = closure(loops, identity)
            keys = {}
            for v in sorted(component):
                keys.setdefault(frozenset(compose(k, reach[v]) for k in subgroup), []).append(v)
            groups += [g for g in keys.values() if len(g) > 1]
        if not groups:
            break
        rename = {v: g[0] for g in groups for v in g}
        vertices = {rename.get(v, v) for v in vertices}
        edges = {(rename.get(u, u), rename.get(w, w), l) for u, w, l in edges}
    size = len(vertices)
    for component, ycomp_edges in _y_components(edges):
        _reach, loops = _component_elements(component, ycomp_edges, ygen, identity)
        size += len(closure(problem.ygens, identity)) // len(closure(loops, identity))
        size -= len(component)
    return size


def _fold(vertices, edges):
    """Identify the targets of equally labelled edges at a vertex until
    none remain (a small graph, so one merge per scan)."""
    while True:
        seen = {}
        merge = None
        for u, w, label in edges:
            for source, target, sign in ((u, w, 1), (w, u, -1)):
                other = seen.setdefault((source, label, sign), target)
                if other != target:
                    merge = (min(other, target), max(other, target))
                    break
            if merge:
                break
        if merge is None:
            return vertices, edges
        keep, drop = merge
        vertices = vertices - {drop}
        edges = {(keep if u == drop else u, keep if w == drop else w, l) for u, w, l in edges}


def _y_components(edges):
    """(vertex set, edge list) of each connected component of y-edges."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    yedges = [e for e in edges if e[2][0] == "y"]
    for u, w, _l in yedges:
        parent[find(u)] = find(w)
    comps = {}
    for v in list(parent):
        comps.setdefault(find(v), set()).add(v)
    return [(c, [e for e in yedges if e[0] in c]) for c in comps.values()]


def _component_elements(component, cedges, ygen, identity):
    """Element of G reached at each vertex along a spanning tree from the
    smallest vertex, and the element read around each non-tree edge."""
    root = min(component)
    reach = {root: identity}
    tree = set()
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for e in cedges:
                u, w, label = e
                g = ygen[label[1]]
                if u == v and w not in reach:
                    reach[w] = compose(reach[v], g)
                elif w == v and u not in reach:
                    reach[u] = compose(reach[v], inverse(g))
                else:
                    continue
                tree.add(e)
                nxt.append(w if u == v else u)
        frontier = nxt
    loops = [
        compose(compose(reach[u], ygen[l[1]]), inverse(reach[w]))
        for u, w, l in cedges if (u, w, l) not in tree
    ]
    return reach, loops


DRAW_ATTEMPTS = 1000
QUOTIENT_ATTEMPTS = 100


class NoWordError(Exception):
    """This quotient has no word of the requested kind (parity can rule
    one out, or a ladder rung's degree); the caller draws another one."""


class Generator:
    """Random words under one seeded quotient phi of F_r * G."""

    def __init__(self, seed, group: str, rank: int):
        self.rng = random.Random(seed)
        self.rank = rank
        degree, texts = GROUPS[group]
        self.degree = degree
        self.ygens = tuple(parse_cycles(t, degree) for t in texts)
        points = degree + EXTRA_POINTS
        self.phi = {}
        for i in range(1, rank + 1):
            perm = list(range(points))
            self.rng.shuffle(perm)
            self.phi[f"x{i}"] = tuple(perm)
        for j, g in enumerate(self.ygens, 1):
            self.phi[f"y{j}"] = tuple(g) + tuple(range(degree, points))

    def word(self, length: int, free_letters: int):
        """Random word over x1..x<free_letters> and G's generators, with no
        letter next to its inverse."""
        letters = [("x", i, s) for i in range(1, free_letters + 1) for s in (1, -1)]
        letters += [("y", j, s) for j in range(1, len(self.ygens) + 1) for s in (1, -1)]
        word = []
        while len(word) < length:
            letter = self.rng.choice(letters)
            if not word or word[-1] != (letter[0], letter[1], -letter[2]):
                word.append(letter)
        return tuple(word)

    def fixing_word(self, length: int, free_letters: int):
        """Random word whose phi-image fixes point 0."""
        return self._draw(length, free_letters, lambda end: end == 0)

    def moving_word(self, length: int, free_letters: int):
        """Random word whose phi-image moves point 0: a non-member."""
        return self._draw(length, free_letters, lambda end: end != 0)

    def _draw(self, length, free_letters, accept):
        for _ in range(DRAW_ATTEMPTS):
            word = self.word(length, free_letters)
            if accept(act(self.phi, word, 0)):
                return word
        raise NoWordError(f"no such word of length {length} under this phi")

    def problem(self, name, subgroup, separate) -> Problem:
        return Problem(name, self.rank, self.degree, self.ygens,
                       tuple(subgroup), tuple(separate), dict(self.phi))


def _draw_family(key: str, group: str, rank: int, build):
    """``build(generator)`` under the first quotient drawn from ``key``
    that admits it."""
    for attempt in range(QUOTIENT_ATTEMPTS):
        try:
            return build(Generator(f"{key}/{attempt}", group, rank))
        except NoWordError:
            continue
    raise RuntimeError(f"no quotient admits {key}")


def member_word(rng: random.Random, subgroup, factors: int):
    """Product of ``factors`` subgroup generators or their inverses."""
    word = ()
    for _ in range(factors):
        h = rng.choice(subgroup)
        word += h if rng.random() < 0.5 else word_inverse(h)
    return word


def next_prime(n: int) -> int:
    while n < 2 or any(n % d == 0 for d in range(2, int(n ** 0.5) + 1)):
        n += 1
    return n


# -- workload inputs ------------------------------------------------------

# Certify ladder: (group, rank, prime degrees).  Recognition cost grows
# steeply with the degree, so each rung is drawn at a fixed degree; that
# keeps a pass's cost nearly the same from seed to seed.  Twelve rungs at
# degree 17 have as many operations below them as above, so the median
# latency falls in the middle of a block of like operations; the tail
# falls among the eleven rungs at degree 19.  Subgroup generators avoid the
# last free letter x_r, so every x-component with a cycle misses
# x_r-edges and the eligibility check must accept (exit 0).
CERTIFY_LADDER = (
    ("Z2", 2, (11, 17, 17)),
    ("Z2", 3, (13, 17, 19)),
    ("S3", 2, (11, 17, 19)),
    ("S3", 3, (13, 17, 19, 19)),
    ("D4", 2, (11, 17, 17, 19)),
    ("D4", 3, (13, 17, 19, 19)),
    ("A4", 2, (17, 17, 19, 19)),
    ("A4", 3, (17, 17, 19, 19)),
)
CERTIFY_SUBGROUP_GENS = 2
CERTIFY_LENGTHS = (3, 5)
RUNG_ATTEMPTS = 400


def _rung(gen: Generator, degree: int) -> Problem:
    """Subgroup generators and one separator of length 3-5 whose cover
    has the given prime degree."""
    free = gen.rank - 1
    for _ in range(RUNG_ATTEMPTS):
        subgroup = [gen.fixing_word(gen.rng.randint(*CERTIFY_LENGTHS), free)
                    for _ in range(CERTIFY_SUBGROUP_GENS)]
        separate = [gen.moving_word(gen.rng.randint(*CERTIFY_LENGTHS), free)]
        problem = gen.problem("", subgroup, separate)
        if next_prime(cover_size(problem) + 5) == degree:
            return problem
    raise NoWordError(f"no degree-{degree} problem under this phi")


def certify_problems(seed):
    """The certify ladder plus one GammaClosed problem, as (problem, exit
    code it must produce)."""
    out = []
    for group, rank, degrees in CERTIFY_LADDER:
        for n, degree in enumerate(degrees):
            problem = _draw_family(f"certify/{seed}/{group}/{rank}/{n}", group, rank,
                                   lambda gen: _rung(gen, degree))
            name = f"{group} rank {rank} rung {n} degree {degree}"
            out.append((replace(problem, name=name), 0))

    def gamma_closed(gen):
        subgroup = [gen.fixing_word(4, 1) for _ in range(CERTIFY_SUBGROUP_GENS)]
        closed = subgroup[0] + word_inverse(subgroup[1])
        return gen.problem("GammaClosed: g2 = h1 h2^-1", subgroup,
                           [gen.moving_word(4, 1), closed])

    out.append((_draw_family(f"certify/{seed}/closed", "S3", 2, gamma_closed), 3))
    return out


MEMBERSHIP_GENS = 8
MEMBERSHIP_LENGTH = 250
MEMBER_FACTORS = 3
# Five queries in eight are members.  Members (one fixpoint round) are
# much cheaper than non-members (two or three), so an even split would put
# the median latency on the gap between the two.
MEMBER_SLOTS = frozenset({0, 2, 4, 5, 7})


def membership_inputs(seed, count: int):
    """An S3 rank-2 subgroup with long generators, and ``count`` labelled
    queries: products of three generators or their inverses (members) and
    250-letter words that move phi's point 0 (non-members)."""

    def build(gen):
        subgroup = [gen.fixing_word(MEMBERSHIP_LENGTH, 2) for _ in range(MEMBERSHIP_GENS)]
        queries = []
        for i in range(count):
            if i % 8 in MEMBER_SLOTS:
                queries.append((member_word(gen.rng, subgroup, MEMBER_FACTORS), True))
            else:
                queries.append((gen.moving_word(MEMBERSHIP_LENGTH, 2), False))
        return gen.problem("membership S3 rank 2", subgroup, []), queries

    return _draw_family(f"membership/{seed}", "S3", 2, build)


# Decompose: (group, rank, generators, generator length), 700 to 1,150
# graph vertices each, three subgroups of each kind.  Twenty-four operations
# of about the same cost give a run enough samples for a median and a tail
# that do not depend on which subgroup sits at which rank; and an operation
# short enough (about 0.3 s) that the reference computations timed just
# before and after it see the same host speed.  Subgroup generators avoid
# x_r, so the eligibility verdict can never be 'not applicable'.
DECOMPOSE_SET = tuple((group, rank, 6, 200) for group in GROUPS for rank in (2, 3))
DECOMPOSE_EACH = 3


def decompose_problems(seed):
    out = []
    for group, rank, count, length in DECOMPOSE_SET:
        for n in range(DECOMPOSE_EACH):
            def build(gen):
                subgroup = [gen.fixing_word(length, rank - 1) for _ in range(count)]
                return gen.problem(f"decompose {group} rank {rank} #{n}", subgroup, [])
            out.append(_draw_family(f"decompose/{seed}/{group}/{rank}/{n}", group, rank, build))
    return out


def reference_problem() -> Problem:
    """A fixed problem (S3, rank 2, four generators of length 60; about 380
    cover vertices).  ``cover_size`` of it is the benchmark's reference
    computation: graph folding, coset identification and permutation
    closures in plain Python, about 13 ms, with no call into altsep."""
    gen = Generator("reference", "S3", 2)
    return gen.problem("reference", [gen.fixing_word(60, 1) for _ in range(4)], [])
