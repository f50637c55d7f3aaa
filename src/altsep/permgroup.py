"""Exact permutation-group computation.

Permutations act on 0-based points internally and are stored as tuples:
``p[i]`` is the image of point i.  ``compose(p, q)`` means "apply p, then
q", matching path tracing (the image of a vertex under a word is the
endpoint of the word's path).  Cycle notation at the text boundary is
1-based, e.g. "(1 2 3)(4 5)"; the identity prints as "()".

Group orders come from a base-and-strong-generating-set construction
that is deterministic: a random walk with a fixed seed fills the chain
first, base points are the smallest not-yet-fixed points, and transversals
extend in BFS order.  The product of the orbit lengths is a lower bound on
the order; once it reaches n!/2 the group is A_n or S_n, and the order is
read off generator parity without completing the chain.  Every other
chain is completed and re-verified by a full sifting pass over all
Schreier generators before its order is reported.  Orders are exact Python
integers, so comparisons against factorials are exact at any degree.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from itertools import repeat
from operator import itemgetter


def identity_perm(degree: int):
    return tuple(range(degree))


def is_identity(perm) -> bool:
    return tuple(perm) == identity_perm(len(perm))


def compose(p, q):
    """Apply p, then q."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    if len(p) < 2:  # itemgetter of one index returns a bare item
        return tuple(q)
    return itemgetter(*p)(q)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def support(p):
    """Moved points, ascending."""
    return tuple(i for i, j in enumerate(p) if i != j)


def cycles(p):
    """Nontrivial cycles, each rotated to start at its smallest point,
    sorted by that point."""
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cycle = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = p[j]
        out.append(tuple(cycle))
    return out

def parity(p) -> str:
    """'even' or 'odd' (a k-cycle contributes k - 1 transpositions)."""
    swaps = sum(len(c) - 1 for c in cycles(p))
    return "even" if swaps % 2 == 0 else "odd"


def format_cycles(p) -> str:
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cs)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int):
    """Parse 1-based cycle notation into a permutation of the degree."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation")
    rebuilt = "".join("(" + body + ")" for body in _CYCLE_RE.findall(stripped))
    if re.sub(r"\s", "", rebuilt) != re.sub(r"\s", "", stripped):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    seen = set()
    for body in _CYCLE_RE.findall(stripped):
        points = []
        for tok in body.split():
            if not re.fullmatch(r"[0-9]+", tok):  # int() also takes '+', '_', other digits
                raise ValueError(f"expected a point number, got {tok!r}")
            points.append(int(tok))
        if not points:
            continue
        for point in points:
            if not 1 <= point <= degree:
                raise ValueError(f"point {point} out of range 1..{degree}")
            if point in seen:
                raise ValueError(f"point {point} repeated in {text!r}")
            seen.add(point)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
    return tuple(images)


def orbit_transitive(gens, degree: int):
    """Orbits of the generated group, each sorted and in the order of their
    least points, and whether it is transitive.  A permutation of a finite
    set has its inverse among its powers, so forward images reach a whole
    orbit."""
    for g in gens:
        if len(g) != degree:
            raise ValueError("generator degree mismatch")
    seen = [False] * degree
    orbits = []
    for start in range(degree):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for i in orbit:  # grows while it is read: breadth-first order
            for g in gens:
                j = g[i]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
        orbits.append(tuple(sorted(orbit)))
    return orbits, len(orbits) == 1


class _Level:
    __slots__ = ("point", "orbit", "transversal", "gens", "pending")

    def __init__(self, point: int, identity):
        self.point = point
        self.orbit = [point]
        # orbit point -> (u, u^-1), u a group element taking self.point there
        self.transversal = {point: (identity, identity)}
        self.gens = []
        # (orbit point, generator index) pairs whose Schreier generator is
        # still to sift
        self.pending = deque()


class _ContainsAlternating(Exception):
    """The orbit lengths of a partial chain have reached n!/2."""


class StrongGeneratingSet:
    """Stabilizer chain with strong generators, built deterministically.

    A fixed-seed random walk over the generators and their inverses is
    sifted into the chain first, without Schreier completion.  After every
    new strong generator the product of the orbit lengths, a lower bound on
    the order, is compared with n!/2.  Once it gets there the group has
    index at most 2 in S_n, so it is A_n or S_n, told apart by generator
    parity, and the build stops.  Otherwise the original generators are
    sifted in, every level is completed bottom-up, and a full sifting pass
    verifies the chain before its order is reported."""

    def __init__(self, gens, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self._identity = identity_perm(degree)
        self._half = math.factorial(degree) // 2
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
        try:
            self._random_fill(gens)
            for g in gens:
                self._add(g)
            for i in range(len(self.levels) - 1, -1, -1):
                self._complete(i)
        except _ContainsAlternating:
            odd = any(parity(g) == "odd" for g in gens)
            self._order = 2 * self._half if odd else self._half
            return
        self._verify()
        self._order = math.prod(len(level.orbit) for level in self.levels)

    # -- construction ---------------------------------------------------

    def _random_fill(self, gens):
        """Sift 20*degree steps of a random walk (seed 0) into the chain."""
        steps = gens + [inverse(g) for g in gens]
        if not steps:
            return
        rng = random.Random(0)
        walk = self._identity
        for _ in range(20 * self.degree):
            walk = compose(walk, rng.choice(steps))
            self._add(walk)

    def _sift(self, perm, start: int):
        """Reduce perm through levels >= start; returns (residue, level at
        which sifting stopped)."""
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            image = perm[level.point]
            if image == level.point:
                continue
            entry = level.transversal.get(image)
            if entry is None:
                return perm, i
            perm = compose(perm, entry[1])
        return perm, len(self.levels)

    def _add(self, perm):
        residue, at = self._sift(perm, 0)
        if not is_identity(residue):
            self._place(residue, at)

    def _place(self, perm, at: int):
        if at == len(self.levels):
            self.levels.append(_Level(min(support(perm)), self._identity))
        for i in range(at + 1):
            self._add_generator(self.levels[i], perm)
        if math.prod(len(level.orbit) for level in self.levels) >= self._half:
            raise _ContainsAlternating

    def _add_generator(self, level: _Level, perm):
        level.pending.extend(zip(level.orbit, repeat(len(level.gens))))
        level.gens.append(perm)
        self._extend_orbit(level, perm)

    def _extend_orbit(self, level: _Level, perm):
        """Close the orbit under the level's generators, perm the newest."""
        transversal = level.transversal
        queue = deque()
        for point in level.orbit:
            if perm[point] not in transversal:
                self._reach(level, point, perm, queue)
        while queue:
            point = queue.popleft()
            for g in level.gens:
                if g[point] not in transversal:
                    self._reach(level, point, g, queue)

    def _reach(self, level: _Level, point: int, g, queue):
        """Add the image of an orbit point under g, new to the orbit."""
        image = g[point]
        u = compose(level.transversal[point][0], g)
        level.transversal[image] = (u, inverse(u))
        level.orbit.append(image)
        queue.append(image)
        level.pending.extend(zip(repeat(image), range(len(level.gens))))

    def _schreier_generator(self, level: _Level, point: int, gen):
        ug = compose(level.transversal[point][0], gen)
        return compose(ug, level.transversal[gen[point]][1])

    def _complete(self, i: int):
        level = self.levels[i]
        while level.pending:
            point, gen_index = level.pending.popleft()
            sg = self._schreier_generator(level, point, level.gens[gen_index])
            residue, at = self._sift(sg, i + 1)
            if is_identity(residue):
                continue
            self._place(residue, at)
            for j in range(min(at, len(self.levels) - 1), i, -1):
                self._complete(j)

    def _verify(self):
        """Full sifting pass: every Schreier generator of every level must
        sift to the identity against the finished chain."""
        for i, level in enumerate(self.levels):
            for point in level.orbit:
                for gen in level.gens:
                    sg = self._schreier_generator(level, point, gen)
                    residue, _ = self._sift(sg, i + 1)
                    if not is_identity(residue):
                        raise AssertionError(
                            "strong generating set failed verification")

    # -- queries ----------------------------------------------------------

    def order(self) -> int:
        return self._order


def bsgs_order(gens, degree: int) -> int:
    """Exact order of the group generated by ``gens``."""
    return StrongGeneratingSet(gens, degree).order()


ALTERNATING = "alternating"
SYMMETRIC = "symmetric"
OTHER = "other"


def recognize_alt_sym(gens, degree: int) -> str:
    """Classify the generated group as the full symmetric group, the
    alternating group, or something smaller, by exact order."""
    if degree < 3:
        raise ValueError("recognition needs degree >= 3")
    order = bsgs_order(gens, degree)
    full = math.factorial(degree)
    if order == full:
        return SYMMETRIC
    if order == full // 2 and all(parity(g) == "even" for g in gens):
        return ALTERNATING
    return OTHER
