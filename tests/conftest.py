import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from altsep.factors import enumerate_group
from altsep.subgroups import FreeFactor, ProblemSpec


@pytest.fixture(scope="session")
def z2():
    return enumerate_group(2, [(1, 0)])


@pytest.fixture(scope="session")
def z3():
    return enumerate_group(3, [(1, 2, 0)])


@pytest.fixture(scope="session")
def s3():
    return enumerate_group(3, [(1, 2, 0), (1, 0, 2)])


@pytest.fixture(scope="session")
def d4():
    """Dihedral group of order 8 on the corners of a square."""
    return enumerate_group(4, [(1, 2, 3, 0), (0, 3, 2, 1)])


@pytest.fixture(scope="session")
def a4():
    """Alternating group of order 12, generated by two 3-cycles."""
    return enumerate_group(4, [(1, 2, 0, 3), (0, 2, 3, 1)])


def make_spec(table, subgroup_words=(), separate_words=(), rank=2):
    return ProblemSpec(
        free=FreeFactor(rank),
        finite=table,
        subgroup_words=tuple(tuple(w) for w in subgroup_words),
        separate_words=tuple(tuple(w) for w in separate_words),
    )


def _s8_problem(words):
    """Problem file over F_200 * S_8, S_8 from an 8-cycle and a
    transposition, that separates x1^4 from the words' subgroup."""
    lines = ["[free]      rank = 200",
             "[finite]    degree = 8 ; gens = y1: (1 2 3 4 5 6 7 8); y2: (1 2)"]
    lines += [("[subgroup]  " if i == 1 else " " * 12) + f"h{i} = {word}"
              for i, word in enumerate(words, start=1)]
    lines.append("[separate]  g1 = x1 x1 x1 x1")
    return "\n".join(lines) + "\n"


def s8_leaf_problem(n):
    """For the first n pairs (a, b) in row-major order over 1..200, H has
    the words x_a x_b y_j x_b^-1 x_a^-1 for j = 1, 2, so each leaf of an
    x-tree carries one y-component whose loops generate all of S_8: one
    coset, of 40,320 elements.  It certifies."""
    pairs = [(a, b) for a in range(1, 201) for b in range(1, 201)][:n]
    return _s8_problem(f"x{a} x{b} y{j} x{b}^-1 x{a}^-1" for a, b in pairs for j in (1, 2))


def s8_transposition_problem(n):
    """For a = 1..n (n <= 200), H has x_a u y2 u^-1 x_a^-1 with
    u = y1^i y2 y1^j, (i, j) = divmod(a, 8), so each x_a carries one
    y-component whose loop subgroup is generated by a transposition:
    order 2, index 20,160.  Its cover would pass 100,000 vertices, so
    ``altsep separate`` exits 1."""
    words = []
    for a in range(1, n + 1):
        i, j = divmod(a, 8)
        u = ["y1"] * i + ["y2"] + ["y1"] * j
        back = [f"{letter}^-1" for letter in reversed(u)]
        words.append(" ".join([f"x{a}", *u, "y2", *back, f"x{a}^-1"]))
    return _s8_problem(words)
