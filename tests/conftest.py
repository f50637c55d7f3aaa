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


def make_spec(table, subgroup_words=(), separate_words=(), rank=2):
    return ProblemSpec(
        free=FreeFactor(rank),
        finite=table,
        subgroup_words=tuple(tuple(w) for w in subgroup_words),
        separate_words=tuple(tuple(w) for w in separate_words),
    )
