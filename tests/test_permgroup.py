import math
import random

import pytest

from altsep import permgroup as pg

from oracles import exhaustive_closure, orbits_oracle


def from_cycles(text, degree):
    return pg.parse_cycles(text, degree)


# -- algebra -------------------------------------------------------------------


def test_compose_matches_path_tracing():
    # apply p then q, like following two edges in a row
    p = from_cycles("(1 2)", 3)
    q = from_cycles("(2 3)", 3)
    assert pg.compose(p, q) == from_cycles("(1 3 2)", 3)


def test_compose_with_inverse_is_identity():
    sigma = from_cycles("(1 4 2)(3 5)", 5)
    assert pg.is_identity(pg.compose(sigma, pg.inverse(sigma)))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        pg.compose((0, 1), (0, 1, 2))


def test_compose_at_degrees_zero_and_one():
    assert pg.compose((), ()) == ()
    assert pg.compose((0,), (0,)) == (0,)


def test_parity():
    assert pg.parity(from_cycles("(1 2 3)", 3)) == "even"
    assert pg.parity(from_cycles("(1 2)", 2)) == "odd"
    assert pg.parity(pg.identity_perm(4)) == "even"


def test_parity_is_a_homomorphism():
    rng = random.Random(3)
    for _ in range(40):
        images = list(range(6))
        rng.shuffle(images)
        p = tuple(images)
        rng.shuffle(images)
        q = tuple(images)
        sign = {"even": 1, "odd": -1}
        assert sign[pg.parity(pg.compose(p, q))] == sign[pg.parity(p)] * sign[pg.parity(q)]


def test_support():
    sigma = from_cycles("(1 2)(4 5)", 6)
    assert pg.support(sigma) == (0, 1, 3, 4)


# -- orbits ---------------------------------------------------------------------


def test_orbit_transitive_cycle():
    orbits, transitive = pg.orbit_transitive([from_cycles("(1 2 3 4 5)", 5)], 5)
    assert transitive and orbits == [tuple(range(5))]


def test_orbit_partition():
    orbits, transitive = pg.orbit_transitive([from_cycles("(1 2)", 4)], 4)
    assert not transitive
    assert orbits == [(0, 1), (2,), (3,)]


def test_orbit_transitive_matches_union_find():
    """Random generators that each permute the parts of a random
    partition of the points: with one part the group is, as a rule,
    transitive, and with more it is not."""
    rng = random.Random(5)
    transitive = intransitive = 0
    for _ in range(300):
        degree = rng.randint(1, 40)
        points = rng.sample(range(degree), degree)
        cuts = sorted(rng.sample(range(1, degree), min(rng.randint(0, 3), degree - 1)))
        parts = [points[i:j] for i, j in zip([0] + cuts, cuts + [degree])]
        gens = []
        for _ in range(rng.randint(1, 3)):
            perm = list(range(degree))
            for part in parts:
                for a, b in zip(part, rng.sample(part, len(part))):
                    perm[a] = b
            gens.append(tuple(perm))
        found = pg.orbit_transitive(gens, degree)
        assert found == orbits_oracle(gens, degree)
        transitive += found[1]
        intransitive += not found[1]
    assert transitive >= 50 and intransitive >= 50


# -- order ---------------------------------------------------------------------


def test_bsgs_order_trivial_cases():
    assert pg.bsgs_order([], 4) == 1
    assert pg.bsgs_order([from_cycles("(1 2 3)", 3)], 3) == 3


def test_bsgs_order_s4():
    gens = [from_cycles("(1 2)", 4), from_cycles("(1 2 3 4)", 4)]
    assert pg.bsgs_order(gens, 4) == 24
    assert len(exhaustive_closure(gens, 4)) == 24


def test_bsgs_matches_exhaustive_closure_on_a_selection():
    cases = [
        ([  # dihedral of order 8
            from_cycles("(1 2 3 4)", 4), from_cycles("(1 3)", 4)], 4),
        ([from_cycles("(1 2 3 4 5)", 5), from_cycles("(1 2 3)", 5)], 5),  # A5
        ([from_cycles("(1 2)", 5), from_cycles("(1 2 3 4 5)", 5)], 5),  # S5
        ([from_cycles("(1 2)(3 4)", 5), from_cycles("(1 3)(2 4)", 5)], 5),  # V4
        ([from_cycles("(1 2 3)", 7), from_cycles("(4 5 6 7)", 7)], 7),  # product
        ([from_cycles("(1 2 3 4 5 6)", 6), from_cycles("(2 6)(3 5)", 6)], 6),  # D12
    ]
    for gens, degree in cases:
        assert pg.bsgs_order(gens, degree) == len(exhaustive_closure(gens, degree))


def test_bsgs_order_random_generator_sets():
    rng = random.Random(11)
    for _ in range(15):
        degree = rng.randint(3, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(tuple(images))
        assert pg.bsgs_order(gens, degree) == len(exhaustive_closure(gens, degree))


def _random_perm(rng, points, degree):
    """Random permutation of ``points``, fixing every other point."""
    images = list(range(degree))
    shuffled = list(points)
    rng.shuffle(shuffled)
    for a, b in zip(points, shuffled):
        images[a] = b
    return tuple(images)


def _random_generator_set(rng, degree):
    """Generators of a group that is, by kind, most likely A_n or S_n, or
    certainly not: cyclic, intransitive, or preserving the blocks {0, 1},
    {2, 3}, ... (an odd last point stays fixed)."""
    kind = rng.choice(["full", "full", "cyclic", "intransitive", "blocks"])
    points = range(degree)
    if kind == "full":
        return [_random_perm(rng, points, degree) for _ in range(2)]
    if kind == "cyclic":
        return [_random_perm(rng, points, degree)]
    if kind == "intransitive":
        cut = rng.randint(1, degree - 1)
        return [_random_perm(rng, range(cut), degree),
                _random_perm(rng, range(cut, degree), degree),
                _random_perm(rng, range(cut), degree)]
    # permute the blocks {2i, 2i+1} and swap inside some of them
    gens = []
    for _ in range(2):
        blocks = list(range(degree // 2))
        rng.shuffle(blocks)
        images = []
        for b in blocks:
            pair = [2 * b, 2 * b + 1]
            if rng.random() < 0.5:
                pair.reverse()
            images.extend(pair)
        gens.append(tuple(images + list(range(len(images), degree))))
    return gens


@pytest.mark.parametrize("degree", [7, 8])
def test_bsgs_order_matches_closure_on_both_paths(degree):
    """Orders from the n!/2 bound (the group contains A_n) and from the
    full, verified build both match a plain closure."""
    rng = random.Random(degree)
    full = math.factorial(degree)
    early = 0
    for _ in range(12):
        gens = _random_generator_set(rng, degree)
        order = pg.bsgs_order(gens, degree)
        assert order == len(exhaustive_closure(gens, degree))
        early += order >= full // 2
    assert 0 < early < 12


@pytest.mark.parametrize("degree", [7, 8])
def test_completion_alone_matches_closure(monkeypatch, degree):
    """Without the random walk, Schreier completion from the generators
    alone must build the chain, and reach the n!/2 bound, by itself."""
    monkeypatch.setattr(pg.StrongGeneratingSet, "_random_fill", lambda self, gens: None)
    rng = random.Random(degree)
    for _ in range(12):
        gens = _random_generator_set(rng, degree)
        assert pg.bsgs_order(gens, degree) == len(exhaustive_closure(gens, degree))


def test_order_bound_stops_before_verification(monkeypatch):
    verified = []
    original = pg.StrongGeneratingSet._verify

    def counting(self):
        verified.append(self.degree)
        original(self)

    monkeypatch.setattr(pg.StrongGeneratingSet, "_verify", counting)
    s9 = [from_cycles("(1 2)", 9), from_cycles("(1 2 3 4 5 6 7 8 9)", 9)]
    a9 = [from_cycles("(1 2 3)", 9), from_cycles("(1 2 3 4 5 6 7 8 9)", 9)]
    assert pg.bsgs_order(s9, 9) == math.factorial(9)
    assert pg.bsgs_order(a9, 9) == math.factorial(9) // 2
    assert verified == []
    assert pg.bsgs_order([from_cycles("(1 2 3 4 5 6 7 8 9)", 9)], 9) == 9
    assert verified == [9]


def _long_cycle(degree):
    return "(" + " ".join(str(i) for i in range(1, degree + 1)) + ")"


_M11 = [_long_cycle(11), "(3 7 11 8)(4 10 5 6)"]
_M23 = [_long_cycle(23),
        "(3 17 10 7 9)(4 13 14 19 5)(8 18 11 12 23)(15 20 22 21 16)"]
# x -> 2x on Z/13, 2 a primitive root; point i + 1 stands for i
_TIMES_TWO_MOD_13 = "(" + " ".join(str(pow(2, k, 13) + 1) for k in range(12)) + ")"


@pytest.mark.parametrize("gens, degree, order", [
    (_M11, 11, 7_920),
    (_M11 + ["(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"], 12, 95_040),
    (_M23, 23, 10_200_960),
    (_M23 + ["(1 24)(2 23)(3 12)(4 16)(5 18)(6 10)(7 20)(8 14)(9 21)(11 17)(13 22)(15 19)"],
     24, 244_823_040),
    ([_long_cycle(13), _TIMES_TWO_MOD_13], 13, 156),
], ids=["M11", "M12", "M23", "M24", "AGL1_13"])
def test_known_orders_of_groups_below_alternating(gens, degree, order):
    perms = [from_cycles(g, degree) for g in gens]
    assert pg.orbit_transitive(perms, degree)[1]
    assert pg.bsgs_order(perms, degree) == order
    assert pg.recognize_alt_sym(perms, degree) == pg.OTHER


# -- recognition -------------------------------------------------------------------


def test_recognize_alternating_five():
    gens = [from_cycles("(1 2 3 4 5)", 5), from_cycles("(1 2 3)", 5)]
    assert len(exhaustive_closure(gens, 5)) == 60
    assert pg.recognize_alt_sym(gens, 5) == pg.ALTERNATING


def test_recognize_symmetric_five():
    gens = [from_cycles("(1 2)", 5), from_cycles("(1 2 3 4 5)", 5)]
    assert len(exhaustive_closure(gens, 5)) == 120
    assert pg.recognize_alt_sym(gens, 5) == pg.SYMMETRIC


def test_recognize_other():
    assert pg.recognize_alt_sym([from_cycles("(1 2)(3 4)", 5)], 5) == pg.OTHER


def test_recognize_never_symmetric_on_even_generators():
    rng = random.Random(5)
    for _ in range(10):
        degree = rng.randint(4, 7)
        gens = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            perm = tuple(images)
            if pg.parity(perm) == "odd":
                # make it even by one extra transposition
                fix = list(perm)
                fix[0], fix[1] = fix[1], fix[0]
                perm = tuple(fix)
            gens.append(perm)
        assert pg.recognize_alt_sym(gens, degree) != pg.SYMMETRIC


def test_recognition_requires_degree_three():
    with pytest.raises(ValueError):
        pg.recognize_alt_sym([(1, 0)], 2)


# -- cycle notation -------------------------------------------------------------------


def test_cycle_notation_round_trip():
    for text in ["(1 2 3)(4 5)", "()", "(2 7)", "(1 3 5)(2 4 6)"]:
        perm = pg.parse_cycles(text, 7)
        assert pg.parse_cycles(pg.format_cycles(perm), 7) == perm


def test_format_identity():
    assert pg.format_cycles(pg.identity_perm(5)) == "()"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        pg.parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        pg.parse_cycles("1 2 3", 3)
    with pytest.raises(ValueError):
        pg.parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        pg.parse_cycles("(1 9)", 3)
