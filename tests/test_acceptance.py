"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from altsep import permgroup
from altsep.cli import main, parse_problem, run_separate
from altsep.covers import build_separating_cover, word_action
from altsep.factors import enumerate_group
from altsep.kurosh import check_decomposition, kurosh_decompose
from altsep.subgroups import (
    VERDICT_NOT_APPLICABLE,
    MembershipTester,
    based_fixpoint,
    build_subgroup_graph,
    hypothesis_check,
    membership,
)
from altsep.words import flat_form, word_inverse, x_letter as x, y_letter as y

from conftest import make_spec
from oracles import (
    build_graph,
    canonical_form,
    component_subgraphs,
    embed_Y_component,
    exhaustive_closure,
    fixpoint_contains,
    fold_pairs,
    intersection_ball_oracle,
    is_connected,
    iter_ball,
    normal_form_oracle,
    random_fold,
    random_raw_word,
    reidemeister_schreier,
    saturation_defects,
    spell,
    subgroup_ball,
    wedge_graph,
)

DEMO = """\
[free]      rank = 2
[finite]    degree = 3 ; gens = y1: (1 2 3); y2: (1 2)
[subgroup]  h1 = y1 x1^-1 y1
            h2 = x1 x2 x1^-1
[separate]  g1 = y2
"""


def report(criterion, ok):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def tables():
    return {
        "z2": enumerate_group(2, [(1, 0)]),
        "z3": enumerate_group(3, [(1, 2, 0)]),
        "s3": enumerate_group(3, [(1, 2, 0), (1, 0, 2)]),
    }


# -- 1: positive end-to-end example ------------------------------------------------


def test_criterion_1_positive_example():
    started = time.monotonic()
    spec = parse_problem(DEMO)
    outcome = run_separate(spec)
    elapsed = time.monotonic() - started
    doc = outcome.document
    ok = outcome.exit_code == 0
    ok = ok and doc["prime"] is True
    degree = doc["degree"]
    ok = ok and all(degree % d for d in range(2, degree))
    ok = ok and doc["image_type"] in ("alternating", "symmetric")
    # exact order re-check, zero tolerance
    images = [
        permgroup.parse_cycles(text, degree)
        for text in doc["generator_images"].values()
    ]
    order = permgroup.bsgs_order(images, degree)
    expected = math.factorial(degree)
    if doc["image_type"] == "alternating":
        expected //= 2
    ok = ok and order == expected
    # every subgroup generator fixes the base point, the separator moves it
    base = doc["base_point"] - 1
    named = dict(zip(doc["generator_images"].keys(), images))
    from altsep.covers import word_action

    for word in spec.subgroup_words:
        ok = ok and word_action(named, word, base) == base
    for word in spec.separate_words:
        ok = ok and word_action(named, word, base) != base
    ok = ok and elapsed < 10.0
    report("1 (positive end-to-end example)", ok)


# -- 2: negative end-to-end example -------------------------------------------------


def test_criterion_2_negative_example():
    started = time.monotonic()
    z2 = enumerate_group(2, [(1, 0)])
    flip = 1
    generators = reidemeister_schreier(z2, 2, 1, [flip, flip], [z2.identity])
    spec = make_spec(z2, subgroup_words=generators, separate_words=[(x(1),)])
    outcome = run_separate(spec)
    elapsed = time.monotonic() - started
    ok = outcome.exit_code == 2
    ok = ok and outcome.document["reason"] == "HypothesisNotSatisfied"
    ok = ok and elapsed < 5.0
    report("2 (index-two kernel rejected)", ok)


# -- 3 and 8: randomized accepted runs ------------------------------------------------


def random_spec(rng, groups):
    table = groups[rng.choice(list(groups))]
    alphabet = [x(1), x(1, -1), x(2), x(2, -1)]
    alphabet += [y(j, s) for j in range(1, table.num_generators + 1) for s in (1, -1)]

    def word(max_len):
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))

    subgroup_words = [word(4) for _ in range(rng.randint(0, 2))]
    separate_words = [word(3) for _ in range(rng.randint(1, 2))]
    return make_spec(table, subgroup_words, separate_words)


def accepted_runs(count, seed):
    rng = random.Random(seed)
    groups = tables()
    runs = []
    attempts = 0
    while len(runs) < count and attempts < 400:
        attempts += 1
        spec = random_spec(rng, groups)
        built = build_subgroup_graph(spec)
        if any(end == built.graph.base for end in built.separator_ends):
            continue
        verdict = hypothesis_check(built.graph, spec.free.rank)
        if verdict.kind == "not_applicable":
            continue
        result = build_separating_cover(spec, built.graph, verdict)
        runs.append((spec, built, result))
    return runs


@pytest.fixture(scope="module")
def pipeline_runs():
    return accepted_runs(20, seed=20240601)


def test_criterion_3_degree_identity(pipeline_runs):
    ok = len(pipeline_runs) >= 20
    for _spec, _built, result in pipeline_runs:
        plan = result.plan
        ok = ok and len(result.cover.vertices) == plan.degree
        ok = ok and plan.degree == plan.base_size + plan.chain_length + 4
        move = result.images[f"x{result.params.move_letter}"]
        ok = ok and len(permgroup.support(move)) <= plan.base_size + 4
    report(f"3 (degree identity on {len(pipeline_runs)} random accepted runs)", ok)


def test_criterion_8_cover_certificates(pipeline_runs):
    from altsep.words import x_alphabet, y_alphabet

    ok = len(pipeline_runs) >= 20
    for spec, built, result in pipeline_runs:
        graph = result.cover
        table = spec.finite
        ok = ok and saturation_defects(graph, x_alphabet(spec.free.rank)) == []
        ok = ok and saturation_defects(graph, y_alphabet(table.num_generators)) == []
        ok = ok and is_connected(graph)
        _orbits, transitive = permgroup.orbit_transitive(
            list(result.images.values()), result.plan.degree
        )
        ok = ok and transitive
        for component, _anchor in component_subgraphs(graph, "y"):
            cover, embedding = embed_Y_component(table, component)
            ok = ok and len(embedding) == len(cover.vertices)
        ok = ok and built.graph.pairs <= graph.pairs
    report("8 (cover certificates on every accepted run)", ok)


# -- 4: folding confluence -------------------------------------------------------------


def random_unfolded_graph(rng):
    alphabet = [x(1), x(1, -1), x(2), x(2, -1), y(1), y(1, -1)]
    edges = set()
    vertices = [0]
    next_id = 1
    for _ in range(rng.randint(2, 5)):
        length = rng.randint(1, 7)
        current = 0
        for i in range(length):
            close = i == length - 1 and rng.random() < 0.6
            target = 0 if close else next_id
            if not close:
                vertices.append(next_id)
                next_id += 1
            letter = rng.choice(alphabet)
            u, w, lab = (current, target, letter) if letter.sign > 0 else (
                target, current, letter.inverse())
            edges.add((u, w, lab))
            current = target
    return build_graph(vertices, edges, 0)


def test_criterion_4_folding_confluence():
    rng = random.Random(1812)
    failures = 0
    for _ in range(100):
        graph = random_unfolded_graph(rng)
        reference = canonical_form(fold_pairs(graph)[0])
        for _ in range(5):
            if canonical_form(random_fold(graph, rng)) != reference:
                failures += 1
    report("4 (folding confluence, 100 graphs x 5 orders)", failures == 0)


# -- 5: membership oracle equivalence ----------------------------------------------------


def membership_fixtures(groups):
    z2, z3, s3 = groups["z2"], groups["z3"], groups["s3"]
    return [
        make_spec(z2, []),
        make_spec(z2, [(x(1), x(1))]),
        make_spec(z2, [(y(1),), (x(1), y(1), x(1, -1))]),
        make_spec(z2, [(x(1), x(1)), (x(2), x(2))]),
        make_spec(z2, [(x(1), y(1))]),
        make_spec(z2, [(x(1), x(2), x(1, -1)), (y(1), x(2))]),
        make_spec(z3, [(y(1), x(1))]),
        make_spec(z3, [(x(1), x(1)), (y(1),)]),
        make_spec(z3, [(x(2), y(1), x(2, -1))]),
        make_spec(s3, [(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))]),
    ]


def test_criterion_5_membership_oracle_equivalence():
    groups = tables()
    fixtures = membership_fixtures(groups)
    assert len(fixtures) >= 10
    rng = random.Random(99)
    discrepancies = 0
    for spec in fixtures:
        table = spec.finite
        built = build_subgroup_graph(spec)
        tester = MembershipTester(built.graph, table)
        ball = subgroup_ball(table, spec.subgroup_words, 6)
        # exhaustive over all elements of length <= 6 (every word of length
        # <= 6 spells one of these)
        for form in iter_ball(2, table, 6):
            if tester.contains(spell(form, table)) != (form in ball):
                discrepancies += 1
        # spot-check raw unreduced words against their reduced spellings
        for _ in range(150):
            raw = random_raw_word(rng, 2, table.num_generators, 6)
            form = normal_form_oracle(raw, table)
            if tester.contains(raw) != (form in ball):
                discrepancies += 1
    report("5 (membership vs exhaustive enumeration, 10 fixtures, length 6)",
           discrepancies == 0)


PROBLEM_FILES = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.txt"))


def test_membership_reader_matches_fixpoint_oracle():
    """The normal-form reader agrees with gluing the query onto the graph
    and re-running the full fixpoint, on the criterion-5 fixtures and the
    problem files, for raw words longer than criterion 5's ball."""
    specs = membership_fixtures(tables())
    specs += [parse_problem(path.read_text()) for path in PROBLEM_FILES]
    assert len(PROBLEM_FILES) == 6
    rng = random.Random(7)
    for spec in specs:
        table = spec.finite
        graph = build_subgroup_graph(replace(spec, separate_words=())).graph
        tester = MembershipTester(graph, table)
        words = [(), *spec.separate_words]
        words += [
            random_raw_word(rng, spec.free.rank, table.num_generators, 20, min_len=7)
            for _ in range(200)
        ]
        # products of generators and their inverses, all members
        generators = [*spec.subgroup_words, *map(word_inverse, spec.subgroup_words)]
        products = [
            sum((rng.choice(generators) for _ in range(rng.randint(1, 4))), ())
            for _ in range(50 if generators else 0)
        ]
        for word in words + products:
            assert tester.contains(word) == fixpoint_contains(graph, table, word), word
        assert all(tester.contains(word) for word in products)


def test_subgroup_graph_matches_the_pair_set_wedge():
    """build_subgroup_graph, whose wedge is written into slots, builds the
    graph, vertex ids and separator ends of the wedge folded through a
    canonical pair set (``oracles.wedge_graph``) and then run through the
    fixpoint, on the demo, the criterion-5 fixtures, the problem files and
    120 seeded random problems."""
    groups = tables()
    specs = [parse_problem(DEMO), *membership_fixtures(groups)]
    specs += [parse_problem(path.read_text()) for path in PROBLEM_FILES]
    rng = random.Random(2024)
    specs += [random_spec(rng, groups) for _ in range(120)]
    for spec in specs:
        built = build_subgroup_graph(spec)
        wedge, ends = wedge_graph(0, spec.subgroup_words, spec.separate_words)
        graph, tracked = based_fixpoint(wedge, spec.finite, ends)
        assert built.graph == graph and built.graph.vertices == graph.vertices
        assert built.separator_ends == tracked


# -- 6: decomposition soundness -------------------------------------------------------------


def test_criterion_6_kurosh_soundness():
    groups = tables()
    z2, s3 = groups["z2"], groups["s3"]
    fixtures = [
        make_spec(z2, [(x(1), x(1))]),
        make_spec(z2, [(y(1),), (x(1), y(1), x(1, -1))]),
        make_spec(z2, [(x(1), x(1)), (x(2), x(2))]),
        make_spec(z2, [(x(1), y(1))]),
        make_spec(s3, [(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))]),
        make_spec(z2, []),
    ]
    ok = True
    for spec in fixtures:
        built = build_subgroup_graph(spec)
        decomposition = kurosh_decompose(built.graph, spec.finite)
        delta = decomposition.delta
        ok = ok and decomposition.free_rank == len(delta.pairs) - len(delta.vertices) + 1
        _checked, counterexamples = intersection_ball_oracle(
            built.graph, spec.finite, spec.free.rank, decomposition, 6
        )
        ok = ok and not counterexamples
        ok = ok and not check_decomposition(spec, built.graph, decomposition)
    report("6 (intersection identities at length 6, rank formula, exact check)", ok)


# -- 7: order oracle and recognition ----------------------------------------------------------


def test_criterion_7_bsgs_oracle_equivalence():
    cases = [
        ([permgroup.parse_cycles("(1 2)", 4), permgroup.parse_cycles("(1 2 3 4)", 4)], 4),
        ([permgroup.parse_cycles("(1 2 3 4)", 4), permgroup.parse_cycles("(1 3)", 4)], 4),
        ([permgroup.parse_cycles("(1 2)(3 4)", 4), permgroup.parse_cycles("(1 3)(2 4)", 4)], 4),
        ([permgroup.parse_cycles("(1 2 3 4 5)", 5), permgroup.parse_cycles("(1 2 3)", 5)], 5),
        ([permgroup.parse_cycles("(1 2)", 5), permgroup.parse_cycles("(1 2 3 4 5)", 5)], 5),
        ([permgroup.parse_cycles("(1 2 3 4 5 6)", 6), permgroup.parse_cycles("(2 6)(3 5)", 6)], 6),
        ([permgroup.parse_cycles("(1 2 3)", 6), permgroup.parse_cycles("(4 5 6)", 6),
          permgroup.parse_cycles("(1 4)(2 5)(3 6)", 6)], 6),
        ([permgroup.parse_cycles("(1 2)", 6), permgroup.parse_cycles("(1 2 3 4 5 6)", 6)], 6),
        ([permgroup.parse_cycles("(1 2 3)", 7), permgroup.parse_cycles("(1 2 3 4 5 6 7)", 7)], 7),
        ([permgroup.parse_cycles("(1 2)", 7), permgroup.parse_cycles("(1 2 3 4 5 6 7)", 7)], 7),
        ([permgroup.parse_cycles("(1 2 3 4 5 6 7)", 7)], 7),
        ([permgroup.parse_cycles("(1 2 3 4)(5 6 7)", 8), permgroup.parse_cycles("(1 5)", 8)], 8),
    ]
    rng = random.Random(4)
    for _ in range(10):
        degree = rng.randint(4, 6)
        gens = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(tuple(images))
        cases.append((gens, degree))
    ok = True
    for gens, degree in cases:
        closure = exhaustive_closure(gens, degree)
        ok = ok and len(closure) <= 10000
        ok = ok and permgroup.bsgs_order(gens, degree) == len(closure)
    recognition = [
        (["(1 2 3 4 5)", "(1 2 3)"], 5, permgroup.ALTERNATING),
        (["(1 2)", "(1 2 3 4 5)"], 5, permgroup.SYMMETRIC),
        (["(1 2 3 4 5 6 7)", "(1 2 3)"], 7, permgroup.ALTERNATING),
        (["(1 2)", "(1 2 3 4 5 6 7)"], 7, permgroup.SYMMETRIC),
    ]
    for texts, degree, expected in recognition:
        gens = [permgroup.parse_cycles(t, degree) for t in texts]
        ok = ok and permgroup.recognize_alt_sym(gens, degree) == expected
    report("7 (order oracle equivalence and A/S recognition)", ok)


# -- 9: determinism ------------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path, capsys):
    path = tmp_path / "demo.txt"
    path.write_text(DEMO)
    outputs = []
    dot_contents = []
    for run in range(2):
        dots = tmp_path / f"dots{run}"
        code = main(["separate", str(path), "--emit-dot", str(dots)])
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
        dot_contents.append(
            {p.name: p.read_bytes() for p in sorted(dots.iterdir())}
        )
    ok = outputs[0] == outputs[1] and dot_contents[0] == dot_contents[1]
    ok = ok and json.loads(outputs[0]) == json.loads(outputs[1])
    report("9 (byte-identical certificates and DOT files)", ok)


# -- 10 and 11: random problem files end to end ----------------------------------------------

# (degree, generators' cycles) of Z2, S3, D4, A4 and S4
FINITE_FACTORS = [
    (2, ["(1 2)"]),
    (3, ["(1 2 3)", "(1 2)"]),
    (4, ["(1 2 3 4)", "(2 4)"]),
    (4, ["(1 2 3)", "(2 3 4)"]),
    (4, ["(1 2 3 4)", "(1 2)"]),
]


def random_word_text(rng, terms, max_terms, min_terms=0):
    """A word of min_terms to max_terms terms, each drawn from ``terms``
    with exponent 1, -1, 2 or -2; "1" when it has none."""
    picked = [f"{rng.choice(terms)}^{rng.choice((1, -1, 2, -2))}"
              for _ in range(rng.randint(min_terms, max_terms))]
    return " ".join(picked) or "1"


def letter_terms(rank, finite):
    return [f"x{i}" for i in range(1, rank + 1)] + [f"y{j}" for j in range(1, len(finite[1]) + 1)]


def problem_text(rank, finite, subgroup_words, separate_words):
    degree, cycles = finite
    gens = "; ".join(f"y{j}: {c}" for j, c in enumerate(cycles, 1))
    return "\n".join([
        f"[free] rank = {rank}",
        f"[finite] degree = {degree} ; gens = {gens}",
        "[subgroup] " + " ; ".join(f"h{i} = {w}" for i, w in enumerate(subgroup_words, 1)),
        "[separate] " + " ; ".join(f"g{j} = {w}" for j, w in enumerate(separate_words, 1)),
    ]) + "\n"


def test_criterion_10_infinite_index_free_subgroups_are_separated():
    """The paper's corollary: a finitely generated subgroup of infinite
    index in F is A-or-S-separable in F * G.  An x-only subgroup whose
    words avoid x_r lies in F_{r-1}, of infinite index in F_r; a
    separator whose reduced form holds x_r or a nontrivial y-element lies
    outside it.  Every such problem gets a certificate whose images move
    the base point by every separator."""
    rng = random.Random(2035)
    ok = True
    runs = 0
    for rank in (2, 3):
        inside = [f"x{i}" for i in range(1, rank)]
        for finite in FINITE_FACTORS:
            every = letter_terms(rank, finite)
            for _ in range(10):
                subgroup = [random_word_text(rng, inside, 4, 1) for _ in range(rng.randint(1, 3))]
                separate = []
                for _ in range(rng.randint(1, 2)):
                    while True:
                        text = random_word_text(rng, every, 4, 1)
                        spec = parse_problem(problem_text(rank, finite, subgroup, [text]))
                        if any(isinstance(term, int) or term.index == rank
                               for term in flat_form(spec.separate_words[0], spec.finite)):
                            break
                    separate.append(text)
                spec = parse_problem(problem_text(rank, finite, subgroup, separate))
                outcome = run_separate(spec)
                runs += 1
                ok = ok and outcome.exit_code == 0
                if outcome.exit_code == 0:
                    doc = outcome.document
                    images = {name: permgroup.parse_cycles(text, doc["degree"])
                              for name, text in doc["generator_images"].items()}
                    base = doc["base_point"] - 1
                    ok = ok and all(word_action(images, word, base) != base
                                    for word in spec.separate_words)
    report(f"10 (infinite-index free subgroups separated, {runs} runs)", ok)


def test_criterion_11_random_problems_under_full_verification(tmp_path, capsys):
    """Seeded small problems through the command line with
    ``--verify-level full``: the exit code is 0, 2 or 3, never an input
    error (1) or an internal one (4), and each agrees with an independent
    reading: exit 3 names the first separator that is a member, exit 0
    means none is and the decomposition check found no counterexample,
    and exit 2 means the eligibility verdict is "not applicable"."""
    rng = random.Random(2036)
    path = tmp_path / "problem.txt"
    codes = []
    ok = True
    for _ in range(80):
        rank = rng.choice((2, 3))
        finite = rng.choice(FINITE_FACTORS + [(2, ["()"])])
        terms = letter_terms(rank, finite)
        text = problem_text(
            rank, finite,
            [random_word_text(rng, terms, 7) for _ in range(rng.randint(1, 3))],
            [random_word_text(rng, terms, 7) for _ in range(rng.randint(1, 3))])
        path.write_text(text)
        code = main(["separate", str(path), "--verify-level", "full"])
        captured = capsys.readouterr()
        codes.append(code)
        spec = parse_problem(text)
        members = [j for j, word in enumerate(spec.separate_words, 1) if membership(spec, word)]
        if code == 3:
            ok = ok and json.loads(captured.out)["separator_index"] == members[0]
        elif code == 0:
            ok = ok and not members and "counterexamples=0" in captured.err
        elif code == 2:
            verdict = hypothesis_check(build_subgroup_graph(spec).graph, rank)
            ok = ok and verdict.kind == VERDICT_NOT_APPLICABLE
        else:
            ok = False
    counts = {code: codes.count(code) for code in sorted(set(codes))}
    ok = ok and counts.get(0, 0) >= 30 and counts.get(3, 0) >= 20
    report(f"11 (random problems under full verification, exit counts {counts})", ok)
