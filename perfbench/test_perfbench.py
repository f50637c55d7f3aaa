"""Self-tests of the benchmark: its generator, checker and tracer.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

import contextlib
import copy
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import problems  # noqa: E402
from tracing import Tracer  # noqa: E402
from altsep import cli, kurosh, subgroups, words  # noqa: E402

DEMO = HERE.parent / "problems" / "s3_conjugates.txt"


def separate(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["separate", str(path)])
    return code, out.getvalue()


def altsep_word(word):
    make = {"x": words.x_letter, "y": words.y_letter}
    return tuple(make[f](i, s) for f, i, s in word)


@pytest.fixture(scope="module")
def demo_certificate():
    code, output = separate(DEMO)
    assert code == 0
    return problems.parse_problem(DEMO.read_text()), json.loads(output)


def test_generator_is_deterministic_per_seed():
    texts = lambda seed: [p.text() for p, _code in problems.certify_problems(seed)]
    assert texts(5) == texts(5)
    assert texts(5) != texts(6)
    assert problems.membership_inputs(5, 8) == problems.membership_inputs(5, 8)
    assert [p.text() for p in problems.decompose_problems(5)] == [
        p.text() for p in problems.decompose_problems(5)]


def test_generated_text_round_trips_through_the_parser():
    for problem, _code in problems.certify_problems(3):
        parsed = problems.parse_problem(problem.text())
        assert (parsed.rank, parsed.degree, parsed.ygens, parsed.subgroup, parsed.separate) == (
            problem.rank, problem.degree, problem.ygens, problem.subgroup, problem.separate)


def test_ladder_rungs_have_their_degree(tmp_path):
    ladder = problems.certify_problems(2)
    small = [(p, code) for p, code in ladder if code == 0 and p.name.endswith(("degree 7", "degree 11"))]
    assert small
    for problem, _code in small:
        path = tmp_path / "rung.txt"
        path.write_text(problem.text())
        code, output = separate(path)
        assert code == 0
        cert = json.loads(output)
        assert f"degree {cert['degree']}" in problem.name
        assert checker.check_certificate(problem, cert, "test") == []


def test_checker_accepts_a_genuine_certificate(demo_certificate):
    problem, cert = demo_certificate
    assert checker.check_certificate(problem, cert, "test") == []


def tampered(cert, change):
    cert = copy.deepcopy(cert)
    change(cert)
    return cert


def swap_sigmas(cert):
    images = cert["generator_images"]
    images["y1"], images["y2"] = images["y2"], images["y1"]


def move_base(cert):
    cert["base_point"] = cert["base_point"] % cert["degree"] + 1


def flip_type(cert):
    cert["image_type"] = {"alternating": "symmetric", "symmetric": "alternating"}[cert["image_type"]]


def composite_degree(cert):
    cert["degree"] += 1


def wrong_separation(cert):
    cert["separations"][0]["base_image_vertex"] = cert["base_point"]


@pytest.mark.parametrize("change", [swap_sigmas, move_base, flip_type, composite_degree,
                                    wrong_separation])
def test_checker_rejects_tampered_certificates(demo_certificate, change):
    problem, cert = demo_certificate
    assert checker.check_certificate(problem, tampered(cert, change), "test")


def test_jordan_witness_needs_a_prime_cycle():
    # (1 2 3) in degree 7: one 3-cycle, 3 <= 7 - 3, fixed points coprime.
    assert checker.jordan_prime((1, 2, 0, 3, 4, 5, 6), 7) == 3
    # A 7-cycle alone is no witness (q must be at most p - 3).
    assert checker.jordan_prime((1, 2, 3, 4, 5, 6, 0), 7) is None
    # Two 2-cycles: the 2-cycle is not single.
    assert checker.jordan_prime((1, 0, 3, 2, 4, 5, 6), 7) is None


def test_membership_labels_agree_with_phi_and_altsep():
    problem, queries = problems.membership_inputs(4, 6)
    for word, member in queries:
        assert (problems.act(problem.phi, word, 0) == 0) is member
    spec = cli.parse_problem(problem.text())
    tester = subgroups.MembershipTester(subgroups.build_subgroup_graph(spec).graph, spec.finite)
    for word, member in queries:
        assert tester.contains(altsep_word(word)) is member


def test_decomposition_checker_accepts_altsep_and_rejects_tampering():
    gen = problems.Generator("small", "S3", 2)
    problem = gen.problem("small", [gen.fixing_word(12, 1) for _ in range(4)], [])
    spec = cli.parse_problem(problem.text())
    graph = subgroups.build_subgroup_graph(spec).graph
    verdict = subgroups.hypothesis_check(graph, spec.free.rank)
    decomposition = kurosh.kurosh_decompose(graph, spec.finite)
    elements = spec.finite.elements
    assert checker.check_decomposition(problem, graph, verdict.kind, decomposition, elements) == []
    wrong_rank = dataclasses.replace(decomposition, free_rank=decomposition.free_rank + 1)
    assert checker.check_decomposition(problem, graph, verdict.kind, wrong_rank, elements)
    other = problems.Generator("other", "S3", 2)
    assert checker.check_decomposition(
        other.problem("other", problem.subgroup, []), graph, verdict.kind, decomposition, elements)


def test_tracer_patches_every_binding_and_keeps_certificates():
    original = subgroups.components
    code, plain = separate(DEMO)
    tracer = Tracer()
    tracer.install()
    try:
        for module in (sys.modules["altsep.graphs"], subgroups, sys.modules["altsep.covers"],
                       cli, kurosh):
            assert module.components is not original
        traced_code, traced = separate(DEMO)
    finally:
        tracer.remove()
    assert subgroups.components is original and cli.components is original
    assert (traced_code, traced) == (code, plain)
    summary = tracer.summary()
    assert summary["permgroup.bsgs_order"]["calls"] == 2
    assert summary["cli.main"]["self_s"] <= summary["cli.main"]["s"]
    assert summary["permgroup.compose"]["calls"] > 0
