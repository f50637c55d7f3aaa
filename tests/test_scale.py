"""Runs past the toy problem files, each under a time bound.

The bounds are generous, about ten times the runs' times on two cores of
a shared x86-64 host (S_5 0.1 s, S_6 1.5 s, degree 61 0.15 s), so that
they catch a hang rather than a small slowdown.  While recognition built
two full Schreier-Sims chains per certificate, the degree-61 run alone
took over a minute.  The decompose-sized subgroup graph (about 950
vertices, 0.05 s) has a bound of 5 s, and so has the exact check of its
decomposition (0.02 s); the first coset round of its fixpoint is pinned
to the y-components the first fold touched.  Membership on that graph
reads a 100,000-letter member in 0.011 s and ten 10,000-letter
non-members in 0.07 s; their bounds of 0.15 s and 1 s catch a reader
that normalizes or slices the rest of a word once per letter.  The
Kurosh rung, about 2,900 vertices with x-factors and nontrivial finite
factors, decomposes in 0.005 s (bound 1 s); a 10,001-vertex x-cycle
decomposes in 0.2 s (bound 3 s) and peaks at about 5 MB of traced
memory (bound 40 MB), where a root path kept per vertex would take
about 200 MB.  With recognition stubbed,
the cover layer builds a degree-8,317 cover in 0.16 s (0.65 s while it
re-checked the whole cover for foldedness at every stage), under a bound
of 2 s.  160 y-components whose loop subgroup is all of S_8 get their
subgroup graph in 0.11 s (bound 1.5 s) and certify in about 2 s in a
child process under a 1 GB address-space limit (bound 25 s); while each
key was the least of |K| products, these took 4.7 s and 14 s.
"""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import altsep
from altsep import permgroup, subgroups
from altsep.cli import main, parse_problem
from altsep.covers import build_separating_cover
from altsep.graphs import components
from altsep.kurosh import check_decomposition, kurosh_decompose
from altsep.subgroups import MembershipTester, build_subgroup_graph, hypothesis_check
from altsep.words import word_inverse, x_letter as x, y_letter as y

from conftest import make_spec, s8_leaf_problem
from oracles import assert_same_decomposition, kurosh_oracle, random_raw_word


def symmetric_factor_problem(n):
    """G = S_n from an n-cycle and a transposition; H is generated by G
    and one conjugate of the n-cycle; x2 is separated."""
    cycle = " ".join(str(i) for i in range(1, n + 1))
    return (
        "[free]      rank = 2\n"
        f"[finite]    degree = {n} ; gens = y1: ({cycle}); y2: (1 2)\n"
        "[subgroup]  h1 = y1\n"
        "            h2 = y2\n"
        "            h3 = x1 y1 x1^-1\n"
        "[separate]  g1 = x2\n"
    )


# F_2 * S_3 with two seeded random subgroup words of length 18 over x1,
# x1^-1, y1, y2 and a separator ending in x2: a degree-61 cover.
DEGREE_61 = """\
[free]      rank = 2
[finite]    degree = 3 ; gens = y1: (1 2 3); y2: (1 2)
[subgroup]  h1 = y1 y2 y2 y1 x1 y1 y1 x1 x1 y2 x1 x1 y1 x1 y1 x1 x1 x1^-1
            h2 = y1 x1^-1 x1^-1 y2 x1 y2 x1^-1 x1 x1 x1^-1 y1 y1 y1 y1 x1 y2 x1 x1
[separate]  g1 = y1 y1 y2 x2
"""


@pytest.mark.parametrize("text, degree, bound_s", [
    (symmetric_factor_problem(5), 31, 10),
    (symmetric_factor_problem(6), 127, 15),
    (DEGREE_61, 61, 10),
], ids=["S5", "S6", "degree61"])
def test_certificate_within_time_bound(tmp_path, capsys, text, degree, bound_s):
    path = tmp_path / "problem.txt"
    path.write_text(text)
    started = time.monotonic()
    assert main(["separate", str(path)]) == 0
    elapsed = time.monotonic() - started
    document = json.loads(capsys.readouterr().out)
    assert document["degree"] == degree
    assert document["image_type"] in ("alternating", "symmetric")
    assert all(s["separated"] for s in document["separations"])
    assert elapsed < bound_s, f"took {elapsed:.1f} s, bound {bound_s} s"


def decompose_sized_words(s3):
    """Six seeded 200-letter subgroup words of F_2 * S_3."""
    rng = random.Random(1)
    return [random_raw_word(rng, 2, s3.num_generators, 200, 200) for _ in range(6)]


def test_decompose_sized_subgroup_within_time_bound(s3):
    """Subgroup graph, verdict and Kurosh decomposition of the
    decompose-sized subgroup."""
    words = decompose_sized_words(s3)
    started = time.monotonic()
    built = build_subgroup_graph(make_spec(s3, words))
    verdict = hypothesis_check(built.graph, 2)
    decomposition = kurosh_decompose(built.graph, s3)
    elapsed = time.monotonic() - started
    assert len(built.graph.vertices) > 800
    assert verdict.kind
    assert decomposition.factors
    assert elapsed < 5, f"took {elapsed:.1f} s, bound 5 s"


def test_first_coset_round_on_the_decompose_sized_subgroup_scans_few_components(
        s3, monkeypatch):
    """The first coset round of the decompose-sized subgroup's fixpoint
    scans the 55 y-components that hold the base or a survivor of the
    first fold, of the 271 its folded wedge has; a full first scan, the
    cost this scoping saves, fails the pin."""
    scans = []
    real = subgroups.component_cosets

    def recording(table, graph, starts=None):
        found = real(table, graph, starts)
        scans.append((len(found), len(components(graph, "y"))))
        return found

    monkeypatch.setattr(subgroups, "component_cosets", recording)
    build_subgroup_graph(make_spec(s3, decompose_sized_words(s3)))
    assert scans[0] == (55, 271)


def test_decomposition_check_on_the_decompose_sized_subgroup_within_time_bound(s3):
    """The exact check of the decompose-sized subgroup's decomposition:
    its generators traced, their subgroup graph built and the six words
    tested for membership in it."""
    spec = make_spec(s3, decompose_sized_words(s3))
    graph = build_subgroup_graph(spec).graph
    decomposition = kurosh_decompose(graph, s3)
    started = time.monotonic()
    faults = check_decomposition(spec, graph, decomposition)
    elapsed = time.monotonic() - started
    assert faults == []
    assert elapsed < 5, f"took {elapsed:.2f} s, bound 5 s"


def kurosh_rung_words(s3):
    """Sixty seeded conjugates a c a^-1 in F_2 * S_3, each a of 60 letters:
    c is a random 3-8-letter x-word for odd i, whose cycle makes an
    x-factor, and a generator of S_3 for even i, whose loop makes a
    y-factor with K != 1."""
    rng = random.Random(5)
    words = []
    for i in range(60):
        a = random_raw_word(rng, 2, s3.num_generators, 60, 60)
        c = random_raw_word(rng, 2, 0, 8, 3) if i % 2 else (y(rng.randint(1, 2)),)
        words.append(a + c + word_inverse(a))
    return words


def test_kurosh_rung_with_x_factors_and_nontrivial_loop_subgroups(s3):
    """A subgroup graph of about 2,900 vertices whose x-components have
    cycles and whose y-components have nontrivial loop subgroups, which
    the decompose-sized subgroup has none of: its decomposition is the
    pair-set oracle's."""
    graph = build_subgroup_graph(make_spec(s3, kurosh_rung_words(s3))).graph
    started = time.monotonic()
    decomposition = kurosh_decompose(graph, s3)
    elapsed = time.monotonic() - started
    assert len(graph.vertices) > 2500
    assert sum(f.factor == "x" for f in decomposition.factors) >= 25
    assert sum(f.factor == "y" and len(f.subgroup) > 1 for f in decomposition.factors) >= 25
    assert_same_decomposition(decomposition, kurosh_oracle(graph, s3))
    assert elapsed < 1, f"took {elapsed:.2f} s, bound 1 s"


def test_loop_word_of_a_long_x_cycle_in_linear_memory(s3):
    """x1^10000 x2 makes one x-cycle of 10,001 vertices and one loop word
    of 10,001 letters.  Only the two ends of its one non-tree pair get a
    root path, so the decomposition peaks at about 5 MB; a root path kept
    for every vertex of the cycle would hold 25 million letters, over
    200 MB."""
    graph = build_subgroup_graph(make_spec(s3, [(x(1),) * 10000 + (x(2),)])).graph
    tracemalloc.start()
    try:
        started = time.monotonic()
        decomposition = kurosh_decompose(graph, s3)
        elapsed = time.monotonic() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (factor,) = decomposition.factors
    assert len(factor.loop_words) == 1 and len(factor.loop_words[0]) == 10001
    assert_same_decomposition(decomposition, kurosh_oracle(graph, s3))
    assert peak < 40 * 2 ** 20, f"peaked at {peak / 2 ** 20:.0f} MB, bound 40 MB"
    assert elapsed < 3, f"took {elapsed:.2f} s, bound 3 s"


def test_membership_on_the_decompose_sized_subgroup_within_time_bound(s3):
    """A member of 500 generator factors reads through the graph; ten
    random 10,000-letter words leave it and are read to the end."""
    words = decompose_sized_words(s3)
    graph = build_subgroup_graph(make_spec(s3, words)).graph
    assert len(graph.vertices) > 800
    tester = MembershipTester(graph, s3)
    rng = random.Random(2)
    member = ()
    for _ in range(500):
        word = rng.choice(words)
        member += word if rng.random() < 0.5 else word_inverse(word)
    others = [random_raw_word(rng, 2, s3.num_generators, 10000, 10000) for _ in range(10)]
    started = time.monotonic()
    assert tester.contains(member)
    member_s = time.monotonic() - started
    started = time.monotonic()
    assert not any(tester.contains(word) for word in others)
    others_s = time.monotonic() - started
    assert member_s < 0.15, f"member took {member_s:.3f} s, bound 0.15 s"
    assert others_s < 1, f"non-members took {others_s:.2f} s, bound 1 s"


def test_cover_layer_at_degree_8317_within_time_bound(s3, monkeypatch):
    """F_2 * S_3 with two seeded random subgroup words of length 3,000
    over x1, x1^-1, y1, y2, and the separator y1 y1 y2 x2: steps 1-4 of
    the cover build, with recognition stubbed."""
    rng = random.Random(7)
    letters = [x(1), x(1, -1), y(1), y(2)]
    words = [[rng.choice(letters) for _ in range(3000)] for _ in range(2)]
    spec = make_spec(s3, words, [(y(1), y(1), y(2), x(2))])
    graph = build_subgroup_graph(spec).graph
    verdict = hypothesis_check(graph, 2)
    monkeypatch.setattr(permgroup, "recognize_alt_sym", lambda gens, degree: "alternating")
    started = time.monotonic()
    result = build_separating_cover(spec, graph, verdict)
    elapsed = time.monotonic() - started
    assert result.plan.degree == len(result.cover.vertices) == 8317
    assert elapsed < 2, f"took {elapsed:.2f} s, bound 2 s"


UNDER_1GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
from altsep.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_s8_leaves_within_time_and_memory_bounds(tmp_path):
    """160 leaves whose y-components each have K = S_8: the subgroup
    graph, then ``altsep separate`` in a child process under a 1 GB
    address-space limit."""
    text = s8_leaf_problem(160)
    spec = parse_problem(text)
    started = time.monotonic()
    build_subgroup_graph(spec)
    elapsed = time.monotonic() - started
    assert elapsed < 1.5, f"subgroup graph took {elapsed:.2f} s, bound 1.5 s"
    path = tmp_path / "leaves.txt"
    path.write_text(text)
    src = Path(altsep.__file__).resolve().parent.parent
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-c", UNDER_1GB, "separate", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    elapsed = time.monotonic() - started
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["separations"][0]["separated"]
    assert elapsed < 25, f"took {elapsed:.1f} s, bound 25 s"
