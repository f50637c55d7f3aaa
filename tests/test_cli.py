import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import altsep
from altsep import permgroup
from altsep.cli import (
    MAX_FREE_RANK,
    MAX_WORD_LENGTH,
    ProblemFormatError,
    export_dot,
    main,
    parse_problem,
    parse_word,
    run_separate,
)
from altsep.covers import CoverSearchExhaustedError
from altsep.graphs import build_graph
from altsep.words import word_str, x_letter as x, y_letter as y

from conftest import make_spec

DEMO = """\
# conjugated pair over S3
[free]      rank = 2
[finite]    degree = 3 ; gens = y1: (1 2 3); y2: (1 2)
[subgroup]  h1 = y1 x1^-1 y1
            h2 = x1 x2 x1^-1
[separate]  g1 = y2
"""

KERNEL = """\
[free]     rank = 2
[finite]   degree = 2 ; gens = y1: (1 2)
[subgroup] h1 = x2 x1^-1
           h2 = y1
           h3 = x1^2
           h4 = x1 x2
           h5 = x1 y1 x1^-1
[separate] g1 = x1
"""


# -- word grammar ------------------------------------------------------------------


def test_parse_word_mixed_letters():
    assert parse_word("y1 x1^-1 y1", 2, 2, 1) == (y(1), x(1, -1), y(1))


def test_parse_word_identity_literal():
    assert parse_word("1", 2, 2, 1) == ()


def test_parse_word_exponent_expansion():
    assert parse_word("x1^2", 2, 1, 1) == (x(1), x(1))
    assert parse_word("x1^-3", 2, 1, 1) == (x(1, -1),) * 3
    assert parse_word("x1^0", 2, 1, 1) == ()


def test_parse_word_errors_carry_position():
    with pytest.raises(ProblemFormatError) as err:
        parse_word("x1 q2", 2, 1, 7)
    assert err.value.line == 7 and err.value.column == 4
    with pytest.raises(ProblemFormatError):
        parse_word("x3", 2, 1, 1)
    with pytest.raises(ProblemFormatError):
        parse_word("y2", 2, 1, 1)


def test_parse_word_rejects_oversized_words_before_expanding():
    assert len(parse_word(f"x1^-{MAX_WORD_LENGTH}", 2, 1, 1)) == MAX_WORD_LENGTH
    with pytest.raises(ProblemFormatError) as err:
        parse_word("x1^1000000000", 2, 1, 5)
    assert err.value.line == 5 and err.value.column == 1
    # the cap counts the whole word, not one term
    with pytest.raises(ProblemFormatError) as err:
        parse_word(f"x2 x1^{MAX_WORD_LENGTH}", 2, 1, 3)
    assert err.value.line == 3 and err.value.column == 4
    # a repeated term is located after the previous one, not at it
    with pytest.raises(ProblemFormatError) as err:
        parse_word("x1^60000 x1^60000", 2, 1, 7)
    assert err.value.line == 7 and err.value.column == 10


def test_word_round_trip_canonical_spelling():
    for text in ["y1 x1^-1 y1", "x1^2", "1", "x1^-2 x2 y1"]:
        assert word_str(parse_word(text, 2, 2, 1)) == text


# -- problem files ------------------------------------------------------------------


def test_parse_demo_problem():
    spec = parse_problem(DEMO)
    assert spec.free.rank == 2
    assert spec.finite.order == 6
    assert [word_str(w) for w in spec.subgroup_words] == ["y1 x1^-1 y1", "x1 x2 x1^-1"]
    assert [word_str(w) for w in spec.separate_words] == ["y2"]


def test_parse_reports_unknown_generator_line():
    bad = DEMO.replace("x1 x2 x1^-1", "x1 x9 x1^-1")
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(bad)
    assert err.value.line == 5


def test_parse_rejects_rank_one():
    with pytest.raises(ProblemFormatError):
        parse_problem("[free] rank = 1\n[finite] degree = 2 ; gens = y1: (1 2)\n")


def test_parse_rejects_bad_section_and_syntax():
    with pytest.raises(ProblemFormatError):
        parse_problem("[nonsense] a = b\n")
    with pytest.raises(ProblemFormatError):
        parse_problem("rank = 2\n")
    with pytest.raises(ProblemFormatError):
        parse_problem("[free] rank = 2\n[finite] degree = 2 ; gens = y2: (1 2)\n")


def test_parse_allows_multiline_and_comments():
    text = (
        "[free]\nrank = 2  # comment\n"
        "[finite]\ndegree = 3\ngens = y1: (1 2 3)\ny2: (1 2)\n"
        "[subgroup]\nh1 = x1^2\n"
        "[separate]\ng1 = y1\n"
    )
    spec = parse_problem(text)
    assert spec.finite.order == 6 and len(spec.subgroup_words) == 1


# -- run_separate ----------------------------------------------------------------------


def test_run_separate_demo_certificate():
    spec = parse_problem(DEMO)
    outcome = run_separate(spec)
    assert outcome.exit_code == 0
    doc = outcome.document
    assert doc["prime"] is True
    assert doc["image_type"] in ("alternating", "symmetric")
    assert doc["pipeline_stats"]["k"] + doc["pipeline_stats"]["n"] + 4 == doc["degree"]
    assert doc["separations"][0]["separated"] is True
    assert set(doc["generator_images"]) == {"x1", "x2", "y1", "y2"}
    assert set(doc["pipeline_stats"]["vertex_counts"]) == {
        "subgroup_graph", "component_covers", "precover", "cover",
    }


def test_run_separate_rejects_kernel():
    spec = parse_problem(KERNEL)
    outcome = run_separate(spec)
    assert outcome.exit_code == 2
    assert outcome.document["reason"] == "HypothesisNotSatisfied"


def test_run_separate_detects_member_separator(z2):
    spec = make_spec(z2, subgroup_words=[(x(1), x(1))], separate_words=[(x(1),) * 4])
    outcome = run_separate(spec)
    assert outcome.exit_code == 3
    assert outcome.document["reason"] == "GammaClosed"
    assert outcome.document["separator_index"] == 1


def test_run_separate_requires_separators(z2):
    with pytest.raises(ValueError):
        run_separate(make_spec(z2, subgroup_words=[(x(1),)]))


# -- DOT export --------------------------------------------------------------------------


def test_export_dot_single_edge():
    g = build_graph([0, 1], [(0, 1, x(1))], 0)
    text = export_dot(g, "stage")
    assert text == (
        "digraph stage {\n"
        "  0 [shape=doublecircle];\n"
        "  1;\n"
        '  0 -> 1 [label="x1"];\n'
        "}\n"
    )


def test_export_dot_interval_counts():
    edges = [(0, 1, x(1)), (1, 2, x(1)), (2, 3, x(1))]
    edges += [(j, j, x(2)) for j in range(4)]
    g = build_graph(range(4), edges, 0)
    text = export_dot(g, "w")
    arcs = [line for line in text.splitlines() if "->" in line]
    assert len(arcs) == 7
    assert sum('label="x1"' in line for line in arcs) == 3
    self_loops = [line for line in arcs if 'label="x2"' in line]
    assert len(self_loops) == 4


def test_export_dot_deterministic():
    g = build_graph([0, 1, 2], [(0, 1, x(1)), (1, 2, y(1)), (2, 2, x(2))], 0)
    assert export_dot(g, "g") == export_dot(g, "g")


# -- command line -------------------------------------------------------------------------


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_main_success_and_dot_files(tmp_path, capsys):
    path = write(tmp_path, "demo.txt", DEMO)
    dots = tmp_path / "dots"
    code = main(["separate", path, "--emit-dot", str(dots)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 13
    names = sorted(p.name for p in dots.iterdir())
    assert names == [
        "component_covers.dot", "cover.dot", "precover.dot", "subgroup_graph.dot",
    ]


def test_main_exit_codes(tmp_path, capsys):
    kernel = write(tmp_path, "ker.txt", KERNEL)
    assert main(["separate", kernel]) == 2
    closed = write(
        tmp_path,
        "closed.txt",
        "[free] rank = 2\n[finite] degree = 2 ; gens = y1: (1 2)\n"
        "[subgroup] h1 = x1^2\n[separate] g1 = x1^4\n",
    )
    assert main(["separate", closed]) == 3
    bad = write(tmp_path, "bad.txt", "[free] rank = banana\n")
    assert main(["separate", bad]) == 1
    huge = write(tmp_path, "huge.txt", DEMO.replace("g1 = y2", "g1 = x1^1000000000"))
    assert main(["separate", huge]) == 1
    assert "line 6, column 18: word longer than" in capsys.readouterr().err
    assert main(["separate", str(tmp_path / "missing.txt")]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_main_rejects_a_file_with_nothing_to_separate(tmp_path):
    path = write(
        tmp_path,
        "nosep.txt",
        "[free] rank = 2\n[finite] degree = 3 ; gens = y1: (1 2 3)\n"
        "[subgroup] h1 = x1 x2\n",
    )
    src = Path(altsep.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", "from altsep.cli import entry; entry()", "separate", path],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "altsep: error: nothing to separate: no [separate] words\n"


@pytest.mark.parametrize("finite, message", [
    ("degree = 1000000000 ; gens = y1: (1 2)",
     "line 2, column 1: finite-factor degree above 100"),
    ("degree = 9 ; gens = y1: (1 2); y2: (1 2 3 4 5 6 7 8 9)",
     "line 2, column 1: finite factor has more than 40320 elements"),
    ("degree = -2 ; gens = y1: ()", "line 2, column 1: finite-factor degree below 1"),
    ("degree = 0 ; gens = y1: ()", "line 2, column 1: finite-factor degree below 1"),
], ids=["degree", "order", "negative-degree", "zero-degree"])
def test_main_rejects_a_hostile_finite_factor_quickly(tmp_path, capsys, finite, message):
    path = write(
        tmp_path,
        "hostile.txt",
        f"[free] rank = 2\n[finite] {finite}\n[subgroup]\n[separate] g1 = x1\n",
    )
    started = time.monotonic()
    assert main(["separate", path]) == 1
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"altsep: error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("[free] rank = 2\n[free] rank = 3\n[finite] degree = 2 ; gens = y1: (1 2)\n"
     "[subgroup]\n[separate] g1 = x3\n", "line 2, column 1: rank defined twice"),
    ("[free] rank = 2\n[finite] degree = 2 ; gens = y1: (1 2)\n[finite] degree = 3\n"
     "[subgroup]\n[separate] g1 = x1\n", "line 3, column 1: degree defined twice"),
], ids=["rank", "degree"])
def test_main_rejects_a_key_defined_twice(tmp_path, capsys, text, message):
    path = write(tmp_path, "twice.txt", text)
    assert main(["separate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"altsep: error: {message}\n"


@pytest.mark.parametrize("words, message", [
    ("[subgroup] h1 = x1\n[separate] g2 = x2 ; g7 = x1 x1\n",
     "line 4, column 1: g2 is out of sequence: separate words must be g1..gm with no gaps"),
    ("[subgroup] h1 = x1 ; h3 = x2\n[separate] g1 = x2\n",
     "line 3, column 1: h3 is out of sequence: subgroup words must be h1..hm with no gaps"),
    ("[subgroup] h0 = x1\n[separate] g1 = x2\n",
     "line 3, column 1: h0 is out of sequence: subgroup words must be h1..hm with no gaps"),
], ids=["separate", "subgroup", "zero"])
def test_main_rejects_word_numbering_with_gaps(tmp_path, capsys, words, message):
    # With g2 and g7, a GammaClosed record would name g2 for the word g7.
    path = write(tmp_path, "gaps.txt",
                 "[free] rank = 2\n[finite] degree = 2 ; gens = y1: (1 2)\n" + words)
    assert main(["separate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"altsep: error: {message}\n"


@pytest.mark.parametrize("line, column", [
    ("[subgroup] h1 = x1 x9", 20),
    ("[subgroup]   h1 = x2 ;   h2 =  x1  x9", 36),
    ("  h1 = x9   # in a section opened on an earlier line", 8),
], ids=["header", "second-chunk", "continuation"])
def test_word_errors_count_columns_from_the_line_start(line, column):
    text = ("[free] rank = 2\n[finite] degree = 2 ; gens = y1: (1 2)\n[subgroup]\n"
            f"{line}\n[separate] g1 = x1\n")
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(text)
    assert (err.value.line, err.value.column) == (4, column)
    assert str(err.value).endswith(": unknown generator x9")


def test_main_reports_an_unwritable_dot_directory(tmp_path, capsys):
    path = write(tmp_path, "demo.txt", DEMO)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["separate", path, "--emit-dot", str(blocker / "dots")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("altsep: error: ")
    assert captured.err.count("\n") == 1


def test_main_rejects_a_hostile_free_rank_quickly(tmp_path, capsys):
    path = write(
        tmp_path,
        "hostile.txt",
        "[free] rank = 1000000000\n[finite] degree = 2 ; gens = y1: (1 2)\n"
        "[subgroup]\n[separate] g1 = x1\n",
    )
    started = time.monotonic()
    assert main(["separate", path]) == 1
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"altsep: error: line 1, column 1: free rank above {MAX_FREE_RANK}\n"


def test_main_reports_a_failed_self_check_as_an_internal_error(
        tmp_path, capsys, monkeypatch):
    real = permgroup.recognize_alt_sym
    flipped = {permgroup.ALTERNATING: permgroup.SYMMETRIC,
               permgroup.SYMMETRIC: permgroup.ALTERNATING}

    def wrong(gens, degree):
        kind = real(gens, degree)
        return flipped.get(kind, kind)

    monkeypatch.setattr(permgroup, "recognize_alt_sym", wrong)
    path = write(tmp_path, "demo.txt", DEMO)
    assert main(["separate", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "altsep: internal error: image order does not match its classification\n")


def test_an_unrecognized_image_retries_at_the_next_prime(monkeypatch):
    real = permgroup.recognize_alt_sym
    calls = []

    def other_first(gens, degree):
        calls.append(degree)
        return permgroup.OTHER if len(calls) == 1 else real(gens, degree)

    monkeypatch.setattr(permgroup, "recognize_alt_sym", other_first)
    problem = Path(__file__).resolve().parent.parent / "problems" / "s3_conjugates.txt"
    spec = parse_problem(problem.read_text())
    document = run_separate(spec).document
    assert calls == [13, 17]
    assert document["degree"] == 17
    assert document["pipeline_stats"]["retries"] == 1

    calls.clear()
    with pytest.raises(CoverSearchExhaustedError):
        run_separate(spec, max_prime=13)
    assert calls == [13]


def test_main_flags(tmp_path, capsys):
    path = write(tmp_path, "demo.txt", DEMO)
    assert main(["separate", path, "--sign-vector", "+1,-1"]) == 0
    assert main(["separate", path, "--sign-vector", "+1"]) == 1
    assert main(["separate", path, "--max-prime", "7"]) == 1
    assert main(["separate", path, "--verify-level", "full"]) == 0
    capsys.readouterr()
