import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import altsep
from altsep import cli, covers, graphs, permgroup
from altsep.cli import (
    MAX_FREE_RANK,
    MAX_PROBLEM_LETTERS,
    MAX_WORD_LENGTH,
    ProblemFormatError,
    export_dot,
    main,
    parse_problem,
    parse_word,
    run_separate,
)
from altsep.covers import CoverSearchExhaustedError
from altsep.factors import NotGBasedError
from altsep.words import word_str, x_letter as x, y_letter as y

from conftest import make_spec
from oracles import build_graph, parse_word_oracle

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

# g1 lies in the subgroup: exit 3
CLOSED = """\
[free] rank = 2
[finite] degree = 2 ; gens = y1: (1 2)
[subgroup] h1 = x1^2
[separate] g1 = x1^4
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


def parse_outcome(parse, text):
    """Letters, or the error's message and column."""
    try:
        return parse(text, 2, 2, 9)
    except ProblemFormatError as err:
        assert err.line == 9
        return err.message, err.column


# exponents 0, -0 and 00, leading zeros, and terms long enough to cross
# MAX_WORD_LENGTH within a few occurrences
GOOD_TERMS = ("x1", "x2", "y1", "y2", "x1^-1", "y2^-1", "x1^3", "y1^-2", "x2^0",
              "x1^-0", "y1^00", "x01", "y02^-1", "x1^60000", "y2^-45000")
# malformed terms, the identity inside a longer word, unknown generators
BAD_TERMS = ("1", "q2", "x", "x1^", "x1^-", "y1^+2", "x1x2", "^2", "x1^2^3",
             "x3", "y3", "x0", "y0^2")
WORD_SEPARATORS = (" ", "  ", "\t", "\u00a0", " \u2003", "\u3000")


def test_parse_word_matches_the_per_term_oracle():
    """parse_word parses each distinct term once; on seeded random texts it
    gives the letters, or the error and column, of one regex match per
    term occurrence."""
    rng = random.Random(13)
    kinds = set()
    for _ in range(1000):
        terms = [rng.choice(BAD_TERMS if rng.random() < 0.05 else GOOD_TERMS)
                 for _ in range(rng.randint(0, 12))]
        text = "".join(rng.choice(WORD_SEPARATORS) + t for t in terms)
        text += rng.choice(("", " ", "\t", "\u00a0"))
        got = parse_outcome(parse_word, text)
        assert got == parse_outcome(parse_word_oracle, text), text
        kinds.add(got[0].split()[0] if got and isinstance(got[0], str) else len(got) > 0)
    # letters, the empty word, and each kind of error
    assert kinds == {True, False, "bad", "unknown", "word"}


@pytest.mark.parametrize("text", [
    "x1 q2 x1 q2",              # a repeated bad term fails at its first occurrence
    "x1\tx3 y1 x3",             # a repeated unknown generator too
    "x1^60000 y1 x1^60000 y1",  # the length cap at the term's second occurrence
    "x1^0 x1^-0 x1^00 x01",
    "x1 x2^" + "0" * 100 + " y1^-" + "0" * 99 + "1",  # 100 digits, leading zeros
    "x1 x2^-" + "0" * 101 + " y1",                     # 101 digits
    "y1 y" + "0" * 100 + "1",
    "\u00a0x1\ty2^-1\u00a0\u00a0q",
    " 1 ", "1 1", "\t1", "",
])
def test_parse_word_matches_the_oracle_on_fixed_texts(text):
    assert parse_outcome(parse_word, text) == parse_outcome(parse_word_oracle, text)


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
    closed = write(tmp_path, "closed.txt", CLOSED)
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


@pytest.mark.parametrize("text", [DEMO, CLOSED], ids=["certificate", "gamma-closed"])
def test_main_reports_a_closed_stdout(tmp_path, text):
    """stdout is a pipe whose read end is closed, so the document cannot
    be written: one error line and exit 1, whatever the run's own exit
    code, and no traceback from the interpreter's exit flush."""
    path = write(tmp_path, "problem.txt", text)
    src = Path(altsep.__file__).resolve().parent.parent
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "altsep.cli", "separate", path],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr.startswith("altsep: error: cannot write to stdout: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


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
    ("[free] rank = 2\n[finite] degree = 2 ; gens = y1: (1 2)\n  y1: (1 2)\n"
     "[separate] g1 = x1\n", "line 3, column 1: generator y1 defined twice"),
    ("[free] rank = 2\n[finite] degree = 2 ; gens = y1: (1 2)\n"
     "[subgroup] h1 = x1 ; h1 = x2\n[separate] g1 = x1\n",
     "line 3, column 1: h1 defined twice"),
], ids=["rank", "degree", "generator", "word"])
def test_main_rejects_a_key_defined_twice(tmp_path, capsys, text, message):
    path = write(tmp_path, "twice.txt", text)
    assert main(["separate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"altsep: error: {message}\n"


FINITE = "[finite] degree = 2 ; gens = y1: (1 2)\n"


@pytest.mark.parametrize("text, message", [
    ("[free] rnk = 2\n" + FINITE + "[separate] g1 = x1\n",
     "line 1, column 1: expected 'rank = <int>', got 'rnk = 2'"),
    ("[free] rank = 2\n[finite] degre = 2 ; gens = y1: (1 2)\n[separate] g1 = x1\n",
     "line 2, column 1: expected 'degree = <int>' or 'y<k>: <cycles>', got 'degre = 2'"),
    ("[free] rank = 2\n" + FINITE + "[subgroup] k1 = x1\n[separate] g1 = x1\n",
     "line 3, column 1: expected 'h<i> = <word>', got 'k1 = x1'"),
    (FINITE + "[separate] g1 = x1\n", "line 1, column 1: missing [free] section with a rank"),
    ("[free] rank = 2\n[finite] gens = y1: (1 2)\n[separate] g1 = x1\n",
     "line 1, column 1: missing degree in [finite] section"),
    ("[free] rank = 2\n[finite] degree = 2\n[separate] g1 = x1\n",
     "line 1, column 1: missing generators in [finite] section"),
    ("[free] rank = 2\n[finite] degree = 3 ; gens = y1: (1 2 4)\n[separate] g1 = x1\n",
     "line 2, column 1: point 4 out of range 1..3"),
    # an empty word is not the identity: "1" spells that
    ("[free] rank = 2\n" + FINITE + "[subgroup] h1 = x1 ; h2 =   # nothing\n"
     "[separate] g1 = x2\n", "line 3, column 26: h2 is empty; write 1 for the identity"),
    ("[free] rank = 2\n" + FINITE + "[subgroup] h1 = x1\n[separate]\n  g1 =\n",
     "line 5, column 7: g1 is empty; write 1 for the identity"),
], ids=["rank", "finite", "word", "no-free", "no-degree", "no-generators", "cycle",
        "empty-subgroup-word", "empty-separator"])
def test_main_rejects_a_malformed_problem(tmp_path, capsys, text, message):
    path = write(tmp_path, "bad.txt", text)
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


@pytest.mark.parametrize("finite, message", [
    ("[finite]\ndegree = 3\ngens = y1: (1 2) ; y3: (1 2 3)\n",
     "line 4, column 1: y3 is out of sequence: finite-factor generators must be "
     "y1..yq with no gaps"),
    ("[finite] degree = 2\n\n  y2: (1 2)\n",
     "line 4, column 1: y2 is out of sequence: finite-factor generators must be "
     "y1..yq with no gaps"),
], ids=["gap", "no-y1"])
def test_main_rejects_generator_numbering_with_gaps(tmp_path, capsys, finite, message):
    # Before, a gap was reported at line 1 wherever the generators were.
    path = write(tmp_path, "gaps.txt",
                 "[free] rank = 2\n" + finite + "[subgroup] h1 = x1\n[separate] g1 = x2\n")
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


def test_main_rejects_a_problem_past_the_letter_cap_quickly(tmp_path, capsys):
    """Forty short lines of 100,000 letters each: the third word crosses
    the problem's cap and is named, before any graph is built."""
    words = "".join(f"h{i} = x1^50000 x2^-50000\n" for i in range(1, 41))
    path = write(tmp_path, "hostile.txt",
                 "[free] rank = 2\n[finite] degree = 2 ; gens = y1: (1 2)\n"
                 f"[subgroup]\n{words}[separate] g1 = x1\n")
    assert len(Path(path).read_bytes()) < 1400
    started = time.monotonic()
    assert main(["separate", path]) == 1
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "altsep: error: line 6, column 6: subgroup and separator words longer "
        f"than {MAX_PROBLEM_LETTERS} letters together\n")


@pytest.mark.parametrize("old, new, expected", [
    ("h1 = y1 x1^-1 y1", "h1 = y1 x1^" + "9" * 5000,
     "line 4, column 21: generator index or exponent longer than 100 digits"),
    ("h1 = y1 x1^-1 y1", "h1 = y1 x" + "1" * 5000,
     "line 4, column 21: generator index or exponent longer than 100 digits"),
    ("y2: (1 2)", "y" + "2" * 5000 + ": (1 2)",
     "line 3, column 1: expected an integer of at most 100 digits"),
    ("y2: (1 2)", "y2: (1 " + "2" * 5000 + ")",
     "line 3, column 1: expected an integer of at most 100 digits"),
    ("g1 = y2", "g" + "1" * 5000 + " = y2",
     "line 6, column 1: expected an integer of at most 100 digits"),
    ("rank = 2", "rank = " + "2" * 5000,
     "line 2, column 1: expected an integer of at most 100 digits"),
])
def test_main_locates_a_number_with_too_many_digits(tmp_path, capsys, old, new, expected):
    """Digits past MAX_NUMBER_DIGITS never reach int(), whose own error
    (Python's integer-string digit limit) names no line or column."""
    path = write(tmp_path, "digits.txt", DEMO.replace(old, new))
    assert main(["separate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"altsep: error: {expected}\n"


def test_parse_problem_counts_both_sections_against_the_letter_cap():
    half, quarter = MAX_PROBLEM_LETTERS // 2, MAX_PROBLEM_LETTERS // 4
    text = ("[free] rank = 2\n[finite] degree = 2 ; gens = y1: (1 2)\n"
            f"[subgroup] h1 = x1^{half}\n[separate] g1 = x2^-{quarter} y1^{quarter}\n")
    spec = parse_problem(text)
    assert sum(map(len, spec.subgroup_words + spec.separate_words)) == MAX_PROBLEM_LETTERS
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(text + "           g2 = y1\n")
    assert (err.value.line, err.value.column) == (5, 17)


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


def test_main_reports_a_value_error_inside_the_pipeline_as_an_internal_error(
        capsys, monkeypatch):
    """The input is validated before the pipeline runs, so a ValueError
    from inside it (here NotGBasedError) is a bug, not an input error."""
    def not_based(table, subgroup):
        raise NotGBasedError("two vertices of the component land on the same coset")

    monkeypatch.setattr(covers, "coset_action", not_based)
    problem = Path(__file__).resolve().parent.parent / "problems" / "s3_conjugates.txt"
    assert main(["separate", str(problem)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "altsep: internal error: two vertices of the component land on the same coset\n")


def test_main_reports_any_exception_inside_the_pipeline_as_an_internal_error(
        capsys, monkeypatch):
    """Any bug inside the pipeline, not only a failed self-check or a
    ValueError, exits 4 with one line on stderr and no traceback."""
    def broken(table, subgroup):
        raise KeyError("no such coset")

    monkeypatch.setattr(covers, "coset_action", broken)
    problem = Path(__file__).resolve().parent.parent / "problems" / "s3_conjugates.txt"
    assert main(["separate", str(problem)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "altsep: internal error: 'no such coset'\n"


def test_an_exception_with_no_message_is_named_by_its_type(capsys, monkeypatch):
    def exhausted(table, subgroup):
        raise MemoryError()

    monkeypatch.setattr(covers, "coset_action", exhausted)
    problem = Path(__file__).resolve().parent.parent / "problems" / "s3_conjugates.txt"
    assert main(["separate", str(problem)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "altsep: internal error: MemoryError\n"


def certify_with(monkeypatch, doctor):
    """Exit code of the run on s3_conjugates.txt, with ``_certificate``
    handed the (spec, built, result) that ``doctor`` makes of the real
    ones."""
    real = cli._certificate
    monkeypatch.setattr(cli, "_certificate", lambda *args: real(*doctor(*args)))
    problem = Path(__file__).resolve().parent.parent / "problems" / "s3_conjugates.txt"
    return main(["separate", str(problem)])


def test_certificate_rejects_images_in_which_a_subgroup_word_moves_the_base(
        capsys, monkeypatch):
    """The points are relabeled by the transposition of the base point and
    a point c that h1 moves: the image group and its order stay, and h1
    now moves the base point."""
    def relabel(spec, built, result):
        base = result.positions[built.graph.base]
        word = spec.subgroup_words[0]
        c = next(c for c in range(result.plan.degree)
                 if covers.word_action(result.images, word, c) != c)
        swap = list(range(result.plan.degree))
        swap[base], swap[c] = c, base
        images = {name: tuple(swap[perm[swap[i]]] for i in range(len(perm)))
                  for name, perm in result.images.items()}
        return spec, built, dataclasses.replace(result, images=images)

    assert certify_with(monkeypatch, relabel) == 4
    assert capsys.readouterr().err == (
        "altsep: internal error: a subgroup generator image moves the base point\n")


def test_certificate_rejects_a_separator_image_off_its_traced_end(capsys, monkeypatch):
    def misplace_end(spec, built, result):
        positions = dict(result.positions)
        end = built.separator_ends[0]
        positions[end] = (positions[end] + 1) % result.plan.degree
        return spec, built, dataclasses.replace(result, positions=positions)

    assert certify_with(monkeypatch, misplace_end) == 4
    assert capsys.readouterr().err == (
        "altsep: internal error: separator action disagrees with its traced path\n")


def test_certificate_rejects_a_separator_image_that_fixes_the_base(capsys, monkeypatch):
    """The separator becomes h1, which ends at the base: its image and its
    traced end agree, and both are the base point."""
    def separate_h1(spec, built, result):
        spec = dataclasses.replace(spec, separate_words=spec.subgroup_words[:1])
        built = dataclasses.replace(built, separator_ends=(built.graph.base,))
        return spec, built, result

    assert certify_with(monkeypatch, separate_h1) == 4
    assert capsys.readouterr().err == (
        "altsep: internal error: separator image fixes the base point\n")


def test_certificate_rejects_a_y_component_that_is_no_coset_graph(capsys, monkeypatch):
    """A hand-built saturated cover on two vertices, in which y1 (of order
    3 in S3) swaps them: both vertices lie on one coset of the loop
    subgroup."""
    edges = [(0, 1, y(1)), (1, 0, y(1))]
    edges += [(v, v, letter) for v in (0, 1) for letter in (y(2), x(1), x(2))]
    cover = build_graph([0, 1], edges, 0)

    def swap_cover(spec, built, result):
        return spec, built, dataclasses.replace(result, cover=cover)

    assert certify_with(monkeypatch, swap_cover) == 4
    assert capsys.readouterr().err == (
        "altsep: internal error: a y-component is not a full coset graph\n")


# The ROADMAP's oversized input: 400 y-components with a trivial loop
# subgroup of S8, so a cover of 400 * 40,320 vertices.
OVERSIZED = ("[free] rank = 2\n"
             "[finite] degree = 8 ; gens = y1: (1 2 3 4 5 6 7 8); y2: (1 2)\n"
             "[subgroup] h1 = " + " ".join(["x1 y1"] * 400) + "\n[separate] g1 = x2\n")

UNDER_RLIMIT_AS = """
import resource, sys
limit = 1500 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from altsep.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_an_oversized_cover_exits_1_before_it_is_written(tmp_path):
    """The planned cover size is past the default --max-prime, and no
    larger cap is accepted, so the run exits 1 before step 2 writes,
    under a 1.5 GB address-space limit."""
    path = write(tmp_path, "oversized.txt", OVERSIZED)
    src = Path(altsep.__file__).resolve().parent.parent
    cap = covers.DEFAULT_MAX_PRIME
    for options, error in [([], f"no recognized cover with prime degree <= {cap}"),
                           (["--max-prime", "20000000"], f"--max-prime above {cap}")]:
        started = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-c", UNDER_RLIMIT_AS, "separate", path, *options],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert time.monotonic() - started < 10
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"altsep: error: {error}\n"


GOLDEN = Path(__file__).resolve().parent / "golden"
CERTIFIED = sorted(p.stem for p in GOLDEN.iterdir()
                   if "degree" in json.loads((p / "stdout.json").read_text()))


@pytest.mark.parametrize("name", CERTIFIED)
def test_max_prime_guards_at_their_edges(name, capsys, monkeypatch):
    """With --max-prime at the certified degree the run certifies as
    before; at k + 4, one below any plan's degree, it exits 1 before any
    cover slot is written."""
    golden = (GOLDEN / name / "stdout.json").read_text()
    problem = str(GOLDEN.parent.parent / "problems" / f"{name}.txt")
    degree, k = json.loads(golden)["degree"], json.loads(golden)["pipeline_stats"]["k"]
    assert main(["separate", problem, f"--max-prime={degree}"]) == 0
    assert capsys.readouterr().out == golden

    def unwritten(out, pairs):
        raise AssertionError("a cover slot was written past the prime cap")

    monkeypatch.setattr(covers, "_immerse", unwritten)
    assert main(["separate", problem, f"--max-prime={k + 4}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"altsep: error: no recognized cover with prime degree <= {k + 4}\n"


def test_a_colliding_gadget_edge_is_an_internal_error(capsys, monkeypatch):
    """Every edge of the cover is written into a slot that must be empty
    or already hold it.  A chain one vertex too long ends on the mover's
    first vertex, whose move-letter edges collide there with the chain's
    move-letter loop."""
    real = covers.chain_gadget

    def colliding(length, rank, connect):
        return real(length + 1, rank, connect)

    monkeypatch.setattr(covers, "chain_gadget", colliding)
    problem = Path(__file__).resolve().parent.parent / "problems" / "s3_conjugates.txt"
    assert main(["separate", str(problem)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("altsep: internal error: two x2 edges share a slot")
    assert captured.err.endswith(": the immersion condition fails\n")


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
    assert main(["separate", path, "--sign-vector", "+2,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "altsep: error: bad sign '+2' (want +1 or -1)\n"


def test_main_refuses_an_empty_sign_vector(tmp_path, capsys):
    """An empty sign vector, in either spelling of the flag, is bad input:
    one error line, nothing on stdout, not a run with the default signs."""
    path = write(tmp_path, "demo.txt", DEMO)
    for flag in (["--sign-vector", ""], ["--sign-vector="]):
        assert main(["separate", path, *flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "altsep: error: bad sign '' (want +1 or -1)\n"


def test_main_refuses_an_empty_dot_directory(tmp_path, capsys, monkeypatch):
    """An empty --emit-dot directory name, in either spelling of the flag,
    is bad input: one error line, nothing on stdout and no file written,
    not a run that writes no DOT file and exits 0."""
    path = write(tmp_path, "demo.txt", DEMO)
    monkeypatch.chdir(tmp_path)
    for flag in (["--emit-dot", ""], ["--emit-dot="]):
        assert main(["separate", path, *flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "altsep: error: --emit-dot needs a directory name, got ''\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.txt"]


def test_main_takes_a_sign_vector_that_starts_with_minus_one(tmp_path, capsys):
    """argparse would read a separate "-1,+1" as an option; both spellings
    of the flag, and of its abbreviations, give the same certificate."""
    path = write(tmp_path, "demo.txt", DEMO)
    certificates = []
    for flag in (["--sign-vector", "-1,+1"], ["--sign-vector=-1,+1"],
                 ["--sign", "-1,+1"], ["--sign=-1,+1"], ["--s", "-1,+1"]):
        assert main(["separate", path, *flag]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        certificates.append(out)
    assert len(set(certificates)) == 1
    assert json.loads(certificates[0])["degree"] > 0


# one free-factor factor in the decomposition, whatever the rank
WIDE = """\
[free] rank = {rank}
[finite] degree = 3 ; gens = y1: (1 2 3); y2: (1 2)
[subgroup] h1 = x1 x2
[separate] g1 = x3
"""


def test_full_verification_runs_at_every_rank(tmp_path, capsys):
    """--verify-level full checks the decomposition exactly at every rank,
    up to the largest a problem may have, each run in under 2 s; its
    stderr line counts the factor, its one loop word and h1."""
    for rank in (6, 14, 30, MAX_FREE_RANK):
        path = write(tmp_path, f"wide{rank}.txt", WIDE.format(rank=rank))
        started = time.monotonic()
        assert main(["separate", path, "--verify-level", "full"]) == 0
        assert time.monotonic() - started < 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["degree"] > 0
        assert captured.err == "verify: factors=1 checks=2 counterexamples=0\n"


def test_full_verification_fault_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """A decomposition the exact check rejects exits 4, naming the first
    fault, after the stderr line has counted the faults."""
    real = cli.kurosh_decompose

    def wrong_rank(graph, table):
        decomposition = real(graph, table)
        return dataclasses.replace(decomposition, free_rank=decomposition.free_rank + 1)

    monkeypatch.setattr(cli, "kurosh_decompose", wrong_rank)
    path = write(tmp_path, "wide6.txt", WIDE.format(rank=6))
    assert main(["separate", path, "--verify-level", "full"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verify: factors=1 checks=2 counterexamples=1\n"
        "altsep: internal error: Kurosh decomposition check failed: "
        "free rank 1, but delta's free basis has 0 words\n")


@pytest.mark.parametrize("level", ["fast", "full"])
def test_a_run_sweeps_the_x_components_once(level, monkeypatch, capsys):
    """The verdict, the cover and the decomposition of every problem file
    read the subgroup graph's x-components from one sweep."""
    sweeps = []
    real = graphs._sweep

    def counting(graph, factor):
        sweeps.append((graph, factor))
        return real(graph, factor)

    monkeypatch.setattr(graphs, "_sweep", counting)
    for problem in sorted((GOLDEN.parent.parent / "problems").glob("*.txt")):
        sweeps.clear()
        outcome = run_separate(parse_problem(problem.read_text()), verify_level=level)
        graph = outcome.stages["subgroup_graph"]
        expected = [] if outcome.exit_code == 3 else ["x"]
        assert [factor for g, factor in sweeps if g is graph and factor == "x"] == expected
    capsys.readouterr()
