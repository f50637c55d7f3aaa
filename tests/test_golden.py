"""Golden outputs: ``altsep separate FILE --emit-dot DIR`` on each shipped
problem file must reproduce the checked-in stdout and DOT files byte for
byte.  Any change to vertex numbering, certificate layout or DOT rendering
shows up here, not only a difference between two runs of the same code.

``tests/golden/<problem>/`` holds ``stdout.json`` (the exact stdout) and
one ``<stage>.dot`` per emitted stage.
"""

from pathlib import Path

import pytest

from altsep.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = sorted((ROOT / "problems").glob("*.txt"))
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = {"index_two_kernel": 2}  # every other problem certifies (exit 0)


def test_every_problem_file_has_golden_outputs():
    assert PROBLEMS
    assert sorted(p.stem for p in PROBLEMS) == sorted(d.name for d in GOLDEN.iterdir())


@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.stem)
def test_golden_certificate_and_dot_bytes(problem, tmp_path, capsysbinary):
    expected = GOLDEN / problem.stem
    dots = tmp_path / "dots"
    code = main(["separate", str(problem), "--emit-dot", str(dots)])
    assert code == EXIT_CODES.get(problem.stem, 0)
    assert capsysbinary.readouterr().out == (expected / "stdout.json").read_bytes()
    got = {p.name: p.read_bytes() for p in dots.iterdir()}
    want = {p.name: p.read_bytes() for p in expected.glob("*.dot")}
    assert got == want
