"""Golden outputs: ``altsep separate FILE --emit-dot DIR`` on each shipped
problem file must reproduce the checked-in stdout and DOT files byte for
byte.  Any change to vertex numbering, certificate layout or DOT rendering
shows up here, not only a difference between two runs of the same code.

``tests/golden/<problem>/`` holds ``stdout.json`` (the exact stdout) and
one ``<stage>.dot`` per emitted stage.
"""

import os
import subprocess
import sys
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


RESAVED = {"bom": lambda data: b"\xef\xbb\xbf" + data,
           "crlf": lambda data: data.replace(b"\n", b"\r\n")}


@pytest.mark.parametrize("resave", RESAVED)
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: p.stem)
def test_golden_stdout_of_a_resaved_problem_file(problem, resave, tmp_path, capsysbinary):
    """A problem file saved with a UTF-8 byte-order mark, or with CRLF
    line ends, is the same problem."""
    path = tmp_path / problem.name
    path.write_bytes(RESAVED[resave](problem.read_bytes()))
    assert main(["separate", str(path)]) == EXIT_CODES.get(problem.stem, 0)
    assert capsysbinary.readouterr().out == (GOLDEN / problem.stem / "stdout.json").read_bytes()


# Letters hash by identity, so the iteration order of a set of letters or
# pairs follows object addresses, which PYTHONHASHSEED does not control.
# This child process moves the letters elsewhere in memory before it runs
# every problem file: throwaway objects first, then the alphabet interned
# in reverse order, each letter after a few more throwaway objects.
SHIFTED_ADDRESSES = """
import contextlib, io, sys
from pathlib import Path
junk = [object() for _ in range(10007)]
from altsep.words import Letter
for factor in ("y", "x"):
    for index in range(8, 0, -1):
        for sign in (-1, 1):
            junk.append([(factor, index, sign)] * index)
            Letter(factor, index, sign)
from altsep.cli import main
out_dir = Path(sys.argv[1])
for problem in sys.argv[2:]:
    name = Path(problem).stem
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["separate", problem, "--emit-dot", str(out_dir / name)])
    (out_dir / name).mkdir(exist_ok=True)
    (out_dir / name / "stdout.json").write_text(stdout.getvalue())
    (out_dir / name / "exit_code").write_text(str(code))
"""


def test_golden_bytes_do_not_follow_letter_addresses(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-c", SHIFTED_ADDRESSES, str(tmp_path), *map(str, PROBLEMS)],
        check=True, env=env, timeout=120,
    )
    for problem in PROBLEMS:
        got_dir, expected = tmp_path / problem.stem, GOLDEN / problem.stem
        assert (got_dir / "exit_code").read_text() == str(EXIT_CODES.get(problem.stem, 0))
        got = {p.name: p.read_bytes() for p in got_dir.iterdir() if p.name != "exit_code"}
        want = {p.name: p.read_bytes() for p in expected.iterdir()}
        assert got == want, problem.stem


def test_python_dash_m_altsep_cli_runs_clean_under_w_error():
    """``python -W error -m altsep.cli`` runs the problem files with no
    warning: importing ``altsep`` does not import ``altsep.cli``, which
    Python would report as found in sys.modules before it ran as
    __main__."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for problem in PROBLEMS:
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "altsep.cli", "separate", str(problem)],
            capture_output=True, env=env, timeout=120,
        )
        assert result.returncode == EXIT_CODES.get(problem.stem, 0), result.stderr
        assert result.stderr == b""
        assert result.stdout == (GOLDEN / problem.stem / "stdout.json").read_bytes()
    check = ("import sys, altsep; assert 'altsep.cli' not in sys.modules; "
             "from altsep import parse_problem, cli; assert parse_problem is cli.parse_problem")
    subprocess.run([sys.executable, "-W", "error", "-c", check], check=True, env=env, timeout=60)
