"""Write the CLI's outputs on a fixed corpus of problems, for a byte-level
comparison of two checkouts.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/corpus_outputs.py OUT_DIR

runs ``altsep separate --emit-dot`` on every ``problems/*.txt`` and on the
problems of ``perfbench/problems.certify_problems(seed)`` for seeds 1-12,
and once more on every ``problems/*.txt`` with ``--sign-vector=-1,...``,
every sign -1, which builds the mover gadget's double edges and directed
4-cycle.  Every problem file that certifies runs twice more, with the
``--max-prime`` guards at their edges: once with k + 4, one below the
least degree its cover could have, which exits 1, and once with the
degree it certifies at, which certifies; k and the degree are read from
``tests/golden/<name>/stdout.json``.  That is 382 runs in all.  The sign
vector is spelled with ``=`` so that checkouts whose CLI refuses a
separate ``-1,...`` value can run it too.
Each run gets a directory under OUT_DIR holding its problem text, its
exit code, its stdout and stderr, the DOT files it wrote, a file
``decomposition``: the eligibility verdict and Kurosh decomposition of
the problem's subgroup graph (``oracles.decompose``), and a file
``membership``: the answers of ``MembershipTester.contains`` on words
drawn from a seed spelled by the problem text, over the subgroup graph
without separator paths.  The words are products of subgroup generators
with a detour inserted (members, which leave the graph and come back)
and random words (non-members, mostly); ``problems/s5_conjugate.txt``
brings y-components with nontrivial loop subgroups.  A ``diff -r`` of
the OUT_DIRs of two checkouts is then the check that a change leaves
every output byte as it was, decompositions and membership answers
included.

The script imports ``perfbench/problems.py``, which imports nothing from
altsep, runs the CLI of this checkout's ``src`` in a child process, and
decomposes in its own process with that same ``src`` first on its path,
through ``decompose`` of ``oracles.py`` beside it.
Its name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 13)
# membership queries per problem, of each kind
QUERIES = 16

sys.path.insert(0, str(ROOT / "src"))
from altsep import cli  # noqa: E402
from altsep.subgroups import MembershipTester, build_subgroup_graph  # noqa: E402
from altsep.words import word_inverse, word_str, x_alphabet, y_alphabet  # noqa: E402
from oracles import decompose  # noqa: E402


def decompose_text(text: str) -> str:
    """``decompose`` of a problem text as JSON text, or the error that
    stopped it."""
    try:
        record = decompose(cli.parse_problem(text))
    except Exception as err:  # recorded, so that both checkouts are compared
        return f"{type(err).__name__}: {err}\n"
    return json.dumps(record, indent=1) + "\n"


def membership_text(text: str) -> str:
    """Membership answers on seeded words, one line per word: its kind,
    the answer and the word; or the error that stopped the queries."""
    try:
        spec = cli.parse_problem(text)
        graph = build_subgroup_graph(replace(spec, separate_words=())).graph
    except Exception as err:  # recorded, so that both checkouts are compared
        return f"{type(err).__name__}: {err}\n"
    tester = MembershipTester(graph, spec.finite)
    rng = random.Random(text)
    alphabet = x_alphabet(spec.free.rank) + y_alphabet(spec.finite.num_generators)
    generators = list(spec.subgroup_words)
    generators += [word_inverse(word) for word in generators]
    lines = []
    for _ in range(QUERIES):
        product = ()
        for _ in range(rng.randint(1, 3) if generators else 0):
            product += rng.choice(generators)
        detour = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        at = rng.randint(0, len(product))
        member = product[:at] + detour + word_inverse(detour) + product[at:]
        other = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        for kind, word in (("product", member), ("random", other)):
            lines.append(f"{kind} {tester.contains(word)} {word_str(word)}\n")
    return "".join(lines)


def corpus():
    """(run name, problem text, extra CLI arguments) for every run of the
    corpus, in order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import problems

    files = sorted((ROOT / "problems").glob("*.txt"))
    for path in files:
        yield f"file-{path.stem}", path.read_text(), []
    for seed in SEEDS:
        for n, (problem, _exit_code) in enumerate(problems.certify_problems(seed)):
            yield f"seed{seed:02d}-{n:02d}", problem.text(), []
    for path in files:
        text = path.read_text()
        rank = int(re.search(r"\brank\s*=\s*(\d+)", text).group(1))
        yield (f"minus-{path.stem}", text,
               ["--sign-vector=" + ",".join(["-1"] * rank)])
    for path in files:
        golden = json.loads((ROOT / "tests" / "golden" / path.stem / "stdout.json").read_text())
        if "degree" in golden:
            k = golden["pipeline_stats"]["k"]
            text = path.read_text()
            yield f"below-{path.stem}", text, [f"--max-prime={k + 4}"]
            yield f"at-{path.stem}", text, [f"--max-prime={golden['degree']}"]


def run(name: str, text: str, args, out_dir: Path, env) -> int:
    """One CLI run with the extra arguments ``args``, its outputs written
    to out_dir/name; returns its exit code."""
    run_dir = out_dir / name
    dot_dir = run_dir / "dot"
    dot_dir.mkdir(parents=True)
    problem = run_dir / "problem.txt"
    problem.write_text(text)
    done = subprocess.run(
        [sys.executable, "-m", "altsep.cli", "separate", str(problem),
         "--emit-dot", str(dot_dir), *args],
        capture_output=True, env=env, check=False,
    )
    (run_dir / "exit_code").write_text(f"{done.returncode}\n")
    (run_dir / "stdout").write_bytes(done.stdout)
    (run_dir / "stderr").write_bytes(done.stderr)
    (run_dir / "decomposition").write_text(decompose_text(text))
    (run_dir / "membership").write_text(membership_text(text))
    return done.returncode


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: corpus_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    if out_dir.exists() and any(out_dir.iterdir()):
        print(f"corpus_outputs.py: {out_dir} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    counts = {}
    for name, text, args in corpus():
        code = run(name, text, args, out_dir, env)
        counts[code] = counts.get(code, 0) + 1
    summary = ", ".join(f"{n} exit {code}" for code, n in sorted(counts.items()))
    print(f"{sum(counts.values())} runs: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
