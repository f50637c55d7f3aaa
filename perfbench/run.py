"""Benchmark of altsep: certificates, membership queries, decompositions.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 32 --trace 0

The workload's inputs are generated from the seed with known answers
(``problems.py``); altsep, imported from ``./src``, sees only the problem
text and words.  One process, one thread.  The run repeats passes over
the workload's fixed operations until ``--seconds`` is up; the last pass
stops before an operation that would overrun.  Every output is checked
outside the timed region, by code that trusts nothing altsep computed
(``checker.py``).  Each operation is timed between two runs of a fixed
reference computation, and its time is reported in reference units, so
that the metrics follow altsep rather than the drifting speed of a shared
host.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, and every latency is written to
``.bench_work/run-<workload>-<seed>.json``.  With ``--trace 1`` the run
makes one untraced and one traced pass and reports per-layer metrics from
spans recorded around altsep's public functions (``tracing.py``); the
spans are written to ``.bench_work/trace-<workload>-<seed>.json``.

Exit status is 0 when the run completed, whether or not every output was
correct (the JSON says which), and 2 when altsep or its problem files
cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import problems  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path.cwd()
WORK_DIR = ROOT / ".bench_work"
SETUP_REPS = 5
OP_TIMEOUT_S = 60
MEMBERSHIP_QUERIES = 32
REFERENCE = problems.reference_problem()

# Problem files of the repository and the exit code each must produce.
FILE_EXITS = {"s3_conjugates.txt": 0, "trivial_subgroup.txt": 0, "index_two_kernel.txt": 2}

PER_LAYER_SPANS = (
    "permgroup.bsgs_order", "permgroup.recognize_alt_sym",
    "subgroups.MembershipTester.contains", "subgroups.based_fixpoint",
    "graphs.components", "graphs.fold", "factors.component_cosets",
)
PER_LAYER_FIELDS = (
    ("cli.run_separate", "self_s"), ("covers.build_separating_cover", "self_s"),
    ("covers.permutation_rep", "s"), ("factors.complete_X_cover", "s"),
    ("factors.embed_Y_component", "s"), ("graphs.amalgamate", "s"),
    ("graphs.identify_vertices", "s"), ("subgroups.build_subgroup_graph", "s"),
    ("subgroups.hypothesis_check", "s"), ("kurosh.kurosh_decompose", "s"),
    ("cli.parse_problem", "s"), ("factors.enumerate_group", "s"),
    ("permgroup.compose", "calls"), ("cli.main", "s"),
)


class SetupError(Exception):
    """The checkout lacks what the benchmark needs (altsep, problem files)."""


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(_signum, _frame):
        raise OpTimeout(f"operation exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_altsep():
    """Import altsep afresh (its modules are dropped from ``sys.modules``
    first) from ./src, and only from there; returns the modules and the
    import time."""
    if sys.path[0] != str(ROOT / "src"):
        sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules if n == "altsep" or n.startswith("altsep.")]:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        import altsep
        from altsep import cli, kurosh, subgroups, words
    except ImportError as err:
        raise SetupError(f"cannot import altsep from {ROOT / 'src'}: {err}") from err
    import_s = time.perf_counter() - start
    if ROOT / "src" not in Path(altsep.__file__).resolve().parents:
        raise SetupError(f"altsep was imported from {altsep.__file__}, not ./src")
    return (cli, kurosh, subgroups, words), import_s


class Workload:
    """Inputs are made in ``__init__`` (no altsep), state in ``setup``; one
    operation is ``run(state, case)``, checked by ``check(case, result)``,
    which returns a list of faults."""

    cases = ()

    def layer_counts(self, _results):
        return {}


class Certify(Workload):
    """One operation: ``altsep separate FILE`` in process, stdout captured."""

    def __init__(self, seed):
        self.seed = seed
        self.cases = []  # (name, path, problem, expected exit code)
        for name, code in FILE_EXITS.items():
            path = ROOT / "problems" / name
            if not path.is_file():
                raise SetupError(f"missing problem file {path}")
            self.cases.append((name, path, problems.parse_problem(path.read_text(), name), code))
        WORK_DIR.mkdir(exist_ok=True)
        for n, (problem, code) in enumerate(problems.certify_problems(seed)):
            path = WORK_DIR / f"certify-{seed}-{n:02d}.txt"
            path.write_text(problem.text())
            self.cases.append((problem.name, path, problem, code))
        self.first_output = {}

    def setup(self, altsep):
        cli = altsep[0]
        for _name, path, _problem, _code in self.cases:
            cli.parse_problem(path.read_text())
        return cli

    def run(self, cli, case):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["separate", str(case[1])])
        return code, out.getvalue()

    def check(self, case, result):
        name, path, problem, expected = case
        code, output = result
        # Repeated and traced runs must print the same bytes as the first.
        if self.first_output.setdefault(path, output) != output:
            return ["output differs from the first run of the same problem"]
        if code != expected:
            return [f"exit code {code}, expected {expected}"]
        doc = json.loads(output)
        if code == 0:
            return checker.check_certificate(problem, doc, f"jordan/{self.seed}/{name}")
        if code == 2 and doc.get("reason") != "HypothesisNotSatisfied":
            return [f"exit 2 with reason {doc.get('reason')!r}"]
        if code == 3:
            closed = len(problem.separate)
            if doc.get("reason") != "GammaClosed" or doc.get("separator_index") != closed:
                return [f"exit 3 should name GammaClosed separator g{closed}: {doc}"]
        return []

    def layer_counts(self, results):
        certificates = [json.loads(out) for code, out in results if code == 0]
        return {
            "certificates": len(certificates),
            "cover.degree": sum(c["degree"] for c in certificates),
            "cover.primes_tried": sum(c["pipeline_stats"]["retries"] + 1 for c in certificates),
        }


class Membership(Workload):
    """One operation: ``MembershipTester.contains(word)`` on a fixed subgroup
    graph of about 1,800 vertices."""

    def __init__(self, seed):
        problem, queries = problems.membership_inputs(seed, MEMBERSHIP_QUERIES)
        self.text = problem.text()
        self.cases = [(f"query {n} {'member' if label else 'non-member'}", word, label)
                      for n, (word, label) in enumerate(queries)]

    def setup(self, altsep):
        cli, _kurosh, subgroups, words = altsep
        spec = cli.parse_problem(self.text)
        built = subgroups.build_subgroup_graph(spec)
        letter = {"x": words.x_letter, "y": words.y_letter}
        return subgroups.MembershipTester(built.graph, spec.finite), letter

    def run(self, state, case):
        tester, letter = state
        return tester.contains(tuple(letter[f](i, s) for f, i, s in case[1]))

    def check(self, case, result):
        if result is not case[2]:
            return [f"contains() = {result!r} for a {'member' if case[2] else 'non-member'}"]
        return []


class Decompose(Workload):
    """One operation: parse, subgroup graph, eligibility verdict and Kurosh
    decomposition of one large subgroup."""

    def __init__(self, seed):
        self.cases = [(p, p.text()) for p in problems.decompose_problems(seed)]

    def setup(self, altsep):
        return altsep

    def run(self, altsep, case):
        cli, kurosh, subgroups, _words = altsep
        spec = cli.parse_problem(case[1])
        built = subgroups.build_subgroup_graph(spec)
        verdict = subgroups.hypothesis_check(built.graph, spec.free.rank)
        return spec, built.graph, verdict, kurosh.kurosh_decompose(built.graph, spec.finite)

    def check(self, case, result):
        spec, graph, verdict, decomposition = result
        return checker.check_decomposition(
            case[0], graph, verdict.kind, decomposition, spec.finite.elements)


WORKLOADS = {"certify": Certify, "membership": Membership, "decompose": Decompose}


def reference_s():
    """Wall time of the reference computation: the host's current speed."""
    start = time.perf_counter()
    problems.cover_size(REFERENCE)
    return time.perf_counter() - start


class Tally:
    """Latencies, pass times and failures of the timed passes."""

    def __init__(self):
        # operation name -> its latency in each pass, in seconds and in
        # reference units
        self.latencies = {}
        self.relative = {}
        self.references = []
        self.passes = []  # (operations that passed, wall time of the pass)
        self.attempted = 0
        self.failed = 0
        self.stopped = False

    def run_pass(self, workload, state, keep_results=False, deadline=None):
        """One pass over the workload's operations.  With a deadline, the
        pass stops before an operation whose last latency would overrun it,
        and sets ``stopped``."""
        ok, wall = 0, 0.0
        results = []
        timed = []  # (operation name, latency)
        references = [reference_s()]
        for case in workload.cases:
            last = self.latencies.get(case_name(case))
            if deadline is not None and last and time.perf_counter() + last[-1] > deadline:
                self.stopped = True
                break
            start = time.perf_counter()
            try:
                with time_limit(OP_TIMEOUT_S):
                    result = workload.run(state, case)
                faults = None
            except Exception as err:  # a crash is a failed operation, not a crashed benchmark
                faults = [f"{type(err).__name__}: {err}"]
            elapsed = time.perf_counter() - start
            wall += elapsed
            timed.append((case_name(case), elapsed))
            self.attempted += 1
            if faults is None:
                faults = workload.check(case, result)
                if keep_results:
                    results.append(result)
            if faults:
                self.failed += 1
                print(f"FAIL {case_name(case)}: {'; '.join(faults[:3])}", file=sys.stderr)
            else:
                ok += 1
            references.append(reference_s())
        for (name, elapsed), before, after in zip(timed, references, references[1:]):
            self.latencies.setdefault(name, []).append(elapsed)
            self.relative.setdefault(name, []).append(2 * elapsed / (before + after))
        self.references += references
        if timed:
            self.passes.append((ok, wall))
        return wall, results


def case_name(case):
    first = case[0]
    return first.name if isinstance(first, problems.Problem) else first


def set_up(workload):
    """A fresh import of altsep and the workload's set-up: (modules, state,
    wall time of both)."""
    altsep, import_s = import_altsep()
    start = time.perf_counter()
    state = workload.setup(altsep)
    return altsep, state, import_s + time.perf_counter() - start


def measure(workload, seconds, record_path):
    _altsep, state, setup_s = set_up(workload)
    setups = [setup_s]
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while not tally.stopped:
        tally.run_pass(workload, state, deadline=deadline)
        # Set-up is timed again after each pass, so that its samples meet
        # the host's speed phases across the run, as the operations do.
        setups.append(set_up(workload)[2])
    while len(setups) < SETUP_REPS:
        setups.append(set_up(workload)[2])
    WORK_DIR.mkdir(exist_ok=True)
    with open(record_path, "w") as stream:
        json.dump({"latencies_s": tally.latencies, "latencies_ref": tally.relative,
                   "references_s": tally.references, "passes": tally.passes,
                   "setups_s": setups}, stream)
    # The host's speed drifts by up to a factor of two within seconds and
    # between runs, and the reference computation timed beside each
    # operation drifts with it.  An operation's time is the median over its
    # repetitions of its latency in reference units.
    relative = sorted(statistics.median(times) for times in tally.relative.values())
    wall_s = [statistics.median(times) for times in tally.latencies.values()]
    passed = (tally.attempted - tally.failed) / tally.attempted
    ref_ms = statistics.median(tally.references) * 1000
    slowest = relative[-max(1, round(len(relative) / 4)):]
    print(f"# {len(tally.passes)} passes over {len(relative)} operations; "
          f"op_tail_ref is the mean of the slowest {len(slowest)}; "
          f"fail_frac {tally.failed}/{tally.attempted}; "
          f"wall clock: reference {ref_ms:.2f} ms, "
          f"{passed * len(wall_s) / sum(wall_s):.3f} ops/s, "
          f"p50 {statistics.median(wall_s) * 1000:.1f} ms")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_kref": (1000 * passed * len(relative) / sum(relative), "1/kref"),
        "op_p50_ref": (statistics.median(relative), "ref"),
        "op_tail_ref": (statistics.mean(slowest), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def trace(workload, seed, workload_name):
    altsep, state, setup_s = set_up(workload)
    tally = Tally()
    plain_s, _ = tally.run_pass(workload, state)

    tracer = Tracer()
    graph_size = {"subgroup_graph.vertices": 0, "subgroup_graph.pairs": 0}

    def count_graph(built):
        graph_size["subgroup_graph.vertices"] += len(built.graph.vertices)
        graph_size["subgroup_graph.pairs"] += len(built.graph.pairs)

    tracer.observe("subgroups.build_subgroup_graph", count_graph)
    tracer.install()
    try:
        state = workload.setup(altsep)
        traced_s, traced_results = tally.run_pass(workload, state, keep_results=True)
    finally:
        tracer.remove()

    WORK_DIR.mkdir(exist_ok=True)
    tracer.write(WORK_DIR / f"trace-{workload_name}-{seed}.json")
    summary = tracer.summary()
    metrics = {}
    for name in PER_LAYER_SPANS:
        entry = summary.get(name, {})
        metrics[f"{name}.calls"] = (entry.get("calls", 0), "count")
        metrics[f"{name}.s"] = (entry.get("s", 0.0), "s")
        metrics[f"{name}.self_s"] = (entry.get("self_s", 0.0), "s")
    for name, field in PER_LAYER_FIELDS:
        unit = "count" if field == "calls" else "s"
        metrics[f"{name}.{field}"] = (summary.get(name, {}).get(field, 0), unit)
    counts = {"certificates": 0, "cover.degree": 0, "cover.primes_tried": 0}
    counts.update(workload.layer_counts(traced_results))
    counts.update(graph_size)
    counts["fixpoint.rounds"] = tracer.children_of("subgroups.based_fixpoint", "graphs.fold")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    # Both passes in reference units, so that a change of host speed
    # between them does not show as overhead.
    plain, traced = (sum(times[n] for times in tally.relative.values()) for n in (0, 1))
    metrics["trace_overhead"] = (traced / plain, "ratio")
    print(f"# traced pass {traced_s:.3f} s, untraced pass {plain_s:.3f} s, "
          f"{len(tracer.spans)} spans; set-up {setup_s:.3f} s")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workload = WORKLOADS[args.workload](args.seed)
        if args.trace:
            tally, metrics = trace(workload, args.seed, args.workload)
        else:
            record = WORK_DIR / f"run-{args.workload}-{args.seed}.json"
            tally, metrics = measure(workload, args.seconds, record)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
