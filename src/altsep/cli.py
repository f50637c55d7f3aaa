"""Command line driver: problem files in, certificates and DOT out.

Problem files are section-headed plain text with '#' comments::

    [free]      rank = 2
    [finite]    degree = 3 ; gens = y1: (1 2 3); y2: (1 2)
    [subgroup]  h1 = y1 x1^-1 y1
                h2 = x1 x2 x1^-1
    [separate]  g1 = y2

Words are whitespace-separated terms ``x1``, ``y2^-1``, ``x1^3``; the bare
word "1" is the identity.  Permutations use 1-based cycle notation.

``altsep separate FILE`` prints a JSON certificate on success (exit 0):
degree, primality, generator images in cycle notation, whether the image
is alternating or symmetric, one record per separated word, and pipeline
statistics.  Rejections print a machine-readable reason and exit 2 when
the eligibility check fails (HypothesisNotSatisfied) or 3 when a word to
separate already lies in the subgroup (GammaClosed).  Input errors exit 1,
as does a prime search that reaches ``--max-prime``.  Any other exception
raised inside the pipeline once the input has been validated, be it a
failed internal self-check (an AssertionError) or any other bug, prints
``altsep: internal error: ...`` and exits 4, so a broken invariant never
looks like an input error.  Identical inputs produce byte-identical
certificates and DOT files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from . import permgroup
from .covers import (
    DEFAULT_MAX_PRIME,
    CoverSearchExhaustedError,
    HypothesisNotSatisfiedError,
    build_separating_cover,
    word_action,
)
from .factors import component_cosets, enumerate_group
from .graphs import (
    LabeledGraph,
    _pair_key,
    components,  # unused here; perfbench's tracer self-test checks this binding
)
from .kurosh import check_decomposition, kurosh_decompose
from .subgroups import (
    FreeFactor,
    ProblemSpec,
    build_subgroup_graph,
    hypothesis_check,
)
from .words import Word, word_str, x_letter, y_letter

STAGE_NAMES = ("subgroup_graph", "component_covers", "precover", "cover")


class ProblemFormatError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


# a number is ASCII digits: \d would take any Unicode decimal digit
_WORD_TERM_RE = re.compile(r"([xy])([0-9]+)(?:\^(-?[0-9]+))?$")

# Longest word a problem file may spell, counted after exponents expand;
# checked before expanding, so "x1^1000000000" is refused up front.
MAX_WORD_LENGTH = 100_000

# Largest problem file, in bytes: the densest spelling of
# MAX_PROBLEM_LETTERS letters, "x1000^-1 " per letter, is 1.8 MB.  Only
# this many bytes and one more are read, so a larger file or pipe is
# refused before any line is parsed.
MAX_PROBLEM_BYTES = 4 * 1024 * 1024

# Most letters all subgroup and separator words of a problem may spell
# together; checked word by word, before any graph is built.
MAX_PROBLEM_LETTERS = 200_000

# Largest degree of the finite factor's permutations; checked before any
# cycle is parsed, so "degree = 1000000000" allocates nothing.
MAX_FINITE_DEGREE = 100

# Largest rank of the free factor; checked where it is parsed, so
# "rank = 1000000000" never builds a two-billion-letter alphabet.
MAX_FREE_RANK = 1_000

# Most digits of any number in a problem file: far more than a valid
# problem needs, far fewer than Python's integer-string limit (4,300
# digits).  Checked before the digits become an int, so a 5,000-digit
# exponent is refused at its line and column.
MAX_NUMBER_DIGITS = 100
_LONG_NUMBER_RE = re.compile(r"[0-9]{%d}" % (MAX_NUMBER_DIGITS + 1))


def parse_word(text: str, rank: int, num_ygens: int, line: int) -> Word:
    """Letters of one word: whitespace-separated terms ``x<i>`` or
    ``y<j>``, each with an optional exponent ``^<n>``, or the bare word
    "1" for the identity.  Raises ProblemFormatError at the 1-based
    column of the offending term, counted within ``text`` less its
    leading whitespace.

    Each distinct term is parsed once and then looked up; the length
    limit is checked at every occurrence, before the term is expanded.
    """
    terms = text.split()
    if terms == ["1"]:
        return ()
    letters = []
    parsed = {}  # term -> (letter, repeat)
    for position, term in enumerate(terms):
        known = parsed.get(term)
        if known is None:
            match = _WORD_TERM_RE.match(term)
            if not match:
                raise ProblemFormatError(
                    f"bad word term {term!r}", line, _term_column(text, position))
            factor, index, exponent = match.group(1, 2, 3)
            if len(index) > MAX_NUMBER_DIGITS or (
                    exponent is not None and len(exponent.lstrip("-")) > MAX_NUMBER_DIGITS):
                raise ProblemFormatError(
                    f"generator index or exponent longer than {MAX_NUMBER_DIGITS} digits",
                    line, _term_column(text, position))
            index = int(index)
            exponent = 1 if exponent is None else int(exponent)
            limit = rank if factor == "x" else num_ygens
            if not 1 <= index <= limit:
                raise ProblemFormatError(
                    f"unknown generator {factor}{index}", line, _term_column(text, position))
            sign = 1 if exponent > 0 else -1
            letter = x_letter(index, sign) if factor == "x" else y_letter(index, sign)
            known = parsed[term] = (letter, abs(exponent))
        letter, repeat = known
        if len(letters) + repeat > MAX_WORD_LENGTH:
            raise ProblemFormatError(
                f"word longer than {MAX_WORD_LENGTH} letters", line, _term_column(text, position))
        letters += [letter] * repeat
    return tuple(letters)


def _term_column(text: str, position: int) -> int:
    """1-based column, within ``text`` less its leading whitespace, of the
    term at index ``position`` of ``text.split()``."""
    text = text.lstrip()
    return [m.start() for m in re.finditer(r"\S+", text)][position] + 1


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


_SECTION_RE = re.compile(r"^\s*\[(\w+)\]\s*(.*)$")
_KEYED_RE = re.compile(r"^([A-Za-z]+[0-9]*)\s*=\s*(.*)$")
_GENDEF_RE = re.compile(r"^y([0-9]+)\s*:\s*(.*)$")


def parse_problem(text: str) -> ProblemSpec:
    """Parse a problem file into a fully resolved spec."""
    section = None
    rank = None
    degree = None
    degree_line = None
    raw_gens = {}
    raw_words = {"subgroup": {}, "separate": {}}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line, start = _strip_comment(raw_line), 0  # start: offset of line in raw_line
        if not line.strip():
            continue
        header = _SECTION_RE.match(line)
        if header:
            section = header.group(1)
            if section not in ("free", "finite", "subgroup", "separate"):
                raise ProblemFormatError(f"unknown section [{section}]", lineno)
            line, start = header.group(2), header.start(2)
            if not line.strip():
                continue
        if section is None:
            raise ProblemFormatError("content before any section header", lineno)
        for piece in re.finditer(r"[^;]+", line):
            chunk = piece.group().strip()
            if not chunk:
                continue
            if section == "free":
                keyed = _KEYED_RE.match(chunk)
                if not keyed or keyed.group(1) != "rank":
                    raise ProblemFormatError(f"expected 'rank = <int>', got {chunk!r}", lineno)
                if rank is not None:
                    raise ProblemFormatError("rank defined twice", lineno)
                rank = _parse_int(keyed.group(2), lineno)
                if rank > MAX_FREE_RANK:
                    raise ProblemFormatError(f"free rank above {MAX_FREE_RANK}", lineno)
            elif section == "finite":
                keyed = _KEYED_RE.match(chunk)
                if keyed and keyed.group(1) == "degree":
                    if degree is not None:
                        raise ProblemFormatError("degree defined twice", lineno)
                    degree = _parse_int(keyed.group(2), lineno)
                    degree_line = lineno
                    if degree < 1:
                        raise ProblemFormatError("finite-factor degree below 1", lineno)
                    if degree > MAX_FINITE_DEGREE:
                        raise ProblemFormatError(
                            f"finite-factor degree above {MAX_FINITE_DEGREE}", lineno)
                    continue
                if keyed and keyed.group(1) == "gens":
                    chunk = keyed.group(2).strip()
                gendef = _GENDEF_RE.match(chunk)
                if not gendef:
                    raise ProblemFormatError(
                        f"expected 'degree = <int>' or 'y<k>: <cycles>', got {chunk!r}",
                        lineno)
                index = _parse_int(gendef.group(1), lineno)
                if index in raw_gens:
                    raise ProblemFormatError(f"generator y{index} defined twice", lineno)
                raw_gens[index] = (gendef.group(2).strip(), lineno)
            else:
                keyed = _KEYED_RE.match(chunk)
                prefix = "h" if section == "subgroup" else "g"
                if not keyed or not re.fullmatch(prefix + r"[0-9]+", keyed.group(1)):
                    raise ProblemFormatError(
                        f"expected '{prefix}<i> = <word>', got {chunk!r}", lineno)
                index = _parse_int(keyed.group(1)[1:], lineno)
                if index in raw_words[section]:
                    raise ProblemFormatError(
                        f"{keyed.group(1)} defined twice", lineno)
                offset = start + piece.start() + piece.group().find(chunk) + keyed.start(2)
                raw_words[section][index] = (keyed.group(2).strip(), lineno, offset)

    if rank is None:
        raise ProblemFormatError("missing [free] section with a rank", 1)
    if rank < 2:
        raise ProblemFormatError(f"free rank must be at least 2, got {rank}", 1)
    if degree is None:
        raise ProblemFormatError("missing degree in [finite] section", 1)
    if not raw_gens:
        raise ProblemFormatError("missing generators in [finite] section", 1)
    for position, index in enumerate(sorted(raw_gens), start=1):
        if index != position:
            raise ProblemFormatError(
                f"y{index} is out of sequence: finite-factor generators must be "
                "y1..yq with no gaps", raw_gens[index][1])

    perms = []
    for index in range(1, len(raw_gens) + 1):
        cycles_text, lineno = raw_gens[index]
        if _LONG_NUMBER_RE.search(cycles_text):
            raise ProblemFormatError(
                f"expected an integer of at most {MAX_NUMBER_DIGITS} digits", lineno)
        try:
            perms.append(permgroup.parse_cycles(cycles_text, degree))
        except ValueError as err:
            raise ProblemFormatError(str(err), lineno) from err
    try:
        table = enumerate_group(degree, perms)
    except ValueError as err:
        raise ProblemFormatError(str(err), degree_line) from err

    total = 0  # letters of the words collected so far, in both sections

    def collect(section: str, prefix: str):
        """Words h1..hm or g1..gm; an error's column counts from the line's
        start, not the word's."""
        nonlocal total
        out = []
        for position, index in enumerate(sorted(raw_words[section]), start=1):
            word_text, lineno, offset = raw_words[section][index]
            if index != position:
                raise ProblemFormatError(
                    f"{prefix}{index} is out of sequence: {section} words must be "
                    f"{prefix}1..{prefix}m with no gaps", lineno)
            if not word_text:
                raise ProblemFormatError(
                    f"{prefix}{index} is empty; write 1 for the identity",
                    lineno, offset + 1)
            try:
                word = parse_word(word_text, rank, len(raw_gens), lineno)
            except ProblemFormatError as err:
                raise ProblemFormatError(err.message, lineno, offset + err.column) from None
            total += len(word)
            if total > MAX_PROBLEM_LETTERS:
                raise ProblemFormatError(
                    f"subgroup and separator words longer than {MAX_PROBLEM_LETTERS} "
                    "letters together",
                    lineno, offset + 1)
            out.append(word)
        return tuple(out)

    return ProblemSpec(
        free=FreeFactor(rank),
        finite=table,
        subgroup_words=collect("subgroup", "h"),
        separate_words=collect("separate", "g"),
    )


def _parse_int(text: str, line: int) -> int:
    """ASCII digits with an optional leading '-': int() alone would also
    take other scripts' digits, underscores and a '+'."""
    text = text.strip()
    if len(text) > MAX_NUMBER_DIGITS:
        raise ProblemFormatError(
            f"expected an integer of at most {MAX_NUMBER_DIGITS} digits", line)
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ProblemFormatError(f"expected an integer, got {text!r}", line)
    return int(text)


def export_dot(graph: LabeledGraph, name: str) -> str:
    """Deterministic DOT rendering: sorted vertex ids, base double-circled,
    one arc per canonical edge orientation."""
    lines = [f"digraph {name} {{"]
    for v in sorted(graph.vertices):
        shape = " [shape=doublecircle]" if v == graph.base else ""
        lines.append(f"  {v}{shape};")
    for u, w, letter in sorted(graph.pairs, key=_pair_key):
        lines.append(f'  {u} -> {w} [label="{letter}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass
class RunOutcome:
    exit_code: int
    document: dict
    stages: dict


def run_separate(
    spec: ProblemSpec,
    sign_vector=None,
    max_prime: int = DEFAULT_MAX_PRIME,
    verify_level: str = "fast",
) -> RunOutcome:
    """Full pipeline: based graph, eligibility, separating cover, vertex
    action, recognition, certificate; each stage graph is the graph of
    the adjacency its stage wrote.  The cover's size is known before step
    2 writes it; when that size + 5 passes ``max_prime``,
    CoverSearchExhaustedError is raised at once.  Each invariant of a
    certificate is checked once before the document is emitted:
    ``CoverPlan`` rejects a non-prime degree; the cover's slot writes
    reject an edge whose slot is taken; ``covers._attempt`` rejects a
    cover of the wrong size, an unsaturated cover or an intransitive
    action; and ``_certificate`` checks the image order, the images of
    the base point and of the separators, read through the cover's point
    numbering, and with ``factors.component_cosets`` that every
    y-component of the cover is a full coset graph.  Raises ValueError
    for a ``verify_level`` other than "fast" or "full"."""
    if verify_level not in ("fast", "full"):
        raise ValueError(f"verify_level must be 'fast' or 'full', got {verify_level!r}")
    if not spec.separate_words:
        raise ValueError("nothing to separate: no [separate] words")
    built = build_subgroup_graph(spec)
    stages = {"subgroup_graph": built.graph}
    for j, end in enumerate(built.separator_ends, start=1):
        if end == built.graph.base:
            return RunOutcome(
                3,
                {"rejected": True, "reason": "GammaClosed", "separator_index": j,
                 "detail": f"word g{j} already lies in the subgroup"},
                stages,
            )
    verdict = hypothesis_check(built.graph, spec.free.rank)
    try:
        result = build_separating_cover(
            spec, built.graph, verdict, signs=sign_vector, max_prime=max_prime
        )
    except HypothesisNotSatisfiedError as err:
        return RunOutcome(
            2,
            {"rejected": True, "reason": "HypothesisNotSatisfied", "detail": str(err)},
            stages,
        )
    stages.update(result.stages)

    certificate = _certificate(spec, built, result)
    if verify_level == "full":
        _full_verification(spec, built.graph, sys.stderr)
    return RunOutcome(0, certificate, stages)


def _certificate(spec, built, result) -> dict:
    """The certificate of an accepted cover, after its self-checks.  It
    reads the plan, the images and the cover layer's point numbering
    (``result.positions``), which places the base point and each
    separator's traced end.  The vertex counts after step 2 and after
    step 4 are the plan's k and p: ``choose_prime`` takes k from the
    written cover, and ``covers._attempt`` checks p.  Of the cover graph,
    only the y-component check reads the adjacency."""
    plan = result.plan
    positions = result.positions
    base_point = positions[built.graph.base]

    order = permgroup.bsgs_order(list(result.images.values()), plan.degree)
    expected = math.factorial(plan.degree)
    if result.image_type == "alternating":
        expected //= 2
    if order != expected:
        raise AssertionError("image order does not match its classification")

    for word in spec.subgroup_words:
        if word_action(result.images, word, base_point) != base_point:
            raise AssertionError("a subgroup generator image moves the base point")

    separations = []
    for j, word in enumerate(spec.separate_words, start=1):
        moved = word_action(result.images, word, base_point)
        if moved != positions[built.separator_ends[j - 1]]:
            raise AssertionError("separator action disagrees with its traced path")
        if moved == base_point:
            raise AssertionError("separator image fixes the base point")
        separations.append(
            {"word": word_str(word), "base_image_vertex": moved + 1, "separated": True}
        )

    _check_y_components(spec.finite, result.cover)

    images_cycles = {
        name: permgroup.format_cycles(perm) for name, perm in result.images.items()
    }
    return {
        "degree": plan.degree,
        "prime": True,
        "image_type": result.image_type,
        "base_point": base_point + 1,
        "generator_images": images_cycles,
        "separations": separations,
        "pipeline_stats": {
            "k": plan.base_size,
            "n": plan.chain_length,
            "retries": result.retries,
            "vertex_counts": {
                "subgroup_graph": len(built.graph.vertices),
                "component_covers": plan.base_size,
                "precover": plan.degree,
                "cover": plan.degree,
            },
            "move_letter": f"x{result.params.move_letter}",
            "move_support": result.move_support,
            "transitive": True,
        },
    }


def _check_y_components(table, graph: LabeledGraph):
    """Every y-component of an accepted cover is a full coset graph: its
    vertices lie on distinct cosets of its loop subgroup K, and there are
    |G|/|K| of them, from whichever vertex its pass starts.  The cover is
    saturated, so every coset's edges are there too."""
    for subgroup, keys in component_cosets(table, graph):
        cosets = set(keys.values())
        if len(cosets) != len(keys) or len(cosets) * len(subgroup) != table.order:
            raise AssertionError("a y-component is not a full coset graph")


def _full_verification(spec, graph, stream):
    """Decompose the subgroup graph, check the decomposition exactly
    (``kurosh.check_decomposition``), and print the factors, the words
    checked and the faults found.  The words checked are the
    decomposition's generators, the factors' loop words and delta's free
    basis (slot count / 2 - |V| + 1 words), and the subgroup words."""
    decomposition = kurosh_decompose(graph, spec.finite)
    faults = check_decomposition(spec, graph, decomposition)
    delta = decomposition.delta.out
    checked = (sum(len(factor.loop_words) for factor in decomposition.factors)
               + sum(map(len, delta.values())) // 2 - len(delta) + 1
               + len(spec.subgroup_words))
    print(
        f"verify: factors={len(decomposition.factors)} checks={checked} "
        f"counterexamples={len(faults)}",
        file=stream,
    )
    if faults:
        raise AssertionError(f"Kurosh decomposition check failed: {faults[0]}")


def _parse_sign_vector(text: str):
    signs = []
    for token in text.split(","):
        token = token.strip()
        if token in ("+1", "1"):
            signs.append(1)
        elif token == "-1":
            signs.append(-1)
        else:
            raise ValueError(f"bad sign {token!r} (want +1 or -1)")
    return tuple(signs)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _Parser(
        prog="altsep",
        description=(
            "Separate elements from a finitely generated subgroup of a free "
            "product (free group * finite group) by a surjection onto an "
            "alternating or symmetric group."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sep = sub.add_parser("separate", help="run the pipeline on a problem file")
    sep.add_argument("file", help="problem file")
    sep.add_argument("--emit-dot", metavar="DIR",
                     help="write one DOT file per pipeline stage into DIR")
    sep.add_argument("--sign-vector", metavar="S",
                     help="comma-separated +1/-1 per free generator (default all +1)")
    sep.add_argument("--max-prime", type=int, default=DEFAULT_MAX_PRIME,
                     help="largest prime degree to try, at most %(default)s (the default)")
    sep.add_argument("--verify-level", choices=("fast", "full"), default="fast",
                     help="'full' additionally checks the subgroup's free-product decomposition")

    # argparse takes the value in "--sign-vector -1,+1" for an option;
    # every abbreviation it accepts ("--sign") is joined to its value too
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):
        if len(argv[i]) > 2 and "--sign-vector".startswith(argv[i]):
            argv[i:i + 2] = [f"--sign-vector={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"altsep: error: {err}", file=sys.stderr)
        return 1

    try:
        with open(args.file, "rb") as stream:
            data = stream.read(MAX_PROBLEM_BYTES + 1)
        if len(data) > MAX_PROBLEM_BYTES:
            raise ValueError(f"problem file larger than {MAX_PROBLEM_BYTES} bytes")
        text = data.decode("utf-8-sig")  # a byte-order mark is not content
    except (OSError, ValueError) as err:  # UnicodeDecodeError is a ValueError
        print(f"altsep: error: {err}", file=sys.stderr)
        return 1
    try:
        spec = parse_problem(text)
        if not spec.separate_words:
            raise ValueError("nothing to separate: no [separate] words")
        if args.max_prime > DEFAULT_MAX_PRIME:
            raise ValueError(f"--max-prime above {DEFAULT_MAX_PRIME}")
        if args.emit_dot == "":
            raise ValueError("--emit-dot needs a directory name, got ''")
        signs = None if args.sign_vector is None else _parse_sign_vector(args.sign_vector)
        if signs is not None and len(signs) != spec.free.rank:
            raise ValueError(
                f"sign vector must have length {spec.free.rank}, got {len(signs)}")
    except (ProblemFormatError, ValueError) as err:
        print(f"altsep: error: {err}", file=sys.stderr)
        return 1

    try:
        outcome = run_separate(
            spec,
            sign_vector=signs,
            max_prime=args.max_prime,
            verify_level=args.verify_level,
        )
    except CoverSearchExhaustedError as err:
        print(f"altsep: error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        # the input was validated above, so any other exception is a bug;
        # one with no message (a MemoryError) is named by its type
        print(f"altsep: internal error: {str(err) or type(err).__name__}",
              file=sys.stderr)
        return 4

    if args.emit_dot is not None:
        directory = Path(args.emit_dot)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            for name in STAGE_NAMES:
                if name in outcome.stages:
                    path = directory / f"{name}.dot"
                    path.write_text(export_dot(outcome.stages[name], name))
        except OSError as err:
            print(f"altsep: error: {err}", file=sys.stderr)
            return 1

    try:
        print(json.dumps(outcome.document, indent=2))
        sys.stdout.flush()
    except OSError as err:  # a closed pipe or a full disk
        print(f"altsep: error: cannot write to stdout: {err}", file=sys.stderr)
        # the exit flush then writes what is left to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return outcome.exit_code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
