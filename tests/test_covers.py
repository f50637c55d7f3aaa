import itertools
from pathlib import Path

import pytest

from altsep import covers, permgroup
from altsep.cli import export_dot, parse_problem, run_separate
from altsep.covers import (
    CoverPlan,
    HypothesisNotSatisfiedError,
    build_separating_cover,
    chain_gadget,
    choose_prime,
    mover_gadget,
    word_action,
)
from altsep.graphs import LabeledGraph
from altsep.subgroups import VERDICT_NOT_APPLICABLE, build_subgroup_graph, hypothesis_check
from altsep.words import x_alphabet, x_letter as x, y_alphabet, y_letter as y

from conftest import make_spec
from oracles import (
    component_subgraphs,
    embed_Y_component,
    is_connected,
    make_graph,
    reidemeister_schreier,
    saturation_defects,
)


# -- gadgets -----------------------------------------------------------------------


def test_chain_of_four_matches_interval_picture():
    g = chain_gadget(4, 2, 1)
    assert len(g.vertices) == 4
    assert sum(1 for p in g.pairs if p[2] == x(1)) == 3
    assert sum(1 for p in g.pairs if p[2] == x(2) and p[0] == p[1]) == 4
    defects = saturation_defects(g, x_alphabet(2))
    assert {(d.vertex, str(d.missing)) for d in defects} == {(0, "x1^-1"), (3, "x1")}


def test_chain_degenerate_single_vertex():
    g = chain_gadget(1, 2, 1)
    assert len(g.vertices) == 1
    defects = saturation_defects(g, x_alphabet(2))
    assert {str(d.missing) for d in defects} == {"x1", "x1^-1"}


def test_chain_rank_three_counts():
    g = chain_gadget(3, 3, 1)
    assert len(g.vertices) == 3
    assert sum(1 for p in g.pairs if p[2] == x(1)) == 2
    loops = [p for p in g.pairs if p[0] == p[1]]
    assert len(loops) == 6  # x2 and x3 at each of the three vertices


def test_chain_non_connect_letters_fix_everything():
    g = chain_gadget(5, 3, 2)
    for i in (1, 3):
        for v in g.vertices:
            assert g.out[v][x(i)] == v


def test_mover_plus_minus_matches_picture():
    g = mover_gadget((1, -1), 2, 1, 2)
    assert len(g.vertices) == 4
    assert (0, 0, x(1)) not in g.pairs
    assert (2, 2, x(1)) in g.pairs and (3, 3, x(1)) in g.pairs  # sign +1 on x1
    # sign -1 on the move letter: a directed 4-cycle of x2 edges
    cycle = {(u, w) for u, w, letter in g.pairs if letter == x(2)}
    assert cycle == {(0, 1), (1, 2), (2, 3), (3, 0)}
    defects = saturation_defects(g, x_alphabet(2))
    assert {(d.vertex, str(d.missing)) for d in defects} == {(0, "x1^-1"), (1, "x1")}


def test_mover_plus_plus_double_transposition():
    g = mover_gadget((1, 1), 2, 1, 2)
    images = {v: g.out[v][x(2)] for v in g.vertices}
    assert images == {0: 2, 2: 0, 1: 3, 3: 1}


def test_mover_defects_for_every_sign_vector():
    for signs in itertools.product((1, -1), repeat=3):
        g = mover_gadget(signs, 3, 1, 2)
        defects = saturation_defects(g, x_alphabet(3))
        assert {(d.vertex, str(d.missing)) for d in defects} == {(0, "x1^-1"), (1, "x1")}
        # the move letter permutes the four vertices nontrivially
        assert any(g.out[v][x(2)] != v for v in g.vertices)


def test_gadgets_are_folded():
    """Every shape of gadget is the graph its pairs spell: no two of them
    claim one slot."""
    for signs in itertools.product((1, -1), repeat=3):
        for connect, move in ((1, 2), (2, 1), (3, 1)):
            g = mover_gadget(signs, 3, connect, move)
            assert make_graph(g.vertices, g.pairs, g.base) == g
    for length in (1, 2, 5):
        g = chain_gadget(length, 3, 2)
        assert make_graph(g.vertices, g.pairs, g.base) == g


def test_mover_parameter_validation():
    with pytest.raises(ValueError):
        mover_gadget((1,), 2, 1, 2)
    with pytest.raises(ValueError):
        mover_gadget((1, 1), 2, 1, 1)
    with pytest.raises(ValueError):
        chain_gadget(0, 2, 1)


# -- prime plans --------------------------------------------------------------------


def test_choose_prime_first_plans():
    first = next(iter(choose_prime(2)))
    assert (first.degree, first.chain_length) == (7, 1)
    first = next(iter(choose_prime(7)))
    assert (first.degree, first.chain_length) == (13, 2)
    first = next(iter(choose_prime(8)))
    assert (first.degree, first.chain_length) == (13, 1)


def test_choose_prime_ascending_and_consistent():
    plans = list(itertools.islice(choose_prime(5), 5))
    degrees = [p.degree for p in plans]
    assert degrees == sorted(degrees)
    for plan in plans:
        assert plan.degree == plan.base_size + plan.chain_length + 4


def test_cover_plan_validation():
    with pytest.raises(ValueError):
        CoverPlan(2, 8, 2)  # not prime
    with pytest.raises(ValueError):
        CoverPlan(2, 7, 2)  # degree mismatch


# -- vertex action ------------------------------------------------------------------


PROBLEM_FILES = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.txt"))


@pytest.mark.parametrize("problem", PROBLEM_FILES, ids=lambda p: p.stem)
def test_generator_images_are_the_edge_action_on_the_cover(problem):
    """The images read off the cover's adjacency are the generators'
    edge-following action on the cover graph, on its sorted vertices."""
    spec = parse_problem(problem.read_text())
    outcome = run_separate(spec)
    if outcome.exit_code != 0:
        assert "cover" not in outcome.stages
        return
    cover = outcome.stages["cover"]
    order = sorted(cover.vertices)
    position = {v: i for i, v in enumerate(order)}
    letters = x_alphabet(spec.free.rank)[::2] + y_alphabet(spec.finite.num_generators)[::2]
    action = {str(letter): permgroup.format_cycles([position[cover.out[v][letter]]
                                                    for v in order])
              for letter in letters}
    assert outcome.document["generator_images"] == action


STAGES = ("component_covers", "precover", "cover")


@pytest.mark.parametrize("problem", PROBLEM_FILES, ids=lambda p: p.stem)
def test_cover_graphs_carry_their_adjacency(problem, monkeypatch):
    """Each stage graph of the cover layer has the adjacency it was
    built from as its ``out``, and its pairs are the ones that spell
    that adjacency."""
    spec = parse_problem(problem.read_text())
    graph = build_subgroup_graph(spec).graph
    verdict = hypothesis_check(graph, spec.free.rank)
    if verdict.kind == VERDICT_NOT_APPLICABLE:
        return
    written, real_graph = [], covers.LabeledGraph

    def recording(out, base):
        written.append(out)
        return real_graph(out, base)

    monkeypatch.setattr(covers, "LabeledGraph", recording)
    result = build_separating_cover(spec, graph, verdict)
    stages = [result.stages[name] for name in STAGES]
    assert result.cover is result.stages["cover"]
    # the last three graphs built; the gadgets come before them
    assert [id(out) for out in written[-3:]] == [id(built.out) for built in
                                                 (result.cover, *stages[:2])]
    for built in stages:
        assert built.out == make_graph(built.vertices, built.pairs, built.base).out


@pytest.mark.parametrize("problem", PROBLEM_FILES, ids=lambda p: p.stem)
def test_a_run_builds_no_pair_set_of_its_cover_graphs(problem, monkeypatch):
    """A certify run reads the cover layer's stage graphs through their
    adjacency only, so none of them reads its pairs off it; written as
    DOT, which does, every stage graph is its golden file."""
    read, real = [], LabeledGraph.pairs
    monkeypatch.setattr(LabeledGraph, "pairs", property(lambda g: read.append(g) or real.fget(g)))
    outcome = run_separate(parse_problem(problem.read_text()))
    stages = [outcome.stages[name] for name in STAGES if name in outcome.stages]
    assert len(stages) == (3 if outcome.exit_code == 0 else 0)
    assert not any(graph is stage for graph in read for stage in stages)
    golden = Path(__file__).resolve().parent / "golden" / problem.stem
    for name, stage in outcome.stages.items():
        assert export_dot(stage, name) == (golden / f"{name}.dot").read_text()


def test_a_rejected_prime_builds_no_graph(monkeypatch):
    """Recognition rejects the first prime; each attempt builds its two
    gadgets, and the stage graphs are built from the adjacency once each,
    for the accepted prime only."""
    real_recognize, real_graph = permgroup.recognize_alt_sym, covers.LabeledGraph
    degrees, built = [], []

    def other_first(gens, degree):
        degrees.append(degree)
        return permgroup.OTHER if len(degrees) == 1 else real_recognize(gens, degree)

    def counting(out, base):
        built.append((degrees[-1] if degrees else None, len(out)))
        return real_graph(out, base)

    monkeypatch.setattr(permgroup, "recognize_alt_sym", other_first)
    monkeypatch.setattr(covers, "LabeledGraph", counting)
    problem = Path(__file__).resolve().parent.parent / "problems" / "s3_conjugates.txt"
    spec = parse_problem(problem.read_text())
    graph = build_subgroup_graph(spec).graph
    result = build_separating_cover(spec, graph, hypothesis_check(graph, spec.free.rank))
    assert degrees == [13, 17] and result.retries == 1
    k = result.plan.base_size
    # the gadgets of 13 and 17, chain then mover, and then the stage graphs
    assert built == [(None, 13 - k - 4), (None, 4), (13, 17 - k - 4), (13, 4),
                     (17, 17), (17, k), (17, 17)]
    stages = result.stages
    assert len(stages["component_covers"].vertices) < len(stages["cover"].vertices) == 17
    assert stages["precover"].vertices == stages["cover"].vertices
    assert stages["precover"].pairs < stages["cover"].pairs


def test_word_action_inverts_each_generator_once(monkeypatch):
    images = {
        "x1": permgroup.parse_cycles("(1 2 3 4 5)", 5),
        "x2": permgroup.parse_cycles("(1 3)(2 5)", 5),
        "y1": permgroup.parse_cycles("(2 4 5)", 5),
    }
    word = (x(1, -1), y(1), x(1, -1), x(2), y(1, -1), x(1, -1), y(1, -1), x(2, -1))
    expected = []
    for point in range(5):
        for letter in word:
            perm = images[f"{letter.factor}{letter.index}"]
            point = perm[point] if letter.sign > 0 else perm.index(point)
        expected.append(point)
    inverted = []
    original = permgroup.inverse

    def counting(perm):
        inverted.append(perm)
        return original(perm)

    monkeypatch.setattr(permgroup, "inverse", counting)
    for point in range(5):
        inverted.clear()
        assert word_action(images, word, point) == expected[point]
        assert sorted(inverted) == sorted(images.values())


# -- full pipeline ----------------------------------------------------------------------


def run_pipeline(spec, **kwargs):
    built = build_subgroup_graph(spec)
    verdict = hypothesis_check(built.graph, spec.free.rank)
    result = build_separating_cover(spec, built.graph, verdict, **kwargs)
    return built, result


def test_pipeline_trivial_subgroup(z2):
    spec = make_spec(z2, separate_words=[(x(1),)])
    built, result = run_pipeline(spec)
    assert result.plan.base_size == 2
    assert result.plan.degree == 7 and result.plan.chain_length == 1
    assert len(result.cover.vertices) == 7
    assert result.image_type in ("alternating", "symmetric")
    move = result.images[f"x{result.params.move_letter}"]
    assert len(permgroup.support(move)) <= result.plan.base_size + 4


def test_pipeline_conjugated_pair(s3):
    spec = make_spec(
        s3,
        subgroup_words=[(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))],
        separate_words=[(y(2),)],
    )
    built, result = run_pipeline(spec)
    graph = result.cover
    # the based graph embeds edge by edge, keeping its vertex ids
    assert built.graph.pairs <= graph.pairs
    # generator loops act trivially on the base, the separator does not
    positions = {v: i for i, v in enumerate(sorted(graph.vertices))}
    base_point = positions[built.graph.base]
    for word in spec.subgroup_words:
        assert word_action(result.images, word, base_point) == base_point
    assert word_action(result.images, (y(2),), base_point) != base_point


def test_pipeline_rejects_saturated_kernel(z2):
    flip = 1
    generators = reidemeister_schreier(z2, 2, 1, [flip, flip], [z2.identity])
    spec = make_spec(z2, subgroup_words=generators, separate_words=[(x(1),)])
    built = build_subgroup_graph(spec)
    verdict = hypothesis_check(built.graph, 2)
    with pytest.raises(HypothesisNotSatisfiedError):
        build_separating_cover(spec, built.graph, verdict)


def test_pipeline_cover_certificates(z2, s3):
    specs = [
        make_spec(z2, separate_words=[(x(1),)]),
        make_spec(z2, subgroup_words=[(x(1), x(1))], separate_words=[(x(1),)]),
        make_spec(
            s3,
            subgroup_words=[(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))],
            separate_words=[(y(2),)],
        ),
        make_spec(z2, subgroup_words=[(y(1),)], separate_words=[(x(2), y(1))]),
    ]
    for spec in specs:
        built, result = run_pipeline(spec)
        graph = result.cover
        table = spec.finite
        assert len(graph.vertices) == result.plan.degree
        assert saturation_defects(graph, x_alphabet(spec.free.rank)) == []
        assert saturation_defects(graph, y_alphabet(table.num_generators)) == []
        assert is_connected(graph)
        for component, _anchor in component_subgraphs(graph, "y"):
            cover, embedding = embed_Y_component(table, component)
            assert len(embedding) == len(cover.vertices)
        _orbits, transitive = permgroup.orbit_transitive(
            list(result.images.values()), result.plan.degree
        )
        assert transitive


def test_pipeline_respects_sign_vector(z2):
    spec = make_spec(z2, separate_words=[(x(1),)])
    built, result = run_pipeline(spec, signs=(1, -1))
    assert result.params.signs == (1, -1)
    assert result.image_type in ("alternating", "symmetric")


def test_pipeline_honors_prime_cap(z2):
    from altsep.covers import CoverSearchExhaustedError

    spec = make_spec(z2, separate_words=[(x(1),)])
    built = build_subgroup_graph(spec)
    verdict = hypothesis_check(built.graph, 2)
    with pytest.raises(CoverSearchExhaustedError):
        build_separating_cover(spec, built.graph, verdict, max_prime=5)


def test_prime_cap_below_the_first_plan_fails_before_building_covers(z2, monkeypatch):
    """Every plan's degree is at least the planned cover size + 5, here
    |V| + 5, as both y-components are full coset graphs already; a cap
    below that fails at once, with the usual message, before any
    component cover is built."""
    from altsep.covers import CoverSearchExhaustedError

    spec = make_spec(z2, subgroup_words=[(x(1), y(1), x(1, -1))],
                     separate_words=[(y(1),)])
    built = build_subgroup_graph(spec)
    verdict = hypothesis_check(built.graph, 2)
    cap = len(built.graph.vertices) + 4

    def unreachable(*_args):
        raise AssertionError("a component cover was built past the prime cap")

    monkeypatch.setattr(covers, "coset_action", unreachable)
    with pytest.raises(CoverSearchExhaustedError,
                       match=f"^no recognized cover with prime degree <= {cap}$"):
        build_separating_cover(spec, built.graph, verdict, max_prime=cap)
    # one more and the search starts: it reaches the y-component's cover
    with pytest.raises(AssertionError, match="past the prime cap"):
        build_separating_cover(spec, built.graph, verdict, max_prime=cap + 1)


def test_build_separating_cover_rejects_a_sign_vector_of_the_wrong_length(z2):
    spec = make_spec(z2, separate_words=[(x(1),)])
    built = build_subgroup_graph(spec)
    verdict = hypothesis_check(built.graph, 2)
    with pytest.raises(ValueError, match="^sign vector must have length 2$"):
        build_separating_cover(spec, built.graph, verdict, signs=(1, -1, 1))


def test_pipeline_connect_letter_follows_first_defect(z2):
    # x1 saturated on the witness, x2 not: the bridge must use x2 and the
    # move letter falls back to x1
    spec = make_spec(
        z2,
        subgroup_words=[(x(1),), (x(2), x(1), x(2, -1))],
        separate_words=[(y(1),)],
    )
    built, result = run_pipeline(spec)
    assert result.params.connect_letter == 2
    assert result.params.move_letter == 1
    assert result.image_type in ("alternating", "symmetric")


def test_pipeline_rank_three(z3):
    spec = make_spec(z3, subgroup_words=[(x(1), x(1))], separate_words=[(x(3),)], rank=3)
    built, result = run_pipeline(spec)
    graph = result.cover
    assert saturation_defects(graph, x_alphabet(3)) == []
    assert len(graph.vertices) == result.plan.degree
    move = result.images[f"x{result.params.move_letter}"]
    assert len(permgroup.support(move)) <= result.plan.base_size + 4


def test_relation_soundness_of_the_action(s3):
    # words spelling the same element of the finite factor act identically
    spec = make_spec(
        s3,
        subgroup_words=[(y(1), x(1, -1), y(1))],
        separate_words=[(y(2),)],
    )
    built, result = run_pipeline(spec)
    degree = result.plan.degree
    words = [
        (y(1),), (y(2),), (y(1), y(1)), (y(1), y(2)), (y(2), y(1)),
        (y(1), y(1), y(1)), (y(2), y(2)), (y(1, -1),), (y(2), y(1), y(2)),
    ]
    by_element = {}
    for word in words:
        element = s3.word_element(word)
        image = tuple(word_action(result.images, word, point) for point in range(degree))
        by_element.setdefault(element, image)
        assert by_element[element] == image
    # the identity relations really collapse
    assert by_element.get(s3.identity) is None or permgroup.is_identity(
        by_element[s3.identity]
    )
