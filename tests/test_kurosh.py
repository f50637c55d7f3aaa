import copy
import random
from pathlib import Path

import pytest

from altsep.cli import parse_problem
from altsep.factors import NotGBasedError
from altsep import kurosh
from altsep.graphs import _pair_key, trace
from altsep.kurosh import kurosh_decompose, project_loop, verify_intersection
from altsep.subgroups import build_subgroup_graph, hypothesis_check
from altsep.words import word_str, x_letter as x, y_letter as y

from conftest import make_spec
from oracles import (
    build_graph,
    canonical_pair,
    component_subgraphs,
    iter_reduced_x_words,
    kurosh_oracle,
    random_raw_word,
)
from test_scale import decompose_sized_words

PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.txt"))


def decompose(spec):
    built = build_subgroup_graph(spec)
    return built.graph, kurosh_decompose(built.graph, spec.finite)


# -- decomposition ------------------------------------------------------------------


def test_single_power_factor(z2):
    graph, decomposition = decompose(make_spec(z2, subgroup_words=[(x(1), x(1))]))
    assert len(decomposition.factors) == 1
    factor = decomposition.factors[0]
    assert factor.approach == ()
    assert factor.factor == "x"
    assert [word_str(w) for w in factor.loop_words] == ["x1^2"]
    assert decomposition.free_rank == 0


def test_two_conjugate_finite_factors(z2):
    graph, decomposition = decompose(
        make_spec(z2, subgroup_words=[(y(1),), (x(1), y(1), x(1, -1))])
    )
    assert len(decomposition.factors) == 2
    approaches = [word_str(f.approach) for f in decomposition.factors]
    assert approaches == ["1", "x1"]
    for factor in decomposition.factors:
        assert factor.factor == "y"
        assert factor.subgroup == frozenset(range(z2.order))
    assert decomposition.free_rank == 0


def test_singleton_graph_no_factors(z2):
    graph, decomposition = decompose(make_spec(z2))
    assert decomposition.factors == ()
    assert decomposition.free_rank == 0


def test_free_part_contributes_rank(z2):
    # x1 x2 x1^-1 x2^-1 makes a commutator loop: no monochromatic cycles of
    # the finite factor, one x-component with two independent loops
    graph, decomposition = decompose(
        make_spec(z2, subgroup_words=[(x(1), x(1)), (x(2), x(2))])
    )
    assert len(decomposition.factors) == 1 or len(decomposition.factors) == 2
    total_loops = sum(len(f.loop_words) for f in decomposition.factors)
    assert total_loops == 2
    assert decomposition.free_rank == 0


def test_rank_formula_on_delta(z2, s3):
    specs = [
        make_spec(z2, subgroup_words=[(x(1), x(1))]),
        make_spec(z2, subgroup_words=[(y(1),), (x(1), y(1), x(1, -1))]),
        make_spec(s3, subgroup_words=[(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))]),
        make_spec(z2, subgroup_words=[(x(1), y(1), x(2), y(1))]),
    ]
    for spec in specs:
        graph, decomposition = decompose(spec)
        delta = decomposition.delta
        assert decomposition.free_rank == len(delta.pairs) - len(delta.vertices) + 1


def test_anchor_normalization_and_disjoint_approach(s3):
    graph, decomposition = decompose(
        make_spec(s3, subgroup_words=[(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))])
    )
    for factor in decomposition.factors:
        if graph.base in factor.component.vertices:
            assert factor.approach == ()
        # the approach path meets the component only at the anchor
        path_vertices = [graph.base]
        current = graph.base
        for letter in factor.approach:
            current = graph.step(current, letter)
            path_vertices.append(current)
        assert current == factor.anchor
        for vertex in path_vertices[:-1]:
            assert vertex not in factor.component.vertices


def test_pendant_tree_changes_nothing(z2):
    spec = make_spec(z2, subgroup_words=[(y(1),), (x(1), y(1), x(1, -1))])
    graph, decomposition = decompose(spec)
    # the same subgroup with an extra dead-end path wedged on (an open
    # separator path is exactly a pendant tree)
    spec_pendant = make_spec(
        z2,
        subgroup_words=[(y(1),), (x(1), y(1), x(1, -1))],
        separate_words=[(x(2), x(1))],
    )
    built = build_subgroup_graph(spec_pendant)
    pendant = kurosh_decompose(built.graph, z2)
    assert pendant.free_rank == decomposition.free_rank
    assert [f.approach for f in pendant.factors] == [
        f.approach for f in decomposition.factors
    ]
    assert [f.loop_words for f in pendant.factors] == [
        f.loop_words for f in decomposition.factors
    ]


def test_kurosh_rejects_a_disconnected_graph(z2):
    graph = build_graph([0, 1, 2], [(0, 1, x(1)), (2, 2, x(2))], 0)
    with pytest.raises(ValueError, match="graph must be connected"):
        kurosh_decompose(graph, z2)


def test_disconnected_pruned_graph_is_an_internal_error(z2, monkeypatch):
    """A component that misreports a tree edge as a non-tree edge makes the
    pruned graph fall apart; that is a broken invariant, not bad input."""
    real = kurosh._component_walk

    def losing_one_tree_edge(out, anchor, letters):
        parent, nontree = real(out, anchor, letters)
        tree = [canonical_pair(u, v, letter) for v, (u, letter) in parent.items()]
        if tree:
            nontree = nontree + [min(tree, key=_pair_key)]
        return parent, nontree

    monkeypatch.setattr(kurosh, "_component_walk", losing_one_tree_edge)
    graph = build_graph([0, 1], [(0, 1, x(1)), (0, 1, x(2))], 0)
    with pytest.raises(AssertionError, match="pruned graph must stay connected"):
        kurosh_decompose(graph, z2)


def assert_same_decomposition(got, expected):
    """Approach and loop words, each component's vertices, pairs and
    base, the finite subgroups, the free rank, and delta's vertices and
    pairs."""
    assert len(got.factors) == len(expected.factors)
    for mine, theirs in zip(got.factors, expected.factors):
        assert (mine.approach, mine.loop_words) == (theirs.approach, theirs.loop_words)
        assert (mine.factor, mine.subgroup) == (theirs.factor, theirs.subgroup)
        assert mine.component.vertices == theirs.component.vertices
        assert mine.component.pairs == theirs.component.pairs
        assert mine.component.base == theirs.component.base
    assert got.free_rank == expected.free_rank
    assert got.delta.vertices == expected.delta.vertices
    assert got.delta.pairs == expected.delta.pairs


def test_decomposition_matches_the_pair_set_oracle(z2, s3, d4, a4):
    """On 220 seeded subgroup graphs the decomposition read off the
    adjacency is the one built through pair sets, and the graph's
    adjacency, whose slot dicts delta shares, is left as it was."""
    rng = random.Random(41)
    factors = pruned = 0
    for table in (z2, s3, d4, a4):
        for _ in range(55):
            words = [random_raw_word(rng, 2, table.num_generators, 12, 1)
                     for _ in range(rng.randint(1, 4))]
            separators = [random_raw_word(rng, 2, table.num_generators, 6, 1)
                          for _ in range(rng.randint(0, 2))]
            graph = build_subgroup_graph(make_spec(table, words, separators)).graph
            before = copy.deepcopy(graph.out)
            decomposition = kurosh_decompose(graph, table)
            assert graph.out == before
            assert_same_decomposition(decomposition, kurosh_oracle(graph, table))
            factors += len(decomposition.factors)
            pruned += len(decomposition.delta.pairs) < len(graph.pairs)
    assert factors >= 200 and pruned >= 150


def test_decompose_builds_no_pair_set_of_the_subgroup_graph(s3):
    """Subgroup graph, verdict and decomposition of every problem file and
    of the decompose-sized subgroup read the adjacency only: the graph's
    pairs are never asked for."""
    specs = [parse_problem(path.read_text()) for path in PROBLEMS]
    specs.append(make_spec(s3, decompose_sized_words(s3)))
    for spec in specs:
        graph = build_subgroup_graph(spec).graph
        hypothesis_check(graph, spec.free.rank)
        decomposition = kurosh_decompose(graph, spec.finite)
        assert graph._pairs is None
        assert_same_decomposition(decomposition, kurosh_oracle(graph, spec.finite))


# -- loop projection ------------------------------------------------------------------


def test_project_loop_fixed_point(z2):
    graph, decomposition = decompose(make_spec(z2, subgroup_words=[(x(1), x(1))]))
    component = decomposition.factors[0].component
    word = (x(1), x(1))
    assert project_loop(graph, z2, component, component.base, word) == word


def test_project_loop_excises_closed_finite_subloop(z2):
    # x1 (y1 y1) x1 at the base: the doubled y1 loop closes and drops out
    spec = make_spec(z2, subgroup_words=[(x(1), y(1), y(1), x(1))])
    built = build_subgroup_graph(spec)
    graph = built.graph
    xcomp = component_subgraphs(graph, "x")[0][0]
    word = (x(1), y(1), y(1), x(1))
    projected = project_loop(graph, z2, xcomp, graph.base, word)
    assert projected == (x(1), x(1))
    assert trace(xcomp, graph.base, projected).closed


def test_project_loop_rejects_non_based_graph(z2):
    # hand-built graph with an identity-labeled y-path that is not closed
    graph = build_graph(
        [0, 1, 2, 3],
        [(0, 1, x(1)), (1, 2, y(1)), (2, 3, y(1)), (3, 0, x(1))],
        0,
    )
    xcomp = component_subgraphs(graph, "x")[0][0]
    word = (x(1), y(1), y(1), x(1))
    with pytest.raises(NotGBasedError):
        project_loop(graph, z2, xcomp, 0, word)


def test_project_loop_rejects_wrong_factor_label(z2):
    graph, decomposition = decompose(make_spec(z2, subgroup_words=[(x(1), x(1))]))
    component = decomposition.factors[0].component
    with pytest.raises(ValueError):
        project_loop(graph, z2, component, component.base, ())
    with pytest.raises(ValueError):
        # x1 x1^-1 has identity label
        project_loop(graph, z2, component, component.base, (x(1), x(1, -1)))


# -- intersection verification -----------------------------------------------------------


def test_verify_power_subgroup_and_ball(z2):
    graph, decomposition = decompose(make_spec(z2, subgroup_words=[(x(1), x(1))]))
    report = verify_intersection(graph, z2, 2, decomposition, 4)
    assert report.ok
    # the subgroup's trace inside the component picks exactly the even powers
    component = decomposition.factors[0].component
    members = {
        word_str(u)
        for u in iter_reduced_x_words(2, 4)
        if trace(component, component.base, u).closed
    }
    assert members == {"x1^2", "x1^-2", "x1^4", "x1^-4"}


def test_verify_trivial_subgroup_empty_report(z2):
    graph, decomposition = decompose(make_spec(z2))
    report = verify_intersection(graph, z2, 2, decomposition, 3)
    assert report.ok and report.checks == ()


def test_verify_two_finite_factors(z2):
    graph, decomposition = decompose(
        make_spec(z2, subgroup_words=[(y(1),), (x(1), y(1), x(1, -1))])
    )
    report = verify_intersection(graph, z2, 2, decomposition, 4)
    assert report.ok
    assert all(check.checked >= 1 for check in report.checks)
