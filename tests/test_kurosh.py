import collections
import copy
import dataclasses
import random
from pathlib import Path

import pytest

from altsep.cli import parse_problem
from altsep.factors import subgroup_closure
from altsep import kurosh
from altsep.graphs import LabeledGraph, _pair_key, walk
from altsep.kurosh import check_decomposition, kurosh_decompose
from altsep.subgroups import build_subgroup_graph, hypothesis_check
from altsep.words import word_str, x_letter as x, y_letter as y

from conftest import make_spec
from oracles import (
    build_graph,
    canonical_pair,
    intersection_ball_oracle,
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
            current = graph.out[current][letter]
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
    real = kurosh._tree_walk

    def losing_one_tree_edge(out, root, letters):
        order, parent, nontree = real(out, root, letters)
        tree = [canonical_pair(u, v, letter) for v, (u, letter) in parent.items()]
        if tree:
            nontree = nontree + [min(tree, key=_pair_key)]
        return order, parent, nontree

    monkeypatch.setattr(kurosh, "_tree_walk", losing_one_tree_edge)
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


# -- the exact check --------------------------------------------------------------


def test_verify_power_subgroup_and_ball(z2):
    spec = make_spec(z2, subgroup_words=[(x(1), x(1))])
    graph, decomposition = decompose(spec)
    assert check_decomposition(spec, graph, decomposition) == []
    assert intersection_ball_oracle(graph, z2, 2, decomposition, 4)[1] == []
    # the subgroup's trace inside the component picks exactly the even powers
    component = decomposition.factors[0].component
    members = {
        word_str(u)
        for u in iter_reduced_x_words(2, 4)
        if walk(component.out, component.base, u) == component.base
    }
    assert members == {"x1^2", "x1^-2", "x1^4", "x1^-4"}


def test_verify_trivial_subgroup_empty_report(z2):
    spec = make_spec(z2)
    graph, decomposition = decompose(spec)
    assert check_decomposition(spec, graph, decomposition) == []
    assert intersection_ball_oracle(graph, z2, 2, decomposition, 3) == (0, [])


def test_verify_two_finite_factors(z2):
    spec = make_spec(z2, subgroup_words=[(y(1),), (x(1), y(1), x(1, -1))])
    graph, decomposition = decompose(spec)
    assert check_decomposition(spec, graph, decomposition) == []
    checked, counterexamples = intersection_ball_oracle(graph, z2, 2, decomposition, 4)
    assert checked == len(decomposition.factors) * (z2.order - 1) and counterexamples == []


def mutants(graph, table, decomposition, rng):
    """(kind, mutant) pairs of a decomposition, each wrong in one way:
    one loop word dropped from an x-factor; one loop word listed twice;
    an approach that ends off its anchor, one letter longer or shorter; a
    finite-factor subgroup made trivial where it is not; the free rank
    plus one; a pair that the decomposition took out of delta put back,
    with the free rank plus one to match.  A finite factor's loop words
    can be redundant, so none is dropped."""
    out = []
    factors = list(decomposition.factors)
    for index, factor in enumerate(factors):
        def mutant(**changes):
            changed = factors.copy()
            changed[index] = dataclasses.replace(factor, **changes)
            return dataclasses.replace(decomposition, factors=tuple(changed))

        if factor.factor == "x":
            words = list(factor.loop_words)
            del words[rng.randrange(len(words))]
            out.append(("loop word dropped", mutant(loop_words=tuple(words))))
        elif len(factor.subgroup) > 1:
            out.append(("subgroup trivial", mutant(subgroup=frozenset((table.identity,)))))
        words = list(factor.loop_words)
        words.insert(rng.randrange(len(words) + 1), rng.choice(words))
        out.append(("loop word listed twice", mutant(loop_words=tuple(words))))
        approaches = [factor.approach + (letter,) for letter in graph.out[factor.anchor]]
        if factor.approach:
            approaches.append(factor.approach[:-1])
        approaches = [word for word in approaches
                      if walk(graph.out, graph.base, word) != factor.anchor]
        if approaches:
            out.append(("approach off the anchor", mutant(approach=rng.choice(approaches))))
    out.append(("free rank plus one",
                dataclasses.replace(decomposition, free_rank=decomposition.free_rank + 1)))
    removed = sorted(graph.pairs - decomposition.delta.pairs, key=_pair_key)
    if removed:
        u, w, letter = rng.choice(removed)
        delta = {v: dict(slots) for v, slots in decomposition.delta.out.items()}
        delta[u][letter] = w
        delta[w][letter.inverse()] = u
        out.append(("pair put back in delta", dataclasses.replace(
            decomposition, delta=LabeledGraph(delta, decomposition.delta.base),
            free_rank=decomposition.free_rank + 1)))
    return out


def checked_specs(rng, tables):
    """The problem files, then 100 seeded subgroups over each table, with
    up to two separator paths."""
    specs = [parse_problem(path.read_text()) for path in PROBLEMS]
    for table in tables:
        for _ in range(100):
            words = [random_raw_word(rng, 2, table.num_generators, 12, 1)
                     for _ in range(rng.randint(1, 4))]
            separators = [random_raw_word(rng, 2, table.num_generators, 6, 1)
                          for _ in range(rng.randint(0, 2))]
            specs.append(make_spec(table, words, separators))
    return specs


def test_check_accepts_decompositions_and_rejects_their_mutants(z2, s3, d4, a4):
    """On 400 seeded subgroup graphs over Z/2, S_3, D_4 and A_4 and on the
    problem files, separator paths included, the exact check and the ball
    of radius 4 accept every decomposition, and the exact check rejects
    every mutant of it.  The ball accepts a loop word listed twice and a
    pair put back in delta, since neither changes the subgroup."""
    rng = random.Random(27)
    specs = checked_specs(rng, (z2, s3, d4, a4))
    kinds = collections.Counter()
    for spec in specs:
        graph, decomposition = decompose(spec)
        assert check_decomposition(spec, graph, decomposition) == []
        counterexamples = intersection_ball_oracle(
            graph, spec.finite, spec.free.rank, decomposition, 4)[1]
        assert counterexamples == []
        for kind, mutant in mutants(graph, spec.finite, decomposition, rng):
            assert check_decomposition(spec, graph, mutant), kind
            kinds[kind] += 1
    assert kinds["free rank plus one"] == len(specs) == 406
    assert kinds["loop word dropped"] >= 150 and kinds["subgroup trivial"] >= 80
    assert kinds["approach off the anchor"] >= 400
    assert kinds["loop word listed twice"] >= 450 and kinds["pair put back in delta"] >= 300


def test_check_rejects_a_loop_word_replaced_by_a_copy_of_the_first(z2, s3, d4, a4):
    """On the problem files and the seeded subgroups of the mutant test,
    every factor's loop word j > 1 replaced by a copy of its loop word 1
    is rejected, also where the factor's subgroup stays as it was (a
    finite factor's redundant loop word); the loop words and the pairs
    outside delta no longer match one to one."""
    specs = checked_specs(random.Random(27), (z2, s3, d4, a4))
    copies = same_subgroup = 0
    for spec in specs:
        graph, decomposition = decompose(spec)
        factors = list(decomposition.factors)
        for index, factor in enumerate(factors):
            for j in range(1, len(factor.loop_words)):
                words = list(factor.loop_words)
                words[j] = words[0]
                changed = factors.copy()
                changed[index] = dataclasses.replace(factor, loop_words=tuple(words))
                mutant = dataclasses.replace(decomposition, factors=tuple(changed))
                assert (f"factor {index + 1}: loop word {j + 1} crosses the pair outside "
                        f"delta that factor {index + 1} loop word 1 crosses"
                        in check_decomposition(spec, graph, mutant))
                copies += 1
                same_subgroup += factor.factor == "y" and subgroup_closure(
                    spec.finite, [spec.finite.word_element(w) for w in words]) == factor.subgroup
    assert copies >= 140 and same_subgroup >= 80


def test_check_rejects_a_loop_word_dropped_with_its_pair_kept_in_delta(z2, s3, d4, a4):
    """A loop word dropped, the pair it crosses put back in delta and the
    free rank raised to match keeps every count of (d) and (e), and the
    subgroup S' generates; the factor's component then keeps a cycle in
    delta, which the check rejects."""
    specs = checked_specs(random.Random(27), (z2, s3, d4, a4))
    dropped = 0
    for spec in specs:
        graph, decomposition = decompose(spec)
        factors = list(decomposition.factors)
        for index, factor in enumerate(factors):
            if len(factor.loop_words) < 2:
                continue
            changed = factors.copy()
            changed[index] = dataclasses.replace(factor, loop_words=factor.loop_words[1:])
            (u, w, letter), = kurosh._crossings(
                factor.component, factor.loop_words[0], decomposition.delta.out)
            delta = {v: dict(slots) for v, slots in decomposition.delta.out.items()}
            delta[u][letter] = w
            delta[w][letter.inverse()] = u
            mutant = dataclasses.replace(
                decomposition, factors=tuple(changed),
                delta=LabeledGraph(delta, decomposition.delta.base),
                free_rank=decomposition.free_rank + 1)
            assert (f"factor {index + 1}: delta does not keep a spanning tree of the component"
                    in check_decomposition(spec, graph, mutant))
            dropped += 1
    assert dropped >= 100


def test_check_names_each_fault(z2):
    """One fault per wrong part, each saying what is wrong."""
    spec = make_spec(z2, [(y(1),), (x(1), y(1), x(1, -1)), (x(2), x(2))])
    graph, decomposition = decompose(spec)
    assert check_decomposition(spec, graph, decomposition) == []
    first, second, third = decomposition.factors
    assert (first.factor, second.factor, third.factor) == ("x", "y", "y")
    assert third.anchor == 1
    wrong = dataclasses.replace(
        decomposition,
        factors=(dataclasses.replace(first, loop_words=()),
                 dataclasses.replace(second, subgroup=frozenset((z2.identity,))),
                 dataclasses.replace(third, approach=(x(2),))),
        free_rank=decomposition.free_rank + 1)
    assert check_decomposition(spec, graph, wrong) == [
        "factor 2: not the loop subgroup of the component",
        "factor 3: the approach does not end at the anchor 1",
        "factor 3 loop word 1 is not a closed path at the base",
        "h2 is not in the subgroup the decomposition generates",
        "h3 is not in the subgroup the decomposition generates",
        "free rank 1, but delta's free basis has 0 words",
        "delta is not the graph less one pair for each of 2 loop words",
    ]
    # a component that is not the graph's, and a loop word that leaves it
    stray = dataclasses.replace(first, component=LabeledGraph({first.anchor: {}}, first.anchor),
                                loop_words=((x(2),),))
    wrong = dataclasses.replace(decomposition, factors=(stray, second, third))
    assert check_decomposition(spec, graph, wrong) == [
        "factor 1: not the graph's x-component at the anchor",
        "factor 1: loop word 1 does not close at the anchor",
        "factor 1 loop word 1 is not a closed path at the base",
    ]
