import collections
import copy
import dataclasses
import random
from pathlib import Path

import pytest

from altsep.cli import parse_problem
from altsep.factors import subgroup_closure
from altsep import graphs, kurosh, subgroups
from altsep.graphs import LabeledGraph, _pair_key, components, walk, whole_graph_walk
from altsep.kurosh import check_decomposition, kurosh_decompose
from altsep.subgroups import build_subgroup_graph, hypothesis_check
from altsep.words import word_str, x_letter as x, y_letter as y

from conftest import make_spec
from oracles import (
    assert_same_decomposition,
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
    pruned graph fall apart; that is a broken invariant, not bad input.
    The fault goes into ``graphs``, where the walks run.  The pair it adds
    is an edge of the whole-graph tree too, so the breadth-first check of
    delta runs and finds it."""
    real = graphs._tree_walk

    def losing_one_tree_edge(out, root, letters):
        order, parent, nontree = real(out, root, letters)
        tree = [canonical_pair(u, v, letter) for v, (u, letter) in parent.items()]
        if tree:
            nontree = nontree + [min(tree, key=_pair_key)]
        return order, parent, nontree

    monkeypatch.setattr(graphs, "_tree_walk", losing_one_tree_edge)
    graph = build_graph([0, 1], [(0, 1, x(1)), (0, 1, x(2))], 0)
    with pytest.raises(AssertionError, match="pruned graph must stay connected"):
        kurosh_decompose(graph, z2)


def test_delta_that_cuts_the_whole_graph_tree_stays_connected(s3):
    """A hexagon of x1-edges on 1..6 whose vertices 1 and 4 hang off the
    base by y-edges.  The whole-graph tree enters 5 from 4, but the
    hexagon's own tree, grown from its anchor 1, leaves the pair 4 -> 5
    out, so delta loses an edge of the whole-graph tree.  The
    breadth-first check then runs and accepts delta, which is connected."""
    hexagon = [(v, v % 6 + 1, x(1)) for v in range(1, 7)]
    graph = build_graph(list(range(7)), [(0, 1, y(1)), (0, 4, y(2))] + hexagon, 0)
    decomposition = kurosh_decompose(graph, s3)
    assert graph.pairs - decomposition.delta.pairs == {(4, 5, x(1))}
    assert whole_graph_walk(graph).parent[5] == (4, x(1))
    assert [(f.factor, f.anchor) for f in decomposition.factors] == [("x", 1)]
    assert decomposition.free_rank == 1
    assert_same_decomposition(decomposition, kurosh_oracle(graph, s3))


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


def test_decompose_builds_no_pair_set_of_the_subgroup_graph(s3, monkeypatch):
    """Subgroup graph, verdict and decomposition of every problem file and
    of the decompose-sized subgroup read the adjacency only: the graph's
    pairs are never asked for, and the verdict and then the decomposition
    walk the whole graph once between them and read no component list
    through any module's binding of ``components``."""
    walks, sweeps = [], []
    real_walk, real_components = graphs._walk_whole_graph, graphs.components

    def counting_walk(graph):
        walks.append(graph)
        return real_walk(graph)

    def counting_components(graph, factor):
        sweeps.append(factor)
        return real_components(graph, factor)

    monkeypatch.setattr(graphs, "_walk_whole_graph", counting_walk)
    for module in (graphs, subgroups, kurosh):
        monkeypatch.setattr(module, "components", counting_components)
    specs = [parse_problem(path.read_text()) for path in PROBLEMS]
    specs.append(make_spec(s3, decompose_sized_words(s3)))
    for spec in specs:
        graph = build_subgroup_graph(spec).graph
        walks.clear()
        sweeps.clear()
        hypothesis_check(graph, spec.free.rank)
        decomposition = kurosh_decompose(graph, spec.finite)
        assert walks == [graph] and sweeps == []
        assert graph._pairs is None
        assert_same_decomposition(decomposition, kurosh_oracle(graph, spec.finite))


def test_cyclic_components_come_from_the_whole_graph_walk(z2, s3, d4, a4):
    """On 200 seeded subgroup graphs the factors' components are the
    entries of ``components`` with at least as many pairs as vertices,
    each once, though no component sweep runs; and the factors come in
    the pair-set oracle's order: by the anchors' discovery, the x-factor
    first where one vertex anchors two.  Ordering by discovery alone
    puts a y-factor first wherever its pair outside the whole-graph tree
    comes first, which fails here."""
    rng = random.Random(31)
    x_factors = nontrivial = shared = 0
    for table in (z2, s3, d4, a4):
        for _ in range(50):
            words = [random_raw_word(rng, 2, table.num_generators, 12, 1)
                     for _ in range(rng.randint(1, 4))]
            graph = build_subgroup_graph(make_spec(table, words)).graph
            decomposition = kurosh_decompose(graph, table)
            found = [(f.factor, f.component.vertices) for f in decomposition.factors]
            cyclic = {(factor, frozenset(members)) for factor in ("x", "y")
                      for members, pairs in components(graph, factor) if pairs >= len(members)}
            assert len(found) == len(set(found)) and set(found) == cyclic
            assert ([(f.factor, f.anchor) for f in decomposition.factors]
                    == [(f.factor, f.anchor) for f in kurosh_oracle(graph, table).factors])
            x_factors += sum(f.factor == "x" for f in decomposition.factors)
            nontrivial += sum(f.factor == "y" and len(f.subgroup) > 1
                              for f in decomposition.factors)
            anchored = collections.defaultdict(set)
            for f in decomposition.factors:
                anchored[f.anchor].add(f.factor)
            shared += sum(kinds == {"x", "y"} for kinds in anchored.values())
    assert x_factors >= 50 and nontrivial >= 30 and shared >= 20


def test_one_component_graph_per_factor(s3, monkeypatch):
    """``kurosh_decompose`` builds each factor's graph once, and
    ``check_decomposition`` builds none: it reads the factor's graph
    against the subgroup graph's slots."""
    built = []
    real_component_graph = kurosh.component_graph

    def counting_component_graph(graph, vertices, factor, base):
        built.append((factor, base))
        return real_component_graph(graph, vertices, factor, base)

    monkeypatch.setattr(kurosh, "component_graph", counting_component_graph)
    specs = [parse_problem(path.read_text()) for path in PROBLEMS]
    specs.append(make_spec(s3, decompose_sized_words(s3)))
    factors = 0
    for spec in specs:
        graph = build_subgroup_graph(spec).graph
        decomposition = kurosh_decompose(graph, spec.finite)
        named = [(f.factor, f.anchor) for f in decomposition.factors]
        assert built == named
        assert check_decomposition(spec, graph, decomposition) == []
        assert built == named
        factors += len(named)
        built.clear()
    assert factors >= 50


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
    finite-factor subgroup made trivial where it is not; a component less
    one of its vertices (the anchor, too); a component joined with another
    component of its factor, which has exactly the graph's slots but is
    not connected; the free rank plus one; a pair that the decomposition
    took out of delta put back, with the free rank plus one to match.  A
    finite factor's loop words can be redundant, so none is dropped."""
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
        gone = rng.choice(sorted(factor.component.vertices))
        out.append(("component less one vertex", mutant(component=LabeledGraph(
            {v: slots for v, slots in factor.component.out.items() if v != gone},
            factor.anchor))))
        others = [members for members, _pairs in components(graph, factor.factor)
                  if factor.anchor not in members]
        if others:
            other = graphs.component_graph(graph, rng.choice(others), factor.factor, factor.anchor)
            out.append(("component joined with another component of its factor",
                        mutant(component=LabeledGraph({**factor.component.out, **other.out},
                                                      factor.anchor))))
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
    pair put back in delta, since neither changes the subgroup.  A
    component less a vertex fails (c), which reads the graph's slots; one
    joined with another component passes (c) and fails (e)'s spanning
    tree, which is what makes the component connected."""
    named = {"component less one vertex": "not the graph's",
             "component joined with another component of its factor":
             "delta does not keep a spanning tree of the component"}
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
            faults = check_decomposition(spec, graph, mutant)
            assert faults, kind
            assert kind not in named or any(named[kind] in fault for fault in faults), kind
            kinds[kind] += 1
    assert kinds["free rank plus one"] == len(specs) == 406
    assert kinds["loop word dropped"] >= 150 and kinds["subgroup trivial"] >= 80
    assert kinds["approach off the anchor"] >= 400
    assert kinds["loop word listed twice"] >= 450 and kinds["pair put back in delta"] >= 300
    assert kinds["component less one vertex"] == kinds["loop word listed twice"]
    assert kinds["component joined with another component of its factor"] >= 350


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
