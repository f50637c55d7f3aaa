import random
import re
from pathlib import Path

import pytest

from altsep import subgroups
from altsep.cli import parse_problem
from altsep.factors import component_cosets
from altsep.graphs import _fold, components, trace
from altsep.subgroups import (
    VERDICT_DEFICIENT,
    VERDICT_NOT_APPLICABLE,
    VERDICT_TREES,
    FreeFactor,
    MembershipTester,
    ProblemSpec,
    _wedge,
    based_fixpoint,
    build_subgroup_graph,
    hypothesis_check,
    membership,
)
from altsep.words import word_inverse, x_alphabet, x_letter as x, y_alphabet, y_letter as y

from conftest import make_spec
from oracles import (
    based_fixpoint_full_rescan,
    based_fixpoint_oracle,
    build_graph,
    canonical_form,
    component_subgraphs,
    contains_oracle,
    element_word,
    embed_Y_component,
    fixpoint_contains,
    fold_pairs,
    hypothesis_oracle,
    is_folded,
    is_tree,
    iter_ball,
    normal_form_oracle,
    random_raw_word,
    reidemeister_schreier,
    run_wedge_graph,
    spell,
    subgroup_ball,
    wedge_graph,
)


# -- construction -------------------------------------------------------------------


def test_trivial_subgroup_open_edge(z2):
    spec = make_spec(z2, separate_words=[(x(1),)])
    built = build_subgroup_graph(spec)
    assert len(built.graph.vertices) == 2
    assert built.separator_ends[0] != built.graph.base


def test_single_finite_generator_collapses_to_one_loop(z2):
    spec = make_spec(z2, subgroup_words=[(y(1),)])
    built = build_subgroup_graph(spec)
    assert canonical_form(built.graph) == (1, ((0, 0, "y1"),))


def test_conjugated_pair_example(s3):
    spec = make_spec(
        s3,
        subgroup_words=[(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))],
        separate_words=[(y(2),)],
    )
    built = build_subgroup_graph(spec)
    assert is_folded(built.graph.vertices, built.graph.pairs)
    assert built.separator_ends[0] != built.graph.base
    # generator loops close at the base
    for word in spec.subgroup_words:
        assert trace(built.graph, built.graph.base, word).closed


def test_every_y_component_embeds(s3):
    spec = make_spec(
        s3,
        subgroup_words=[(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))],
        separate_words=[(y(2),)],
    )
    built = build_subgroup_graph(spec)
    for component, _anchor in component_subgraphs(built.graph, "y"):
        embed_Y_component(s3, component)  # raises when not based


def test_wedge_folds_to_the_pair_set_wedge(z2, s3, d4):
    """_wedge's adjacency and clashes, folded by _fold, are the graph,
    vertex ids and path ends of the wedge's canonical pair set folded by
    the oracle with each y-run's vertices of one prefix element merged.
    A y-letter that names no generator is refused, not read as an
    x-letter."""
    rng = random.Random(31)
    clashed = 0
    for table in (z2, s3, d4):
        for _ in range(40):
            words = [random_raw_word(rng, 2, table.num_generators, 10)
                     for _ in range(rng.randint(0, 3))]
            separators = [random_raw_word(rng, 2, table.num_generators, 6)
                          for _ in range(rng.randint(0, 2))]
            out, clashes, ends = _wedge(0, words, separators, table)
            graph, vmap = _fold(out, clashes, out, 0, ())
            expected, expected_ends = run_wedge_graph(0, words, separators, table)
            assert graph == expected and graph.vertices == expected.vertices
            assert tuple(vmap[v] for v in ends) == expected_ends
            clashed += bool(clashes)
    assert clashed >= 40
    for words, separators in [([(x(1), y(2), x(1, -1))], []), ([(x(1), y(1), y(2))], []),
                              ([], [(y(1), y(2, -1))])]:
        with pytest.raises(ValueError, match="^no generator y2$"):
            _wedge(0, words, separators, z2)


def run_heavy_word(rng, table, runs):
    """A word of 1 to ``runs`` y-runs of 0-12 letters each, one x-letter
    of rank 2 between consecutive runs."""
    word = []
    for i in range(rng.randint(1, runs)):
        if i:
            word.append(rng.choice(x_alphabet(2)))
        word.extend(rng.choice(y_alphabet(table.num_generators))
                    for _ in range(rng.randint(0, 12)))
    return tuple(word)


def test_first_round_groups_lie_at_the_base_or_a_fold_survivor(z2, s3, d4, a4):
    """On the folded wedge, a full scan finds coset groups only in
    y-components that hold the base or a survivor of the first fold, the
    starts that build_subgroup_graph gives the first round; the fixpoint
    from those starts is the one from a full first scan."""
    rng = random.Random(29)
    grouped = left_out = 0
    for table in (z2, s3, d4, a4):
        for _ in range(50):
            words = [run_heavy_word(rng, table, 4) for _ in range(rng.randint(1, 4))]
            separators = [run_heavy_word(rng, table, 3) for _ in range(rng.randint(0, 2))]
            out, clashes, ends = _wedge(0, words, separators, table)
            graph, vmap = _fold(out, clashes, out, 0, ())
            starts = {graph.base} | {vmap[v] for v in vmap if vmap[v] != v}
            for _subgroup, keys in component_cosets(table, graph):
                if len(set(keys.values())) < len(keys):
                    assert starts & keys.keys()
                    grouped += 1
                else:
                    left_out += not starts & keys.keys()
            tracked = [vmap[v] for v in ends]
            assert (based_fixpoint(graph, table, tracked, starts)
                    == based_fixpoint(graph, table, tracked))
    # many components had groups, and many more were left out of round 0
    assert grouped >= 50 and left_out >= 200


def test_fixpoint_is_stable(s3):
    spec = make_spec(
        s3,
        subgroup_words=[(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))],
    )
    built = build_subgroup_graph(spec)
    again, tracked = based_fixpoint(built.graph, s3, (built.graph.base,))
    assert again.pairs == built.graph.pairs
    assert tracked == (built.graph.base,)


def test_fixpoint_matches_the_per_component_oracle(z2, s3, d4):
    rng = random.Random(9)
    identified = 0
    for table in (z2, s3, d4):
        for _ in range(40):
            words = [random_raw_word(rng, 2, table.num_generators, 10, 1)
                     for _ in range(rng.randint(1, 3))]
            separators = [random_raw_word(rng, 2, table.num_generators, 6, 1)
                          for _ in range(rng.randint(1, 2))]
            built = build_subgroup_graph(make_spec(table, words, separators))
            wedge, ends = wedge_graph(0, words, separators)
            graph, tracked = based_fixpoint_oracle(wedge, table, (0, *ends))
            assert built.graph.vertices == graph.vertices
            assert built.graph.pairs == graph.pairs
            assert built.graph.base == graph.base == tracked[0]
            assert built.separator_ends == tracked[1:]
            identified += len(wedge.vertices) > len(graph.vertices)
    # coset identification, not folding alone, shrank many of the graphs
    assert identified >= 20


def test_fixpoint_matches_a_full_rescan_each_round(s3, d4, a4, monkeypatch):
    """Later rounds scan only the y-components their merges touched; the
    graph, its vertex ids and the tracked ends are those of a fixpoint
    that rescans the whole graph every round."""
    partial = []
    real = subgroups.component_cosets

    def recording(table, graph, starts=None):
        found = real(table, graph, starts)
        if starts is not None:
            partial.append(any(len(set(keys.values())) < len(keys) for _k, keys in found))
        return found

    monkeypatch.setattr(subgroups, "component_cosets", recording)

    def check(table, words, separators):
        wedge, ends = wedge_graph(0, words, separators)
        got = based_fixpoint(wedge, table, (0, *ends))
        expected = based_fixpoint_full_rescan(wedge, table, (0, *ends))
        assert (got[0].vertices, got[0].pairs, got[0].base, got[1]) == (
            expected[0].vertices, expected[0].pairs, expected[0].base, expected[1])

    rng = random.Random(12)
    for table in (s3, d4, a4):
        for _ in range(80):
            words = [random_raw_word(rng, 2, table.num_generators, 20, 1)
                     for _ in range(rng.randint(3, 6))]
            separators = [random_raw_word(rng, 2, table.num_generators, 6, 1)
                          for _ in range(rng.randint(0, 2))]
            check(table, words, separators)
    for path in sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.txt")):
        spec = parse_problem(path.read_text())
        check(spec.finite, spec.subgroup_words, spec.separate_words)
    # many later rounds ran, and some of them still found groups to merge
    assert len(partial) >= 150 and sum(partial) >= 10


def test_letters_validated_against_declared_generators(z2):
    with pytest.raises(ValueError):
        make_spec(z2, subgroup_words=[(x(3),)])
    with pytest.raises(ValueError):
        make_spec(z2, subgroup_words=[(y(2),)])
    with pytest.raises(ValueError):
        ProblemSpec(FreeFactor(1), z2, (), ())
    # each distinct letter is checked once, and the first bad letter of
    # the subgroup words, then the separators, is the one named
    for words, separators, message in [
            ([(x(1), y(2)), (x(3),)], [], "letter y2 names no generator"),
            ([(x(1), x(1)), (y(1), x(3, -1), y(2))], [(x(4),)], "letter x3^-1 exceeds"),
            ([(x(1),)], [(y(1), y(1)), (y(3), x(5))], "letter y3 names no generator")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make_spec(z2, words, separators)


# -- membership ------------------------------------------------------------------------


def test_membership_of_generator_power(z2):
    spec = make_spec(z2, subgroup_words=[(x(1), x(1))])
    assert membership(spec, (x(1), x(1)))
    assert not membership(spec, (x(1),))
    assert membership(spec, ())


def test_membership_separator_from_conjugated_pair(s3):
    spec = make_spec(
        s3,
        subgroup_words=[(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))],
    )
    assert not membership(spec, (y(2),))
    assert membership(spec, (y(1), x(1, -1), y(1)))
    assert membership(spec, (x(1), x(2), x(1, -1)))


def test_membership_refuses_a_letter_outside_the_alphabet(z2):
    """A letter past the free rank or past the finite factor's generators
    is refused with the error a problem holding it gets, wherever it
    stands in the word."""
    spec = make_spec(z2, subgroup_words=[(x(1), x(1))])
    for word, message in [((x(5),), "letter x5 exceeds free rank 2"),
                          ((x(1), x(1), x(3, -1)), "letter x3^-1 exceeds free rank 2"),
                          ((y(9),), "letter y9 names no generator of the finite factor")]:
        for query in (lambda: membership(spec, word),
                      lambda: make_spec(z2, spec.subgroup_words, [word])):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                query()


def test_membership_tester_matches_one_shot(z2):
    spec = make_spec(z2, subgroup_words=[(y(1),), (x(1), y(1), x(1, -1))])
    built = build_subgroup_graph(spec)
    tester = MembershipTester(built.graph, z2)
    words = [
        (y(1),), (x(1),), (x(1), y(1), x(1, -1)),
        (y(1), x(1), y(1), x(1, -1)), (x(1), x(1)), (),
        (y(1), y(1)), (x(1), y(1), x(1)),
    ]
    for word in words:
        assert tester.contains(word) == membership(spec, word)


def test_membership_agrees_with_ball_oracle_smoke(z2):
    spec = make_spec(z2, subgroup_words=[(y(1),), (x(1), y(1), x(1, -1))])
    built = build_subgroup_graph(spec)
    tester = MembershipTester(built.graph, z2)
    ball = subgroup_ball(z2, spec.subgroup_words, 4)
    for form in iter_ball(2, z2, 4):
        word = spell(form, z2)
        assert tester.contains(word) == (form in ball)


def test_membership_is_constant_on_elements(s3):
    rng = random.Random(2)
    spec = make_spec(s3, subgroup_words=[(x(1), x(1)), (y(1), x(2), y(1, -1))])
    built = build_subgroup_graph(spec)
    tester = MembershipTester(built.graph, s3)
    for _ in range(60):
        word = random_raw_word(rng, 2, s3.num_generators, 6)
        reduced = spell(normal_form_oracle(word, s3), s3)
        assert tester.contains(word) == tester.contains(reduced)


def test_membership_y_syllable_onto_an_absent_coset(s3):
    # base --x1--> a --y1--> b --y2--> c --x2--> base and b --x1--> base:
    # the y-component {a, b, c} is a tree, so its loop subgroup is trivial
    # and it holds the cosets 1, y1, y1*y2 of the six
    spec = make_spec(s3, subgroup_words=[(x(1), y(1), y(2), x(2)), (x(1), y(1), x(1))])
    graph = build_subgroup_graph(spec).graph
    a = graph.step(graph.base, x(1))
    [(members, pairs)] = [(m, p) for m, p in components(graph, "y") if a in m]
    assert len(members) == 3 and pairs == 2
    tester = MembershipTester(graph, s3)
    cases = {
        (x(1), y(1), y(2), x(2)): True,
        (x(1), y(1), y(2), y(2), x(1)): True,
        # at b, y2 acts on the right: y1*y2 is present, y2*y1 is not
        (x(1, -1), y(2), x(2)): True,
        (x(1), y(2), x(2)): False,
        (x(1), y(1), y(1), x(2)): False,
    }
    for word, member in cases.items():
        assert tester.contains(word) is member
        assert fixpoint_contains(graph, s3, word) is member


def test_membership_y_syllable_at_a_y_bare_base(z2):
    spec = make_spec(z2, subgroup_words=[(x(1), x(1))])
    graph = build_subgroup_graph(spec).graph
    assert all(letter.factor == "x" for letter in graph.out[graph.base])
    tester = MembershipTester(graph, z2)
    cases = {
        (y(1),): False,
        (y(1), x(1), x(1), y(1)): False,
        (x(1), y(1), x(1, -1)): False,
        (x(1), x(1), y(1), y(1)): True,
        (y(1), y(1)): True,
        (): True,
    }
    for word, member in cases.items():
        assert tester.contains(word) is member
        assert fixpoint_contains(graph, z2, word) is member


def test_membership_refuses_a_graph_that_is_not_based(z2):
    # a y1-path of length 2 in Z2: both ends lie on the coset K*1 of the
    # trivial loop subgroup K, so the graph is folded but not based
    graph = build_graph([0, 1, 2], [(0, 1, y(1)), (1, 2, y(1))], 0)
    assert is_folded(graph.vertices, graph.pairs)
    tester = MembershipTester(graph, z2)
    assert tester.contains((x(1),)) is False
    with pytest.raises(ValueError, match="based graph"):
        tester.contains((y(1),))


def test_membership_refuses_a_graph_that_is_not_based_on_a_trivial_word(z2):
    # the word's normal form is empty, but its walk takes the y1-edge out
    # of the base, so the query holds a y-letter and is refused
    graph = build_graph([0, 1, 2], [(0, 1, y(1)), (1, 2, y(1))], 0)
    tester = MembershipTester(graph, z2)
    with pytest.raises(ValueError, match="based graph"):
        tester.contains((y(1), x(1), x(1, -1), y(1)))


def test_contains_matches_the_element_by_element_oracle(monkeypatch, z2, s3, d4, a4):
    """Both phases of a query, the walk along the edges and the normal
    form of the rest after the first missing edge, answer as tracing and
    a min over the loop subgroup K do, and, on every tenth query, as
    re-stabilising the graph with the word's path glued on does.  On
    seeded random subgroups, half of them with separator paths and many
    with y-components of nontrivial K, and on the problem files.  Queries
    are random words; products of generators, which read through; the
    same with a detour u*u^-1 inserted, which leaves the graph and comes
    back; and the same with a y-run that multiplies to the identity."""
    rng = random.Random(21)
    counts = {"nontrivial K": 0, "phase 1": 0, "phase 2": 0, True: 0, False: 0}
    read_rest = MembershipTester._read_rest

    def counted_read_rest(self, rest, current):
        counts["phase 2"] += 1
        return read_rest(self, rest, current)

    monkeypatch.setattr(MembershipTester, "_read_rest", counted_read_rest)

    def check(spec, extra_queries=()):
        table = spec.finite
        rank, num_ygens = spec.free.rank, table.num_generators
        graph = build_subgroup_graph(spec).graph
        tester = MembershipTester(graph, table)
        counts["nontrivial K"] += sum(
            len(subgroup) > 1 for subgroup, _keys in component_cosets(table, graph))
        generators = list(spec.subgroup_words)
        generators += [word_inverse(word) for word in generators]
        queries = list(extra_queries)
        for _ in range(30):
            queries.append(random_raw_word(rng, rank, num_ygens, 12))
            product = ()
            for _ in range(rng.randint(1, 3) if generators else 0):
                product += rng.choice(generators)
            queries.append(product)
            detour = random_raw_word(rng, rank, num_ygens, 6, 1)
            at = rng.randint(0, len(product))
            queries.append(product[:at] + detour + word_inverse(detour) + product[at:])
            run = random_raw_word(rng, 0, num_ygens, 5, 1)
            run += element_word(table, table.inverse(table.word_element(run)))
            at = rng.randint(0, len(product))
            queries.append(product[:at] + run + product[at:])
        for n, word in enumerate(queries):
            phase_2 = counts["phase 2"]
            member = tester.contains(word)
            counts["phase 1"] += counts["phase 2"] == phase_2
            assert member is contains_oracle(graph, table, word), word
            if n % 10 == 0:
                assert member is fixpoint_contains(graph, table, word), word
            counts[member] += 1

    for table in (z2, s3, d4, a4):
        for n in range(40):
            words = [random_raw_word(rng, 2, table.num_generators, 12, 1)
                     for _ in range(rng.randint(1, 4))]
            separators = [random_raw_word(rng, 2, table.num_generators, 8, 1)
                          for _ in range(rng.randint(1, 2) if n % 2 else 0)]
            check(make_spec(table, words, separators))
    for path in sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.txt")):
        spec = parse_problem(path.read_text())
        check(spec, spec.separate_words)
    assert counts["nontrivial K"] >= 30 and counts[True] >= 1000 and counts[False] >= 1000
    assert counts["phase 1"] >= 1000 and counts["phase 2"] >= 1000, counts


def test_contains_rejects_an_unknown_y_generator(s3):
    graph = build_subgroup_graph(make_spec(s3, [(y(1), x(1)), (y(2), x(2))])).graph
    tester = MembershipTester(graph, s3)
    reads_through = (y(1), x(1), y(2), x(2))
    assert trace(graph, graph.base, reads_through).closed
    assert trace(graph, graph.base, (x(2),)).status == "stuck"
    # y3 as the first letter, after the first missing edge (x2 at the
    # base), and last after a word that reads through
    for word in [(y(3),), (y(1), x(1, -1), y(3, -1)), (x(2), y(3)), reads_through + (y(3),)]:
        with pytest.raises(ValueError, match="^no generator y3$"):
            tester.contains(word)
        with pytest.raises(ValueError, match="^no generator y3$"):
            contains_oracle(graph, s3, word)


# -- hypothesis check -------------------------------------------------------------------


def test_verdict_trees_when_no_x_edges(z2):
    spec = make_spec(z2, subgroup_words=[(y(1),)])
    built = build_subgroup_graph(spec)
    verdict = hypothesis_check(built.graph, 2)
    assert verdict.kind == VERDICT_TREES


def test_verdict_deficient_for_proper_power(z2):
    spec = make_spec(z2, subgroup_words=[(x(1), x(1))])
    built = build_subgroup_graph(spec)
    verdict = hypothesis_check(built.graph, 2)
    assert verdict.kind == VERDICT_DEFICIENT
    assert verdict.witness is not None
    assert not is_tree(verdict.witness)


def test_verdict_not_applicable_for_finite_index_kernel(z2):
    flip = 1  # the nonidentity element of Z/2
    generators = reidemeister_schreier(z2, 2, 1, [flip, flip], [z2.identity])
    spec = make_spec(z2, subgroup_words=generators)
    built = build_subgroup_graph(spec)
    verdict = hypothesis_check(built.graph, 2)
    assert verdict.kind == VERDICT_NOT_APPLICABLE
    assert verdict.reason


def test_identity_labeled_separator_closes_through_identification(z2):
    # y1 y1 spells the identity of Z/2: the open path must fold back onto
    # the base through the coset identification, not plain edge folding
    spec = make_spec(z2, separate_words=[(y(1), y(1))])
    built = build_subgroup_graph(spec)
    assert built.separator_ends[0] == built.graph.base


def test_verdicts_are_exhaustive_and_exclusive(z2, s3):
    specs = [
        make_spec(z2, subgroup_words=[(y(1),)]),
        make_spec(z2, subgroup_words=[(x(1), x(1))]),
        make_spec(s3, subgroup_words=[(y(1), x(1, -1), y(1)), (x(1), x(2), x(1, -1))]),
        make_spec(z2),
    ]
    kinds = {VERDICT_TREES, VERDICT_DEFICIENT, VERDICT_NOT_APPLICABLE}
    for spec in specs:
        built = build_subgroup_graph(spec)
        verdict = hypothesis_check(built.graph, spec.free.rank)
        assert verdict.kind in kinds


def random_graph_with_covers(rng):
    """Folded graph on a few vertex blocks: each block's x-edges are two
    random permutations of it, a saturated cover, less zero to two pairs,
    or, in a quarter of the graphs, a path; random y1-pairs join the
    blocks."""
    vertices, pairs = [], set()
    paths = rng.random() < 0.25
    for _ in range(rng.randint(1, 4)):
        block = list(range(len(vertices), len(vertices) + rng.randint(1, 6)))
        vertices += block
        if paths:
            pairs.update((u, u + 1, rng.choice([x(1), x(2)])) for u in block[:-1])
            continue
        cover = []
        for letter in (x(1), x(2)):
            targets = rng.sample(block, len(block))
            cover += [(u, w, letter) for u, w in zip(block, targets)]
        rng.shuffle(cover)
        pairs.update(cover[rng.choice([0, 0, 1, 2]):])
    for _ in range(rng.randint(0, len(vertices))):
        pairs.add((rng.choice(vertices), rng.choice(vertices), y(1)))
    return fold_pairs(build_graph(vertices, pairs, 0))[0]


def test_verdict_matches_the_defect_rule_on_random_graphs():
    """hypothesis_check's pair counts give the kind and the witness of the
    rule that lists each cyclic x-component's saturation defects; the
    witness is that component, edges and all."""
    rng = random.Random(2031)
    kinds = []
    for _ in range(400):
        graph = random_graph_with_covers(rng)
        verdict = hypothesis_check(graph, 2)
        kind, witness = hypothesis_oracle(graph, 2)
        assert verdict.kind == kind
        if witness is None:
            assert verdict.witness is None
        else:
            assert (verdict.witness.vertices, verdict.witness.pairs) == (
                witness.vertices, witness.pairs)
            assert verdict.witness.base == min(witness.vertices)
        kinds.append(kind)
    assert min(kinds.count(k) for k in (VERDICT_TREES, VERDICT_DEFICIENT,
                                         VERDICT_NOT_APPLICABLE)) >= 30
