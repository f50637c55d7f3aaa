import random
from itertools import combinations

import pytest

from altsep.factors import (
    MAX_GROUP_ORDER,
    NotGBasedError,
    component_cosets,
    coset_action,
    enumerate_group,
    subgroup_closure,
)
from altsep.covers import _complete, build_separating_cover
from altsep.graphs import (
    LabeledGraph,
    breadth_first_tree,
    components,
    fold,
    from_adjacency,
    trace,
)
from altsep.subgroups import VERDICT_NOT_APPLICABLE, build_subgroup_graph, hypothesis_check
from altsep.words import x_alphabet, x_letter as x, y_alphabet, y_letter as y

from conftest import make_spec
from oracles import (
    build_graph,
    component_cosets_oracle,
    component_subgraphs,
    coset_graph_oracle,
    all_words,
    embed_Y_component,
    exhaustive_closure,
    random_raw_word,
    saturation_defects,
    word_element_oracle,
)


# -- enumeration ----------------------------------------------------------------


def test_enumerate_z2():
    table = enumerate_group(2, [(1, 0)])
    assert table.order == 2
    assert table.multiply(1, 1) == table.identity


def test_enumerate_s3_matches_closure():
    gens = [(1, 2, 0), (1, 0, 2)]
    table = enumerate_group(3, gens)
    assert table.order == len(exhaustive_closure(gens, 3)) == 6


def test_enumerate_identity_generator():
    table = enumerate_group(4, [(0, 1, 2, 3)])
    assert table.order == 1


def test_enumerate_rejects_non_bijection():
    with pytest.raises(ValueError):
        enumerate_group(3, [(0, 0, 2)])


def test_enumerate_stops_past_the_order_bound():
    def symmetric(n):  # (1 2) and (1 2 ... n) generate S_n
        return [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]

    assert enumerate_group(8, symmetric(8)).order == MAX_GROUP_ORDER
    with pytest.raises(ValueError, match=f"more than {MAX_GROUP_ORDER} elements"):
        enumerate_group(9, symmetric(9))


def test_element_words_are_geodesic(s3):
    for element in range(s3.order):
        word = s3.element_word(element)
        assert s3.word_element(word) == element
    lengths = sorted(len(s3.element_word(e)) for e in range(s3.order))
    assert lengths == [0, 1, 1, 1, 2, 2]


@pytest.mark.parametrize("group", ["s3", "a4"])
def test_word_element_matches_the_multiply_fold(group, request):
    table = request.getfixturevalue(group)
    words = list(all_words(y_alphabet(table.num_generators), 4))
    assert len(words) == 1 + 4 + 16 + 64 + 256
    for word in words:
        assert table.word_element(word) == word_element_oracle(table, word)


def test_word_element_rejects_letters_it_cannot_evaluate(s3):
    with pytest.raises(ValueError, match="not a finite-factor letter: x1"):
        s3.word_element((y(1), x(1)))
    with pytest.raises(ValueError, match="no generator y3"):
        s3.word_element((y(1), y(3, -1)))
    for word in [(y(1), x(1)), (y(1), y(3, -1))]:
        with pytest.raises(ValueError) as oracle:
            word_element_oracle(s3, word)
        with pytest.raises(ValueError) as got:
            s3.word_element(word)
        assert str(got.value) == str(oracle.value)


# -- subgroup closure --------------------------------------------------------------


def test_subgroup_closure_empty_seed(s3):
    assert subgroup_closure(s3, []) == frozenset({s3.identity})


def test_subgroup_closure_involution(s3):
    flip = s3.generator_element(2)
    assert len(subgroup_closure(s3, [flip])) == 2


def test_subgroup_closure_two_transpositions_generate_s3(s3):
    a = s3.generator_element(2)  # (1 2)
    b = s3.multiply(s3.multiply(s3.generator_element(1), a), s3.inverse(s3.generator_element(1)))
    generated = subgroup_closure(s3, [a, b])
    assert len(generated) == 6


# -- coset graphs, spelled by coset actions -------------------------------------------


def coset_walk(moves, word, coset=0):
    """Coset reached from ``coset`` along a y-word, through the moves of
    ``coset_action``."""
    for letter in word:
        move = moves[letter.index - 1]
        coset = move[coset] if letter.sign > 0 else move.index(coset)
    return coset


def test_coset_graph_regular_cover(z2):
    element_to_coset, moves = coset_action(z2, frozenset([z2.identity]))
    assert sorted(element_to_coset) == [0, 1]
    assert coset_walk(moves, (y(1),)) != 0


def test_coset_graph_of_whole_group(z2):
    element_to_coset, moves = coset_action(z2, frozenset(range(z2.order)))
    assert element_to_coset == [0, 0]
    assert coset_walk(moves, (y(1),)) == 0


def test_coset_graph_index_three(s3):
    flip = subgroup_closure(s3, [s3.generator_element(2)])
    element_to_coset, _moves = coset_action(s3, flip)
    # brute-force coset partition agrees
    cosets = set()
    for element in range(s3.order):
        cosets.add(frozenset(s3.multiply(k, element) for k in flip))
    assert len(cosets) == 3
    assert cosets == {frozenset(e for e in range(s3.order) if element_to_coset[e] == c)
                      for c in range(3)}


def all_subgroups(table):
    seen = set()
    elements = range(table.order)
    for size in range(0, min(table.order, 3) + 1):
        for seed in combinations(elements, size):
            seen.add(subgroup_closure(table, seed))
    return seen


def test_lagrange_on_every_subgroup_of_s3(s3):
    for subgroup in all_subgroups(s3):
        element_to_coset, moves = coset_action(s3, subgroup)
        index = len(set(element_to_coset))
        assert index * len(subgroup) == s3.order
        assert all(len(move) == index for move in moves)


def test_loop_characterization(s3):
    subgroup = subgroup_closure(s3, [s3.generator_element(2)])
    _element_to_coset, moves = coset_action(s3, subgroup)
    words = [
        (y(2),), (y(1),), (y(1), y(1)), (y(1), y(1), y(1)),
        (y(2), y(1)), (y(1), y(2)), (y(2), y(2)), (y(1, -1), y(2), y(1)),
    ]
    for word in words:
        element = s3.word_element(word)
        assert (coset_walk(moves, word) == 0) == (element in subgroup)


def test_coset_graph_is_saturated_and_folded(s3, d4, a4):
    """Each generator permutes the cosets, so the coset graph the action
    spells is saturated and folded; it is the oracle's coset graph, with
    the same numbering."""
    for table in (s3, d4, a4):
        for subgroup in all_subgroups(table):
            element_to_coset, moves = coset_action(table, subgroup)
            graph, coset_of = coset_graph_oracle(table, subgroup)
            assert graph.folded
            assert saturation_defects(graph, y_alphabet(table.num_generators)) == []
            assert element_to_coset == [coset_of[e] for e in range(table.order)]
            assert all(sorted(move) == sorted(graph.vertices) for move in moves)
            assert graph.pairs == {(c, d, y(j)) for j, move in enumerate(moves, start=1)
                                   for c, d in enumerate(move)}


def test_coset_action_moves_every_element_with_its_coset(s3, d4):
    for table in (s3, d4):
        for subgroup in {subgroup_closure(table, [g]) for g in range(table.order)}:
            element_to_coset, moves = coset_action(table, subgroup)
            assert element_to_coset[table.identity] == 0
            assert len(set(element_to_coset)) == table.order // len(subgroup)
            for j, move in enumerate(moves, start=1):
                for e in range(table.order):
                    image = table.multiply(e, table.generator_element(j))
                    assert element_to_coset[image] == move[element_to_coset[e]]


# -- embedding y-components (the oracle that the gluing test compares against) ----------


def test_embed_bare_vertex(z2):
    comp = build_graph([0], [], 0)
    cover, embedding = embed_Y_component(z2, comp)
    assert len(cover.vertices) == 2
    assert embedding == {0: cover.base}


def test_embed_full_loop(z2):
    comp = build_graph([0], [(0, 0, y(1))], 0)
    cover, embedding = embed_Y_component(z2, comp)
    assert len(cover.vertices) == 1


def test_embed_edge_path_in_s3(s3):
    comp = build_graph([0, 1], [(0, 1, y(1))], 0)
    cover, embedding = embed_Y_component(s3, comp)
    assert len(cover.vertices) == 6  # trivial loop subgroup, regular cover
    assert embedding[0] != embedding[1]


def test_embed_commutes_with_trace(s3):
    comp = build_graph([0, 1, 2], [(0, 1, y(1)), (1, 2, y(2))], 0)
    cover, embedding = embed_Y_component(s3, comp)
    for word in [(y(1),), (y(1), y(2)), ()]:
        inside = trace(comp, 0, word)
        outside = trace(cover, embedding[0], word)
        assert embedding[inside.vertex] == outside.vertex


def test_embed_detects_non_based_component(z2):
    # y1 y1 path: the label closes in Z/2 but the path does not
    comp = build_graph([0, 1, 2], [(0, 1, y(1)), (1, 2, y(1))], 0)
    with pytest.raises(NotGBasedError):
        embed_Y_component(z2, comp)


def test_component_cosets_partition(z2):
    # two y-components joined by an x-edge, and a vertex with no y-edge
    g = build_graph(
        [0, 1, 2, 3, 4],
        [(0, 1, y(1)), (1, 2, y(1)), (2, 3, x(1)), (3, 3, y(1)), (4, 0, x(2))],
        0,
    )
    found = sorted(component_cosets(z2, g), key=lambda item: min(item[1]))
    assert [sorted(keys) for _subgroup, keys in found] == [[0, 1, 2], [3]]
    (trivial, path), (whole, loop) = found
    assert trivial == frozenset({z2.identity})
    assert path[0] == z2.identity  # the pass starts at the base point
    assert path[0] == path[2] != path[1]
    assert whole == frozenset(range(z2.order))
    assert loop == {3: z2.identity}


def test_step_tables_multiply_by_each_letter(z2, s3, d4, a4):
    for table in (z2, s3, d4, a4):
        letters = y_alphabet(table.num_generators)
        assert set(table.steps) == set(letters)
        for letter in letters:
            assert table.steps[letter] == tuple(
                table.multiply(a, table.letter_element(letter)) for a in range(table.order))
    # a generator of order 3: its backward table is not its forward one
    y1 = a4.steps[y(1)]
    assert a4.steps[y(1, -1)] != y1
    assert all(a4.steps[y(1, -1)][y1[a]] == a for a in range(a4.order))


def random_folded_graph(rng, table):
    """Fold of a random multigraph on up to 12 vertices with x- and
    y-edges, based at vertex 0."""
    letters = list(x_alphabet(2)) + list(y_alphabet(table.num_generators))
    size = rng.randint(1, 12)
    pairs = set()
    for _ in range(rng.randint(1, size + 3)):
        letter = rng.choice(letters)
        u, w = rng.randrange(size), rng.randrange(size)
        pairs.add((u, w, letter) if letter.sign > 0 else (w, u, letter.inverse()))
    graph = LabeledGraph(frozenset(range(size)), frozenset(pairs), 0, False)
    return fold(graph)[0]


def coset_partition(keys):
    classes = {}
    for v, key in keys.items():
        classes.setdefault(key, set()).add(v)
    return frozenset(frozenset(c) for c in classes.values())


def test_component_cosets_match_the_per_component_oracle(z2, s3, d4):
    rng = random.Random(8)
    nontrivial = 0
    for table in (z2, s3, d4):
        for _ in range(120):
            graph = random_folded_graph(rng, table)
            found = {frozenset(keys): (subgroup, keys)
                     for subgroup, keys in component_cosets(table, graph)}
            expected = component_subgraphs(graph, "y")
            assert set(found) == {c.vertices for c, _anchor in expected}
            for component, anchor in expected:
                subgroup, keys = found[component.vertices]
                oracle_subgroup, assignment = component_cosets_oracle(table, component)
                assert coset_partition(keys) == coset_partition(assignment)
                if anchor == graph.base:
                    assert subgroup == oracle_subgroup
                    assert keys == assignment
                    nontrivial += 1 < len(subgroup) < table.order
    # proper nontrivial loop subgroups, which no decompose benchmark input has
    assert nontrivial >= 20


def test_component_cosets_from_starts_scan_only_their_components(z2, s3, d4, a4):
    """With ``starts``, exactly the y-components holding a start are
    scanned, and each splits into the same coset classes as in a full
    scan, whichever of its vertices the scan starts from."""
    rng = random.Random(11)
    for table in (z2, s3, d4, a4):
        for _ in range(60):
            graph = random_folded_graph(rng, table)
            full = {frozenset(keys): coset_partition(keys)
                    for _subgroup, keys in component_cosets(table, graph)}
            starts = rng.sample(sorted(graph.vertices), rng.randint(0, len(graph.vertices)))
            found = {frozenset(keys): coset_partition(keys)
                     for _subgroup, keys in component_cosets(table, graph, starts)}
            assert set(found) == {c for c in full if c & set(starts)}
            assert all(found[c] == full[c] for c in found)


# -- free-side completion ----------------------------------------------------------------


def complete_X_cover(graph: LabeledGraph, rank: int) -> LabeledGraph:
    """``covers._complete`` over the positive x-letters, on a copy of the
    graph's adjacency."""
    out = {v: dict(slots) for v, slots in graph.out.items()}
    _complete(out, graph.vertices, x_alphabet(rank)[::2])
    return from_adjacency(out, graph.base)


def test_complete_single_vertex():
    g = build_graph([0], [], 0)
    completed = complete_X_cover(g, 2)
    assert completed.pairs == frozenset({(0, 0, x(1)), (0, 0, x(2))})


def test_complete_identity_extension_rule():
    g = build_graph([0, 1], [(0, 1, x(1))], 0)
    completed = complete_X_cover(g, 2)
    assert (1, 0, x(1)) in completed.pairs
    assert (0, 0, x(2)) in completed.pairs and (1, 1, x(2)) in completed.pairs
    assert saturation_defects(completed, x_alphabet(2)) == []


def test_complete_is_a_fixed_point_on_saturated_graphs():
    g = build_graph([0], [(0, 0, x(1)), (0, 0, x(2))], 0)
    assert complete_X_cover(g, 2).pairs == g.pairs


def test_complete_never_adds_vertices_and_saturates():
    g = build_graph(
        [0, 1, 2, 3],
        [(0, 1, x(1)), (1, 2, x(1)), (2, 2, x(2)), (3, 0, x(2))],
        0,
    )
    completed = complete_X_cover(g, 2)
    assert completed.vertices == g.vertices
    assert saturation_defects(completed, x_alphabet(2)) == []
    assert g.pairs <= completed.pairs


def test_complete_ignores_y_edges(z2):
    g = build_graph([0, 1], [(0, 1, y(1))], 0)
    completed = complete_X_cover(g, 2)
    assert (0, 1, y(1)) in completed.pairs
    assert saturation_defects(completed, x_alphabet(2)) == []
    # y-side untouched: still only the one y-edge
    assert sum(1 for p in completed.pairs if p[2].factor == "y") == 1


def test_components_of_monochromatic_cover(s3):
    g, _coset_of = coset_graph_oracle(s3, frozenset([s3.identity]))
    [(members, pairs)] = components(g, "y")
    assert set(members) == g.vertices and pairs == len(g.pairs)
    assert components(g, "x") == []


def test_gluing_a_component_cover_grows_by_the_difference(s3, d4):
    # each y-component's coset graph is glued on along its embedding: the
    # based graph keeps its ids, and the glued graph gains exactly the
    # cosets that the components miss
    rng = random.Random(41)
    glued_runs = proper = 0
    for table in (s3, d4):
        for _ in range(12):
            words = [random_raw_word(rng, 2, table.num_generators, 8, 1)
                     for _ in range(rng.randint(1, 3))]
            separator = random_raw_word(rng, 2, table.num_generators, 6, 1)
            spec = make_spec(table, words, [separator])
            built = build_subgroup_graph(spec)
            graph = built.graph
            verdict = hypothesis_check(graph, 2)
            if verdict.kind == VERDICT_NOT_APPLICABLE or graph.base in built.separator_ends:
                continue
            glued = build_separating_cover(spec, graph, verdict).stages["component_covers"]
            glued_runs += 1
            assert glued.base == graph.base
            assert graph.vertices <= glued.vertices and graph.pairs <= glued.pairs
            grown = 0
            for component, anchor in component_subgraphs(graph, "y"):
                cover, embedding = embed_Y_component(table, component)
                # follow the cover's tree edges from the anchor's coset
                order, parent = breadth_first_tree(cover, embedding[anchor])
                place = {embedding[anchor]: anchor}
                for c in order[1:]:
                    source, letter = parent[c]
                    place[c] = glued.step(place[source], letter)
                assert len(set(place.values())) == len(cover.vertices)
                assert all(place[embedding[v]] == v for v in component.vertices)
                for u, w, letter in cover.pairs:
                    assert (place[u], place[w], letter) in glued.pairs
                grown += len(cover.vertices) - len(component.vertices)
                proper += 1 < len(cover.vertices) < table.order
            assert len(glued.vertices) == len(graph.vertices) + grown
    assert glued_runs >= 15
    assert proper >= 5
