import random

import pytest

from altsep import graphs
from altsep.graphs import (
    LabeledGraph,
    breadth_first_tree,
    canonical_pair,
    components,
    fold,
    from_adjacency,
    make_graph,
    trace,
)
from altsep.words import x_alphabet, x_letter as x, y_letter as y

from oracles import (
    all_fold_results,
    build_graph,
    bfs_components,
    canonical_form,
    coset_graph_oracle,
    is_connected,
    is_folded,
    is_tree,
    merge_vertices,
    random_fold,
    saturation_defects,
    spanning_tree,
)


def wedge_w4():
    """Interval of four vertices with x1 edges and an x2 loop everywhere."""
    edges = [(0, 1, x(1)), (1, 2, x(1)), (2, 3, x(1))]
    edges += [(j, j, x(2)) for j in range(4)]
    return build_graph(range(4), edges, 0)


# -- build_graph ---------------------------------------------------------------


def test_build_empty_spec_single_vertex():
    g = build_graph([0], [], 0)
    assert len(g.vertices) == 1 and not g.pairs and g.folded


def test_build_closes_involution():
    g = build_graph([0, 1], [(0, 1, x(1))], 0)
    assert len(g.pairs) == 1
    # the same pair is reachable in both directions
    assert g.step(0, x(1)) == 1
    assert g.step(1, x(1, -1)) == 0


def test_build_w4_counts():
    g = wedge_w4()
    assert len(g.vertices) == 4
    x1_pairs = [p for p in g.pairs if p[2] == x(1)]
    x2_loops = [p for p in g.pairs if p[2] == x(2) and p[0] == p[1]]
    assert len(x1_pairs) == 3 and len(x2_loops) == 4


def test_build_rejects_duplicate_edge_identity():
    with pytest.raises(ValueError):
        build_graph([0, 1], [(0, 1, x(1)), (0, 1, x(1))], 0)
    # the inverse orientation names the same edge pair
    with pytest.raises(ValueError):
        build_graph([0, 1], [(0, 1, x(1)), (1, 0, x(1, -1))], 0)


def test_build_rejects_unknown_base_and_vertices():
    with pytest.raises(ValueError):
        build_graph([0], [], 1)
    with pytest.raises(ValueError):
        build_graph([0], [(0, 1, x(1))], 0)


# -- fold -----------------------------------------------------------------------


def test_fold_fixed_point_on_folded_input():
    g = build_graph([0, 1], [(0, 1, x(1))], 0)
    folded, vmap = fold(g)
    assert folded.pairs == g.pairs
    assert vmap == {0: 0, 1: 1}


def test_fold_single_conflict():
    g = build_graph([0, 1, 2], [(0, 1, x(1)), (0, 2, x(1))], 0)
    folded, vmap = fold(g)
    assert len(folded.vertices) == 2
    assert vmap[1] == vmap[2]


def test_fold_wedge_of_equal_loops_unique_result():
    edges = [(0, 1, x(1)), (1, 0, x(2)), (0, 2, x(1)), (2, 0, x(2))]
    g = build_graph(range(3), edges, 0)
    folded, _ = fold(g)
    assert len(folded.vertices) == 2 and len(folded.pairs) == 2
    # exhaustive fold-order search agrees on a single outcome
    assert all_fold_results(g) == {canonical_form(folded)}


def test_fold_idempotent():
    edges = [(0, 1, x(1)), (0, 2, x(1)), (1, 3, x(2)), (2, 4, x(2))]
    g = build_graph(range(5), edges, 0)
    once, _ = fold(g)
    twice, vmap = fold(once)
    assert twice.pairs == once.pairs
    assert all(vmap[v] == v for v in once.vertices)


def test_fold_preserves_involution_structure():
    edges = [(0, 1, x(1)), (0, 2, x(1)), (1, 1, y(1)), (2, 2, y(1))]
    g = build_graph(range(3), edges, 0)
    folded, _ = fold(g)
    for u, w, letter in folded.pairs:
        assert letter.sign > 0
        assert folded.step(u, letter) == w
        assert folded.step(w, letter.inverse()) == u


# -- trace ------------------------------------------------------------------------


def test_trace_loops_close():
    g = build_graph([0], [(0, 0, x(1)), (0, 0, x(2))], 0)
    assert trace(g, 0, (x(1), x(2), x(1, -1))).closed


def test_trace_stuck_reports_first_missing_letter():
    g = build_graph([0, 1], [(0, 1, x(1))], 0)
    result = trace(g, 0, (x(1), x(1)))
    assert result.status == "stuck" and result.position == 2 and result.vertex == 1


def test_trace_coset_graph_relation(z2):
    g, _coset_of = coset_graph_oracle(z2, frozenset([0]))
    assert trace(g, 0, (y(1), y(1))).closed


def test_trace_requires_folded():
    g = build_graph([0, 1, 2], [(0, 1, x(1)), (0, 2, x(1))], 0)
    with pytest.raises(ValueError):
        trace(g, 0, (x(1),))


def test_trace_rejects_an_unknown_start_vertex():
    g = build_graph([0, 1], [(0, 1, x(1))], 0)
    with pytest.raises(ValueError, match="^unknown vertex 7$"):
        trace(g, 7, (x(1),))


def test_trace_deterministic():
    g = wedge_w4()
    first = trace(g, 0, (x(1), x(2), x(1)))
    assert all(trace(g, 0, (x(1), x(2), x(1))) == first for _ in range(3))


# -- components ---------------------------------------------------------------------


def test_components_by_factor():
    g = build_graph([0, 1, 2], [(0, 1, x(1)), (0, 2, y(1))], 0)
    assert components(g, "x") == [((0, 1), 1)]
    assert components(g, "y") == [((0, 2), 1)]


def test_components_w4_single_x_component():
    g = wedge_w4()
    [(members, pairs)] = components(g, "x")
    assert sorted(members) == sorted(g.vertices) and pairs == len(g.pairs) == 7
    assert components(g, "y") == []


def test_components_skip_vertices_without_factor_edges():
    g = build_graph([0, 1, 2], [(0, 1, y(1))], 0)
    assert components(g, "x") == []
    assert components(g, "y") == [((0, 1), 1)]


def test_components_need_a_folded_graph():
    g = build_graph([0, 1, 2], [(0, 1, x(1)), (0, 2, x(1))], 0)
    assert not g.folded
    for factor in ("x", "y"):
        with pytest.raises(ValueError, match="folded"):
            components(g, factor)


def random_graph(rng):
    """Unfolded graph on sparse vertex ids: random pairs (loops and
    parallel edges included) over two x-letters and two y-letters, with
    some isolated vertices."""
    vertices = rng.sample(range(120), rng.randint(1, 40))
    alphabet = [x(1), x(2), y(1), y(2)]
    pairs = {
        (rng.choice(vertices), rng.choice(vertices), rng.choice(alphabet))
        for _ in range(rng.randint(0, 2 * len(vertices)))
    }
    return build_graph(vertices, pairs, rng.choice(vertices))


def test_write_pairs_contract_on_random_pairs():
    """_write_pairs fills both slots of a pair when each is empty or holds
    the pair already, and returns a pair that finds a slot holding another
    edge, leaving both its slots as they were.  One call on a list acts as
    one call per pair, in order, and writing present pairs again is no
    clash."""
    rng = random.Random(2028)
    alphabet = [x(1), x(2), y(1)]
    for _ in range(200):
        vertices = rng.sample(range(60), rng.randint(1, 12))
        pairs = [(rng.choice(vertices), rng.choice(vertices), rng.choice(alphabet))
                 for _ in range(rng.randint(0, 2 * len(vertices)))]
        out = {v: {} for v in vertices}
        clashes = []
        for u, w, letter in pairs:
            inverse = letter.inverse()
            expected = {v: dict(slots) for v, slots in out.items()}
            if expected[u].get(letter, w) != w or expected[w].get(inverse, u) != u:
                clashes.append((u, w, letter))
                assert graphs._write_pairs(out, [(u, w, letter)]) == [(u, w, letter)]
            else:
                expected[u][letter], expected[w][inverse] = w, u
                assert graphs._write_pairs(out, [(u, w, letter)]) == []
            assert out == expected
        batch = {v: {} for v in vertices}
        assert graphs._write_pairs(batch, pairs) == clashes and batch == out
        written = [pair for pair in pairs if pair not in clashes]
        rng.shuffle(written)
        assert graphs._write_pairs(batch, written) == [] and batch == out


def test_write_pairs_accepts_an_edge_in_either_orientation():
    """Writing each edge as given or as its canonical pair gives the same
    adjacency, and the same clashes up to orientation."""
    rng = random.Random(2030)
    alphabet = [x(1), x(1, -1), x(2), x(2, -1), y(1), y(1, -1)]
    clashed = 0
    for _ in range(200):
        vertices = rng.sample(range(60), rng.randint(1, 12))
        edges = [(rng.choice(vertices), rng.choice(vertices), rng.choice(alphabet))
                 for _ in range(rng.randint(0, 2 * len(vertices)))]
        given, canonical = {v: {} for v in vertices}, {v: {} for v in vertices}
        given_clashes = graphs._write_pairs(given, edges)
        canonical_clashes = graphs._write_pairs(
            canonical, [canonical_pair(*edge) for edge in edges])
        assert given == canonical
        assert [canonical_pair(*edge) for edge in given_clashes] == canonical_clashes
        assert all(edge in edges for edge in given_clashes)
        clashed += bool(given_clashes)
    assert clashed >= 50


def test_make_graph_is_folded_exactly_when_the_oracle_says_so():
    """make_graph's flag agrees with the slot-set oracle.  A folded graph
    is the adjacency its pairs spell: a graph built from that adjacency
    has it as its ``out`` and reads those pairs off it, and it equals,
    and hashes as, the graph built from the pairs."""
    rng = random.Random(2029)
    for _ in range(200):
        g = random_graph(rng)
        built = make_graph(g.vertices, g.pairs, g.base)
        assert built.folded == is_folded(g.vertices, g.pairs)
        if built.folded:
            rebuilt = {v: {} for v in g.vertices}
            for u, w, letter in g.pairs:
                rebuilt[u][letter] = w
                rebuilt[w][letter.inverse()] = u
            paired = LabeledGraph(g.vertices, g.pairs, g.base, True)
            spelled = from_adjacency(rebuilt, g.base)
            assert hash(spelled) == hash(paired) and spelled == paired
            assert spelled.out is rebuilt and spelled.pairs == g.pairs
            assert paired.out == rebuilt and built.out == rebuilt
            assert built == paired and hash(built) == hash(paired)


def test_components_match_bfs_oracle_on_random_graphs():
    """On folded random graphs, for both factors, each component's vertex
    set and pair count are the oracle's, in least-vertex order, and its
    vertices start at its least vertex and repeat none."""
    rng = random.Random(2026)
    for _ in range(200):
        g = fold(random_graph(rng))[0]
        for factor in ("x", "y"):
            comps = components(g, factor)
            oracle = bfs_components(g, factor)
            assert [(frozenset(m), p) for m, p in comps] == [
                (members, len(pairs)) for members, pairs, _anchor in oracle]
            assert all(m[0] == min(m) and len(set(m)) == len(m) for m, _p in comps)


def test_components_are_computed_once_per_graph_and_factor():
    """components keeps its result on the graph: a second call reads
    nothing of the graph (here its adjacency is emptied after the first)
    and returns an equal list that is a new object."""
    rng = random.Random(2027)
    for _ in range(50):
        g = fold(random_graph(rng))[0]
        expected = {factor: [(frozenset(members), len(pairs))
                             for members, pairs, _anchor in bfs_components(g, factor)]
                    for factor in ("x", "y")}
        for factor in ("x", "y"):
            components(g, factor)
        object.__setattr__(g, "_out", {})
        for factor in ("x", "y"):
            first, second = components(g, factor), components(g, factor)
            assert first == second and first is not second
            assert [(frozenset(m), p) for m, p in first] == expected[factor]
            first.clear()  # a caller's list is its own
            assert components(g, factor) == second


def test_pair_counts_mark_the_components_with_a_cycle():
    """A component has a cycle exactly when its pair count is at least
    its vertex count: those are the oracle's components that are not
    trees, on folded random graphs, for both factors."""
    rng = random.Random(2030)
    cyclic = trees = 0
    for _ in range(200):
        g = fold(random_graph(rng))[0]
        for factor in ("x", "y"):
            oracle = [members for members, pairs, _anchor in bfs_components(g, factor)
                      if len(pairs) != len(members) - 1]
            assert [frozenset(m) for m, p in components(g, factor) if p >= len(m)] == oracle
            cyclic += len(oracle)
            trees += sum(p < len(m) for m, p in components(g, factor))
    assert cyclic > 100 and trees > 100


def test_fold_independent_of_pair_order():
    """fold consumes pairs in whatever order the graph yields them; any
    order, including the sorted one, gives the same graph and vertex map."""
    rng = random.Random(99)
    for _ in range(100):
        g = random_graph(rng) if rng.random() < 0.5 else random_wedge(rng)
        ordered = sorted(g.pairs, key=lambda p: (p[0], p[2].sort_key, p[1]))
        reference = fold(LabeledGraph(g.vertices, tuple(ordered), g.base, g.folded))
        for _ in range(4):
            rng.shuffle(ordered)
            assert fold(LabeledGraph(g.vertices, tuple(ordered), g.base, g.folded)) == reference
        assert fold(g) == reference


def test_fold_merge_groups_cascade_into_folds():
    edges = [(0, 1, x(1)), (1, 3, x(2)), (0, 2, x(2)), (2, 4, x(2))]
    g = build_graph(range(5), edges, 0)
    folded, vmap = fold(g, [(2, 1)])
    assert vmap == {0: 0, 1: 1, 2: 1, 3: 3, 4: 3}
    assert folded.pairs == {(0, 1, x(1)), (0, 1, x(2)), (1, 3, x(2))}
    assert folded.folded and folded.base == 0


def fold_in_pair_order(vertices, pairs, base):
    """fold of the unfolded graph whose pairs are read in the order given,
    checked against the oracle."""
    g = LabeledGraph(frozenset(vertices), tuple(pairs), base, False)
    folded, vmap = fold(g)
    expected = random_fold(make_graph(g.vertices, g.pairs, base), random.Random(0))
    assert (folded.vertices, folded.pairs, folded.base) == (
        expected.vertices, expected.pairs, expected.base)
    assert make_graph(folded.vertices, folded.pairs, folded.base).out == folded.out
    return folded, vmap


def test_fold_unfolded_pair_colliding_at_both_ends():
    """(0, 3, x1) finds 0's x1 slot holding 1 and 3's x1^-1 slot holding
    2: it stays out of the adjacency, and 1 ~ 3 and 2 ~ 0 are merged."""
    first = [(0, 1, x(1)), (2, 3, x(1))]
    for pairs in (first + [(0, 3, x(1))], [(0, 3, x(1))] + first):
        folded, vmap = fold_in_pair_order(range(4), pairs, 0)
        assert folded.pairs == {(0, 1, x(1))}
        assert vmap == {0: 0, 1: 1, 2: 0, 3: 1}
        assert folded.out == {0: {x(1): 1}, 1: {x(1, -1): 0}}


def test_fold_unfolded_self_loop_colliding():
    """The loop (0, 0, x1) finds 0's x1 slot holding 1 and its x1^-1 slot
    holding 2, so the whole graph folds onto the loop."""
    first = [(0, 1, x(1)), (2, 0, x(1)), (1, 2, y(1))]
    for pairs in (first + [(0, 0, x(1))], [(0, 0, x(1))] + first):
        folded, vmap = fold_in_pair_order(range(3), pairs, 1)
        assert folded.pairs == {(0, 0, x(1)), (0, 0, y(1))}
        assert vmap == {0: 0, 1: 0, 2: 0} and folded.base == 0
        assert folded.out == {0: {x(1): 0, x(1, -1): 0, y(1): 0, y(1, -1): 0}}


def test_fold_unfolded_wedge_without_collision():
    """A wedge that is folded already, though not flagged so, keeps its
    vertices and pairs: nothing collides, nothing merges."""
    pairs = [(0, 1, x(1)), (1, 0, x(2)), (0, 2, y(1)), (2, 0, y(2)), (1, 1, y(1))]
    folded, vmap = fold_in_pair_order(range(3), pairs, 0)
    assert folded.pairs == frozenset(pairs)
    assert vmap == {0: 0, 1: 1, 2: 2}
    assert folded.out == make_graph(range(3), pairs, 0).out


def check_fold_with_merge_groups(g, rng):
    vertices = sorted(g.vertices)
    merge = [rng.sample(vertices, rng.randint(1, min(4, len(vertices))))
             for _ in range(rng.randint(0, 3))]
    before = {v: dict(slots) for v, slots in g.out.items()} if g.folded else None
    folded, vmap = fold(g, merge)
    if before is not None:
        # fold shares the input's slot dicts and must write none of them
        assert {v: dict(slots) for v, slots in g.out.items()} == before
    expected = random_fold(merge_vertices(g, merge), rng)
    assert folded.folded
    assert (folded.vertices, folded.pairs, folded.base) == (
        expected.vertices, expected.pairs, expected.base)
    for v in g.vertices:
        assert vmap[v] == min(u for u in g.vertices if vmap[u] == vmap[v])
    assert all(len({vmap[v] for v in group}) == 1 for group in merge)
    assert {canonical_pair(vmap[u], vmap[w], letter)
            for u, w, letter in g.pairs} == folded.pairs
    # the adjacency fold hands over: no stale target, no dropped vertex
    assert make_graph(folded.vertices, folded.pairs, folded.base).out == folded.out
    assert folded.pairs == {(u, w, letter) for u, slots in folded.out.items()
                            for letter, w in slots.items() if letter.sign > 0}


def test_fold_with_merge_groups_matches_merge_then_random_fold():
    """fold(g, merge) is the graph the oracle reaches by merging the groups
    and then folding in random order, and its vertex map is a graph map
    naming every class by its least vertex.  The input is unfolded, or
    folded by an earlier fold, which then resumes from the adjacency that
    fold handed over."""
    rng = random.Random(7)
    for _ in range(100):
        check_fold_with_merge_groups(random_graph(rng), rng)
    for _ in range(100):
        check_fold_with_merge_groups(fold(random_graph(rng))[0], rng)


def test_fold_rejects_a_merge_group_naming_an_unknown_vertex():
    g = build_graph([0, 1], [(0, 1, x(1))], 0)
    with pytest.raises(ValueError, match="unknown vertex 5"):
        fold(g, [(0, 5)])


def test_adjacency_requires_a_folded_graph():
    g = build_graph([0, 1, 2], [(0, 1, x(1)), (0, 2, x(1))], 0)
    assert not g.folded
    with pytest.raises(ValueError, match="folded"):
        g.out
    with pytest.raises(ValueError, match="folded"):
        g.step(0, x(1))
    folded, _ = fold(g)
    assert folded.out == {0: {x(1): 1}, 1: {x(1, -1): 0}}
    assert folded.step(0, x(1)) == 1 and folded.step(0, x(2)) is None


# -- saturation -----------------------------------------------------------------------


def test_saturation_full_cover_has_no_defects():
    g = build_graph([0], [(0, 0, x(1)), (0, 0, x(2))], 0)
    assert saturation_defects(g, x_alphabet(2)) == []


def test_saturation_interval_defects_at_the_ends():
    g = wedge_w4()
    defects = saturation_defects(g, x_alphabet(2))
    assert {(d.vertex, str(d.missing)) for d in defects} == {(0, "x1^-1"), (3, "x1")}


# -- confluence and helpers --------------------------------------------------------------


def random_wedge(rng):
    """Connected graph: a wedge of random words at a base vertex."""
    edges = []
    vertices = [0]
    next_id = 1
    alphabet = [x(1), x(1, -1), x(2), x(2, -1), y(1), y(1, -1)]
    for _ in range(rng.randint(2, 4)):
        length = rng.randint(1, 6)
        current = 0
        for i in range(length):
            close = i == length - 1 and rng.random() < 0.7
            target = 0 if close else next_id
            if not close:
                vertices.append(next_id)
                next_id += 1
            letter = rng.choice(alphabet)
            pair = (current, target, letter) if letter.sign > 0 else (target, current, letter.inverse())
            if pair not in edges:
                edges.append(pair)
            current = target
    return build_graph(vertices, edges, 0)


def test_fold_confluence_random_orders_smoke():
    rng = random.Random(7)
    for _ in range(10):
        g = random_wedge(rng)
        reference = canonical_form(fold(g)[0])
        for _ in range(3):
            assert canonical_form(random_fold(g, rng)) == reference


def test_tree_and_connectivity_helpers():
    path = build_graph([0, 1, 2], [(0, 1, x(1)), (1, 2, x(2))], 0)
    assert is_tree(path) and is_connected(path)
    loop = build_graph([0], [(0, 0, x(1))], 0)
    assert not is_tree(loop)


def test_spanning_tree_on_random_connected_graphs():
    rng = random.Random(4242)
    for _ in range(100):
        g, _vmap = fold(random_wedge(rng))
        order, parent, tree = spanning_tree(g)
        assert (order, parent) == breadth_first_tree(g, g.base)
        assert len(tree) == len(g.vertices) - 1
        assert tree <= g.pairs
        assert is_connected(make_graph(g.vertices, tree, g.base))


def test_spanning_tree_rejects_disconnected_graphs():
    rng = random.Random(4243)
    for _ in range(20):
        g, _vmap = fold(random_wedge(rng))
        stray = max(g.vertices) + 1
        with pytest.raises(ValueError):
            spanning_tree(make_graph(g.vertices | {stray}, g.pairs, g.base))


def test_canonical_form_detects_isomorphism():
    g = build_graph([0, 1, 2], [(0, 1, x(1)), (1, 2, x(2)), (2, 0, y(1))], 0)
    relabeled = build_graph([5, 9, 7], [(5, 9, x(1)), (9, 7, x(2)), (7, 5, y(1))], 5)
    assert canonical_form(g) == canonical_form(relabeled)
    different = build_graph([0, 1, 2], [(0, 1, x(1)), (1, 2, x(2)), (0, 2, y(1))], 0)
    assert canonical_form(g) != canonical_form(different)
