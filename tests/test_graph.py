import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcut.engine import INFEASIBLE_STATUS, solve
from kvcut.graph import (
    MAX_GENERATORS,
    NO,
    YES,
    DimacsError,
    Graph,
    _refine_colors,
    automorphism_generators,
    connected_components,
    has_stable_set_of_size,
    is_automorphism,
    is_clique,
    is_k_vertex_cut,
    parse_dimacs,
    read_dimacs,
    write_dimacs,
)
from kvcut.instance import Instance

DATA = Path(__file__).parent.parent / "src" / "kvcut" / "data"


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


# ---------------------------------------------------------------- parsing


def test_parse_smallest_path():
    res = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
    assert res.graph.n == 3
    assert res.graph.edges == [(0, 1), (1, 2)]


def test_parse_karate_header():
    res = read_dimacs(DATA / "karate.col")
    assert (res.graph.n, res.graph.m) == (34, 78)
    assert not res.warnings()


def test_parse_endpoint_out_of_range():
    with pytest.raises(DimacsError):
        parse_dimacs("p edge 3 1\ne 1 5\n")


def test_parse_missing_header():
    with pytest.raises(DimacsError):
        parse_dimacs("e 1 2\n")


def test_parse_drops_duplicates_and_self_loops():
    res = parse_dimacs("p edge 3 4\ne 1 2\ne 2 1\ne 2 2\ne 2 3\n")
    assert res.graph.edges == [(0, 1), (1, 2)]
    assert res.duplicates_dropped == 1
    assert res.self_loops_dropped == 1
    assert res.warnings()


def test_roundtrip_through_serialization():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        again = parse_dimacs(write_dimacs(g)).graph
        assert again.n == g.n
        assert again.edges == g.edges


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)], costs=[1.0, -2.0])


@pytest.mark.parametrize("cost", ["nan", "inf", "-inf"])
def test_graph_rejects_non_finite_costs(cost):
    with pytest.raises(ValueError, match="finite"):
        Graph(2, [(0, 1)], costs=[1.0, float(cost)])


# ----------------------------------------------------------- components


def test_components_of_path_after_cutting_middle():
    assert connected_components(path3(), within=[0, 2]) == [[0], [2]]


def test_karate_split_by_vertex_one():
    g = read_dimacs(DATA / "karate.col").graph
    rest = [v for v in range(g.n) if v != 0]  # vertex 1 in file ids
    assert len(connected_components(g, within=rest)) == 3


def test_connected_graph_single_component():
    assert len(connected_components(cycle(7))) == 1


def test_component_sizes_sum_to_n():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 12)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        comps = connected_components(Graph(n, edges))
        assert sum(len(c) for c in comps) == n
        # deterministic order: by smallest member
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)


def test_is_k_vertex_cut_on_path():
    assert is_k_vertex_cut(path3(), [1], 2)
    assert not is_k_vertex_cut(path3(), [0], 2)
    assert is_k_vertex_cut(path3(), [0, 1, 2], 0)
    assert not is_k_vertex_cut(path3(), [0, 1, 2], 1)


# --------------------------------------------------------------- cliques


def test_is_clique():
    assert is_clique(complete(3), [0, 1, 2])
    assert not is_clique(path3(), [0, 1, 2])
    assert is_clique(path3(), [])
    assert is_clique(path3(), [2])


# ------------------------------------------------------------ stable sets


def test_stable_set_on_clique_and_edgeless():
    assert has_stable_set_of_size(complete(5), 5).status == NO
    assert has_stable_set_of_size(Graph(6, []), 6).status == YES


def test_karate_alpha_is_twenty():
    g = read_dimacs(DATA / "karate.col").graph
    assert has_stable_set_of_size(g, 20).status == YES
    assert has_stable_set_of_size(g, 21).status == NO


def _alpha_brute(g):
    best = 0
    for r in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), r):
            if is_clique_complement(g, combo):
                return r
    return best


def is_clique_complement(g, vertices):
    return all(
        not g.has_edge(u, v) for u, v in itertools.combinations(vertices, 2)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_stable_set_matches_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    g = Graph(n, edges)
    alpha = _alpha_brute(g)
    for k in range(1, n + 1):
        res = has_stable_set_of_size(g, k)
        assert res.status == (YES if k <= alpha else NO)
        if res.status == YES:
            s = res.stable_set
            assert len(s) == k and is_clique_complement(g, s)


def test_stable_set_search_on_a_long_path_does_not_recurse():
    # every step takes a degree-1 end, so a search that recursed per
    # vertex would pass Python's recursion limit long before the answer
    p = Graph(2001, [(v, v + 1) for v in range(2000)])
    assert has_stable_set_of_size(p, 1002).status == NO
    res = has_stable_set_of_size(p, 1001)
    assert res.status == YES
    assert len(res.stable_set) == 1001 and is_clique_complement(p, res.stable_set)
    assert solve(Instance(p, 1002)).status == INFEASIBLE_STATUS


# ---------------------------------------------------------- automorphisms


def hypercube(d):
    n = 1 << d
    edges = [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1]
    return Graph(n, edges)


def grid(rows, cols):
    across = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    down = [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph(rows * cols, across + down)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def group_closure(n, perms):
    """Every product of ``perms``, the identity included."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        base = frontier.pop()
        for perm in perms:
            nxt = tuple(perm[base[i]] for i in range(n))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return group


#: each graph, made on demand, and the order of its automorphism group
GROUPS = {
    "C4": (lambda: cycle(4), 8),
    "C12": (lambda: cycle(12), 24),
    "Q4": (lambda: hypercube(4), 384),
    "Petersen": (petersen, 120),
    "K3,3": (lambda: Graph(6, [(a, b) for a in range(3) for b in range(3, 6)]), 72),
    "grid5x5": (lambda: grid(5, 5), 8),
    "grid4x8": (lambda: grid(4, 8), 4),
    "myciel4": (lambda: read_dimacs(DATA / "myciel4.col").graph, 10),
}


@pytest.mark.parametrize("name", GROUPS)
def test_automorphisms_generate_the_whole_group(name):
    build, order = GROUPS[name]
    g = build()
    elements = automorphism_generators(g)
    assert len(elements) == min(order - 1, MAX_GENERATORS)
    assert all(is_automorphism(g, perm) for perm in elements)
    assert len(group_closure(g.n, elements)) == order


def test_automorphism_search_stops_at_the_deadline():
    # a deadline already past stops the search at its first refinement:
    # the star K1,150, whose full search takes seconds, raises at once; a
    # deadline far ahead changes nothing
    star = Graph(151, [(0, v) for v in range(1, 151)])
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        automorphism_generators(star, deadline=start)
    assert time.monotonic() - start < 1.0
    g = petersen()
    assert automorphism_generators(g, time.monotonic() + 1e6) == automorphism_generators(g)


def test_hypercube_q5_is_vertex_transitive():
    elements = automorphism_generators(hypercube(5))
    assert {perm[0] for perm in group_closure(32, elements)} == set(range(32))


def test_grid_10x10_yields_its_seven_symmetries():
    elements = automorphism_generators(grid(10, 10))
    assert len(elements) == 7
    assert len(group_closure(100, elements)) == 8


def test_refinement_commutes_with_relabelling():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 14)
        pairs = itertools.combinations(range(n), 2)
        g = Graph(n, [(u, v) for u, v in pairs if rng.random() < 0.3])
        start = [rng.randint(0, 1) for _ in range(n)]
        pi = list(range(n))
        rng.shuffle(pi)
        h = Graph(n, [(pi[u], pi[v]) for u, v in g.edges])
        moved = [0] * n
        for v in range(n):
            moved[pi[v]] = start[v]
        ours, theirs = _refine_colors(g, start), _refine_colors(h, moved)
        assert [theirs[pi[v]] for v in range(n)] == ours


def test_p3_endpoint_swap_found():
    gens = automorphism_generators(path3())
    assert any(g[0] == 2 and g[2] == 0 and g[1] == 1 for g in gens)


def test_costs_break_p3_mirror():
    g = Graph(3, [(0, 1), (1, 2)], costs=[1.0, 1.0, 2.0])
    assert automorphism_generators(g) == []


def test_every_generator_is_sound():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 10)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        for perm in automorphism_generators(g):
            assert is_automorphism(g, perm)
            assert sorted(perm) == list(range(n))
