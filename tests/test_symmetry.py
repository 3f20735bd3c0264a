import random

import pytest

import kvcut.engine
from kvcut.engine import OPTIMAL, solve
from kvcut.graph import Graph, automorphism_generators
from kvcut.instance import Instance, gnp_graph
from kvcut.master import BranchState
from kvcut.symmetry import (
    LexResult,
    invert_permutation,
    lex_fixings,
    propagate,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path3():
    return Graph(3, [(0, 1), (1, 2)])


SWAP_ENDS = [2, 1, 0]  # the P3 automorphism a <-> c
ROTATE_C4 = [1, 2, 3, 0]


def test_invert_permutation():
    assert invert_permutation([1, 2, 3, 0]) == [3, 0, 1, 2]
    assert invert_permutation(SWAP_ENDS) == SWAP_ENDS


# ------------------------------------------------------------ lex scanning


def test_leading_zero_forces_the_mirror_to_zero():
    result = lex_fixings((0,), {0: 0}, SWAP_ENDS)
    assert result == LexResult(False, [(2, 0)])


def test_strictly_greater_prefix_deduces_nothing():
    result = lex_fixings((0,), {0: 1, 2: 0}, SWAP_ENDS)
    assert result == LexResult(False, [])


def test_zero_against_one_is_a_conflict():
    # gamma^-1(i1) is the second branching variable, already fixed to 1
    result = lex_fixings((0, 1), {0: 0, 1: 1}, [1, 0, 2])
    assert result.conflict


def test_fixed_one_mirror_forces_the_left_side():
    result = lex_fixings((0,), {2: 1}, SWAP_ENDS)
    assert result == LexResult(False, [(0, 1)])


def test_scan_stops_at_the_first_undecided_pair():
    # position one stays free on both sides, so nothing after it counts
    result = lex_fixings((0, 1), {1: 0}, ROTATE_C4)
    assert result == LexResult(False, [])


def test_forcings_feed_later_positions():
    # rotating C4 once: x0=0 forces x3=0, and the scan then reads that
    # fresh zero at the next position and forces x2=0 in the same pass
    inv = invert_permutation(ROTATE_C4)
    assert inv[0] == 3 and inv[3] == 2
    result = lex_fixings((0, 3), {0: 0}, ROTATE_C4)
    assert result == LexResult(False, [(3, 0), (2, 0)])


def test_fixed_point_on_the_mirror_is_skipped():
    refl = [0, 3, 2, 1]  # fixes vertex 0
    assert lex_fixings((0,), {0: 0}, refl) == LexResult(False, [])


# ------------------------------------------------------------ propagation


def keep(*vertices):
    return BranchState(fixed_to_keep=frozenset(vertices))


def test_propagate_collects_keep_fixings():
    res = propagate([ROTATE_C4], (0,), keep(0))
    assert not res.conflict
    assert res.state == keep(0, 3)


def test_propagate_detects_dominated_nodes():
    res = propagate([ROTATE_C4], (0, 3), keep(0).with_fixing(3, 1))
    assert res.conflict


def test_propagate_reaches_a_fixpoint_over_generators():
    gens = automorphism_generators(cycle(4))
    res = propagate(gens, (0, 1), keep(0, 1))
    assert not res.conflict
    # x0 = 0 heads every sequence, so each element's preimage of 0 is
    # kept too: the whole orbit of 0, all of C4
    assert res.state == keep(0, 1, 2, 3)


def test_propagate_without_generators_is_inert():
    state = BranchState(frozenset({0}), frozenset({1}))
    res = propagate([], (0, 1), state)
    assert not res.conflict and res.state == state


# ------------------------------------------------------------ orbits


def orbit_of(vertex, generators):
    """The vertex's orbit under the group the generators generate."""
    orbit = {vertex}
    frontier = [vertex]
    while frontier:
        v = frontier.pop()
        for perm in generators:
            if perm[v] not in orbit:
                orbit.add(perm[v])
                frontier.append(perm[v])
    return orbit


def test_cycle_orbit_is_everything():
    gens = automorphism_generators(cycle(4))
    assert orbit_of(0, gens) == {0, 1, 2, 3}


def test_path_orbit_pairs_the_ends():
    gens = automorphism_generators(path3())
    assert orbit_of(0, gens) == {0, 2}
    assert orbit_of(1, gens) == {1}


def test_costs_break_the_orbit():
    g = Graph(3, [(0, 1), (1, 2)], costs=[1.0, 1.0, 2.0])
    assert automorphism_generators(g) == []
    assert orbit_of(0, []) == {0}


# ------------------------------------------------------------ end to end


def _objective(inst, symmetry, monkeypatch):
    # the symmetry-free engine is the same solve with no automorphisms
    with monkeypatch.context() as m:
        if not symmetry:
            m.setattr(kvcut.engine, "automorphism_generators", lambda g: [])
        rep = solve(inst)
    return rep.status, rep.objective, rep.nodes


def test_symmetric_families_agree_with_symmetry_off(monkeypatch):
    two_paths = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    bipartite = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    cases = [
        Instance(cycle(8), 2),
        Instance(cycle(9), 3),
        Instance(bipartite, 3),
        Instance(two_paths, 4),
    ]
    for inst in cases:
        s_on, obj_on, _ = _objective(inst, True, monkeypatch)
        s_off, obj_off, _ = _objective(inst, False, monkeypatch)
        assert s_on == s_off == OPTIMAL, inst
        assert obj_on == pytest.approx(obj_off), inst


def test_random_instances_agree_with_symmetry_off(monkeypatch):
    rng = random.Random(3)
    for trial in range(12):
        g = gnp_graph(rng.randint(6, 10), 0.3, seed=600 + trial)
        inst = Instance(g, rng.randint(2, 4))
        s_on, obj_on, _ = _objective(inst, True, monkeypatch)
        s_off, obj_off, _ = _objective(inst, False, monkeypatch)
        assert s_on == s_off, inst
        if s_on == OPTIMAL:
            assert obj_on == pytest.approx(obj_off), inst


def test_cycle_node_counts_with_symmetry(capsys, monkeypatch):
    # soft expectation: the fixings shouldn't enlarge the tree
    for n in (8, 10, 12):
        inst = Instance(cycle(n), 2)
        _, obj_on, nodes_on = _objective(inst, True, monkeypatch)
        _, obj_off, nodes_off = _objective(inst, False, monkeypatch)
        assert obj_on == pytest.approx(obj_off) == 2.0
        marker = "<=" if nodes_on <= nodes_off else "> (not enforced)"
        print(f"C{n} k=2 nodes: sym {nodes_on} {marker} plain {nodes_off}")
