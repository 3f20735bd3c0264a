import itertools
import random

import numpy as np
import pytest

import kvcut.engine
from kvcut.engine import OPTIMAL, solve
from kvcut.graph import Graph, automorphism_generators
from kvcut.instance import Instance, gnp_graph
from kvcut.master import BranchState
from kvcut.symmetry import invert_permutation, propagate

from graphs import cycle, hypercube, path3, petersen


SWAP_ENDS = [2, 1, 0]  # the P3 automorphism a <-> c
ROTATE_C4 = [1, 2, 3, 0]


def keep(*vertices):
    return BranchState(fixed_to_keep=frozenset(vertices))


def test_invert_permutation():
    assert invert_permutation([1, 2, 3, 0]) == [3, 0, 1, 2]
    assert invert_permutation(SWAP_ENDS) == SWAP_ENDS


# ------------------------------------------------------------ lex scanning


def test_leading_zero_forces_the_mirror_to_zero():
    res = propagate([SWAP_ENDS], (0,), keep(0))
    assert not res.conflict and res.state == keep(0, 2)


def test_strictly_greater_prefix_deduces_nothing():
    state = BranchState(frozenset({0}), frozenset({2}))
    res = propagate([SWAP_ENDS], (0, 2), state)
    assert not res.conflict and res.state == state


def test_zero_against_one_is_a_conflict():
    # gamma^-1(i1) is the second branching variable, already fixed to 1
    res = propagate([[1, 0, 2]], (0, 1), keep(0).with_fixing(1, 1))
    assert res.conflict


def test_scan_stops_at_the_first_undecided_pair():
    # x0 = 1 against a free x3 leaves the order open, so the scan stops
    # there: read on, the next pair (x1 = 0 against x0 = 1) would be a
    # conflict, and x3 stays free
    state = keep(1).with_fixing(0, 1)
    res = propagate([ROTATE_C4], (0, 1), state)
    assert not res.conflict and res.state == state


def test_forcings_feed_later_positions():
    # the first element forces x3 = 0 behind x0 = 0; the second reads that
    # keep as the mirror of its second position (0 against 0, go on) and
    # forces x4 = 0 at the third.  Had x3 been free, the second scan would
    # have forced it and gone on just the same, so the order of the
    # elements does not matter and one scan each is the fixpoint
    first = [3, 1, 2, 0, 4]
    second = [0, 3, 4, 1, 2]
    assert invert_permutation(first)[0] == 3
    assert invert_permutation(second)[1:3] == [3, 4]
    for gens in ([first, second], [second, first]):
        res = propagate(gens, (0, 1, 2), keep(0, 1, 2))
        assert not res.conflict and res.state == keep(0, 1, 2, 3, 4)


def test_fixed_point_on_the_mirror_is_skipped():
    refl = [0, 3, 2, 1]  # fixes vertex 0
    assert propagate([refl], (0,), keep(0)).state == keep(0)


# ------------------------------------------------------------ propagation


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


def _lex_feasible(xs, generators, seq):
    """Rows of the 0/1 matrix ``xs`` that meet every lex constraint."""
    ok = np.ones(len(xs), dtype=bool)
    seq = list(seq)
    for perm in generators:
        inv = invert_permutation(perm)
        diff = xs[:, seq] - xs[:, [inv[v] for v in seq]]
        nonzero = diff != 0
        first = np.argmax(nonzero, axis=1)
        decided = nonzero.any(axis=1)
        ok &= ~decided | (diff[np.arange(len(xs)), first] > 0)
    return ok


@pytest.mark.parametrize(
    "name, g",
    [("P3", path3()), ("C6", cycle(6)), ("Q3", hypercube(3)), ("Petersen", petersen())],
)
def test_propagate_is_sound_against_brute_force(name, g):
    # every 0/1 vector that agrees with the branch values and meets every
    # lex constraint must agree with the propagated state; on a conflict
    # no such vector may exist
    gens = automorphism_generators(g)
    assert gens, name
    xs = np.array(list(itertools.product((0, 1), repeat=g.n)), dtype=np.int8)
    rng = random.Random(name)
    for _ in range(60):
        seq = rng.sample(range(g.n), rng.randint(1, min(6, g.n)))
        cut = frozenset(v for v in seq if rng.random() < 0.5)
        state = BranchState(cut, frozenset(seq) - cut)
        branch = np.all(xs[:, seq] == [int(v in cut) for v in seq], axis=1)
        feasible = xs[branch & _lex_feasible(xs, gens, seq)]
        res = propagate(gens, seq, state)
        if res.conflict:
            assert len(feasible) == 0, (name, seq, state)
            continue
        assert res.state.fixed_to_cut == cut
        for v in res.state.fixed_to_keep:
            assert not feasible[:, v].any(), (name, seq, state, v)


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
            m.setattr(kvcut.engine, "automorphism_generators", lambda g, deadline: [])
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
