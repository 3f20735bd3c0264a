import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcut.engine import solve
from kvcut.graph import YES, Graph, has_stable_set_of_size
from kvcut.instance import (
    INFEASIBLE,
    TRIVIAL,
    Instance,
    format_weights,
    gnp_graph,
    make_weighted,
    parse_weights,
    random_costs,
    screen,
)
from kvcut.oracle import Infeasible, brute_force


def test_random_costs_range_and_determinism():
    a = random_costs(5, 42)
    b = random_costs(5, 42)
    assert a == b
    assert all(1 <= c <= 10 and c == int(c) for c in a)
    assert random_costs(5, 43) != a


def test_random_costs_mean():
    # law-of-large-numbers sanity on the pinned generator; the exact
    # value 5.416 is frozen from a reference run
    costs = random_costs(1000, 7)
    assert abs(sum(costs) / 1000 - 5.416) < 1e-12
    assert 5.0 <= sum(costs) / 1000 <= 6.0


def test_make_weighted_keeps_structure():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)], name="p4")
    w = make_weighted(g, seed=9)
    assert w.edges == g.edges and w.n == g.n
    assert w.costs == random_costs(4, 9)


def test_instance_requires_k_at_least_two():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Instance(g, 1)


def test_screen_trivial_on_isolated_vertices():
    inst = Instance(Graph(5, []), 5)
    assert screen(inst) == TRIVIAL
    # the engine offers the empty cut, which counts the components itself
    assert solve(inst).num_components == 5


def test_screen_infeasible_on_k5():
    g = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert screen(Instance(g, 2)) == INFEASIBLE


def test_screen_feasible_on_karate_k20():
    from pathlib import Path

    from kvcut.graph import read_dimacs

    data = Path(__file__).parent.parent / "src" / "kvcut" / "data"
    g = read_dimacs(data / "karate.col").graph
    # a stable set of 20 exists, so the screen leaves the instance to the tree
    assert screen(Instance(g, 20)) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_screen_never_feasible_when_oracle_says_infeasible(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    g = gnp_graph(n, rng.uniform(0.3, 0.9), seed=seed)
    k = rng.randint(2, n)
    inst = Instance(g, k)
    status = screen(inst)
    oracle_infeasible = isinstance(brute_force(inst), Infeasible)
    if status == TRIVIAL:
        assert not oracle_infeasible
    if status == INFEASIBLE:
        assert oracle_infeasible
    # None makes no claim; a stable set of size k it leaves to the tree
    # still proves a cut exists
    if status is None and has_stable_set_of_size(g, k).status == YES:
        assert not oracle_infeasible


def test_weight_file_roundtrip():
    costs = [3.0, 1.0, 7.0]
    text = format_weights(costs, comment="three vertices")
    assert parse_weights(text, 3) == costs


def test_weight_file_rejects_garbage():
    with pytest.raises(ValueError):
        parse_weights("n 1 2\nn 9 4\n", 3)  # vertex id out of range
    with pytest.raises(ValueError):
        parse_weights("n 1 2\n", 3)  # vertices 2 and 3 missing


@pytest.mark.parametrize("cost", ["nan", "inf", "-inf"])
def test_weight_file_rejects_non_finite_costs(cost):
    with pytest.raises(ValueError, match=f"line 2: cost '{cost}' is not finite"):
        parse_weights(f"n 1 2\nn 2 {cost}\nn 3 1\n", 3)
