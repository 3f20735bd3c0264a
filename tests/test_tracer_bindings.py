"""The benchmark's tracer finds every kvcut attribute it wraps.

``perfbench/spans.install`` looks each layer entry point up by name, so a
refactor that renames or drops one breaks the traced benchmark run.  This
catches it in the unit suite instead.
"""

from pathlib import Path

import pytest

from kvcut import engine, lab
from kvcut.graph import Graph, read_dimacs
from kvcut.instance import Instance

PERFBENCH = Path(__file__).parent.parent / "perfbench"
KARATE = Path(__file__).parent.parent / "src" / "kvcut" / "data" / "karate.col"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_tracer_installs_and_uninstalls(spans):
    original = engine.price
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # AttributeError when a wrapped name is gone
        assert engine.price is not original
    finally:
        tracer.uninstall()
    assert engine.price is original


@pytest.mark.parametrize(
    "run",
    [
        lambda: lab.lp_bound_extended(Instance(Graph(3, [(0, 1), (1, 2)]), 2)),
        lambda: engine.solve(
            Instance(Graph(5, [(i, (i + 1) % 5) for i in range(5)]), 2)
        ),
    ],
    ids=["lab", "engine"],
)
def test_tracer_records_pricing_calls(spans, run):
    # the wrapped price binding is the one column generation calls; a loop
    # moved to another module would zero the benchmark's pricing metrics
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        run()
    finally:
        tracer.uninstall()
    assert any(s.name == "pricing.price" for s in tracer.spans)


def test_tracer_tells_probes_apart(spans):
    # the tracer counts a solve as a strong-branching probe by its
    # iteration_limit keyword; karate k=5 branches at the root
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        rep = engine.solve(Instance(read_dimacs(KARATE).graph, 5))
    finally:
        tracer.uninstall()
    assert rep.nodes > 1
    solves = [s for s in tracer.spans if s.name == "lp.solve"]
    probes = [s for s in solves if s.counts["probe"]]
    assert probes and len(probes) < len(solves)
    assert not any(s.counts["limit_hit"] for s in probes)
