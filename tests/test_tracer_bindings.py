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
MYCIEL4 = Path(__file__).parent.parent / "src" / "kvcut" / "data" / "myciel4.col"


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


#: the wrapped names every column-generation run reaches, the bound lab's too
_CG_SPANS = {
    "master.family", "master.init_rmp", "master.add_column", "lp.solve",
    "flow.max_flow", "pricing.price",
}
#: the set-up and tree layers only a solve reaches
_SOLVE_SPANS = {
    "master.connectivity", "engine.heuristic", "graph.automorphisms",
    "symmetry.propagate", "instance.screen",
}


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda inst: lab.bound_report(inst), _CG_SPANS),
        (lambda inst: engine.solve(inst), _CG_SPANS | _SOLVE_SPANS),
    ],
    ids=["lab", "engine"],
)
def test_tracer_records_every_layer_a_run_reaches(spans, run, expected):
    # published myciel4 at k=5 branches (7 nodes) and propagates symmetry
    # at every node below the root, so the solve reaches every layer; a
    # binding that column generation or the search no longer calls by
    # its wrapped name would zero that layer's metrics
    inst = Instance(read_dimacs(MYCIEL4).graph, 5)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        run(inst)
    finally:
        tracer.uninstall()
    assert expected <= {s.name for s in tracer.spans}
