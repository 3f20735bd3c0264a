"""Outside-in tracing: spans recorded around kvcut's layer entry points.

The tracer replaces a function at the module attribute its caller looks
up (``from .pricing import price`` binds ``kvcut.engine.price``, so
patching ``kvcut.pricing.price`` alone would miss every call) and
restores the originals on ``uninstall``.  Nothing under ``src/kvcut`` is
edited.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for an operation root
    op: int = 0
    counts: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.op = 0

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ):
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if counts is not None:
                tracer.spans[index].counts = counts(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, out):
        """One JSON line per span: name, start, end, parent, operation, counts."""
        for s in self.spans:
            out.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.counts]) + "\n")


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics need."""
    import kvcut.engine
    import kvcut.lab
    import kvcut.master
    from kvcut import flow, lp

    def lp_counts(args, kwargs, res):
        return {
            "pivots": res.iterations,
            "probe": "iteration_limit" in kwargs,
            "limit_hit": res.status == lp.ITERATION_LIMIT,
        }

    # a probe is the only caller that passes iteration_limit
    tracer.wrap(lp.LinearProgram, "solve", "lp.solve", lp_counts)
    tracer.wrap(flow.FlowNetwork, "max_flow", "flow.max_flow")
    for module in (kvcut.engine, kvcut.lab):
        tracer.wrap(module, "price", "pricing.price", lambda a, k, r: {"hit": bool(r.columns)})
        tracer.wrap(module, "build_clique_family", "master.family")
        tracer.wrap(module, "init_rmp", "master.init_rmp")
    tracer.wrap(kvcut.master, "weighted_vertex_connectivity", "master.connectivity")
    tracer.wrap(kvcut.master.Rmp, "add_column", "master.add_column", lambda a, k, r: {"added": r})
    tracer.wrap(kvcut.engine, "disconnection_heuristic", "engine.heuristic")
    tracer.wrap(kvcut.engine, "weighted_vertex_connectivity", "engine.connectivity")
    tracer.wrap(
        kvcut.engine,
        "automorphism_generators",
        "graph.automorphisms",
        lambda a, k, r: {"generators": len(r)},
    )
    tracer.wrap(kvcut.engine, "propagate", "symmetry.propagate", lambda a, k, r: {"conflict": r.conflict})
    tracer.wrap(kvcut.engine, "screen", "instance.screen")


#: every key layer_metrics reports, zero when its layer did no work
LAYER_KEYS = (
    "lp.solves", "lp.pivots", "lp.s", "lp.limit_hits", "lp.probe_solves",
    "lp.probe_pivots", "lp.probe_s", "flow.calls", "flow.s", "pricing.calls",
    "pricing.s", "pricing.hits", "pricing.flows", "master.family_s",
    "master.rmp_init_s", "master.connectivity_s", "master.connectivity_flows",
    "master.add_calls", "master.added", "engine.heuristic_s",
    "engine.heuristic_flows", "engine.tree_self_s", "graph.automorphism_s",
    "graph.generators", "symmetry.propagate_calls", "symmetry.propagate_s",
    "symmetry.conflicts", "instance.screen_s", "lp.self_s", "flow.self_s",
    "pricing.self_s", "master.self_s", "engine.self_s", "graph.self_s",
    "symmetry.self_s", "instance.self_s", "lab.self_s",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span], scale: Sequence[float]) -> dict[str, float]:
    """Per-layer counts, seconds and self seconds over one pass's spans.

    ``scale[op]`` turns the seconds of operation ``op``'s spans into
    reference seconds, as the end-to-end times are.  A span's self time
    is its duration minus its direct children's; calls run on one
    thread, so children never overlap.
    """
    seconds = [s.seconds * scale[s.op] for s in spans]
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_s[s.parent] += seconds[i]

    def within(index: int, ancestor: str) -> bool:
        while index >= 0:
            if spans[index].name == ancestor:
                return True
            index = spans[index].parent
        return False

    m = dict.fromkeys(LAYER_KEYS, 0.0)

    def add(key: str, value: float):
        m[key] += value

    for i, s in enumerate(spans):
        self_s = seconds[i] - child_s[i]
        add(f"{_layer(s.name)}.self_s", self_s)
        c = s.counts
        if s.name == "lp.solve":
            add("lp.solves", 1)
            add("lp.pivots", c["pivots"])
            add("lp.s", seconds[i])
            add("lp.limit_hits", int(c["limit_hit"]))
            if c["probe"]:
                add("lp.probe_solves", 1)
                add("lp.probe_pivots", c["pivots"])
                add("lp.probe_s", seconds[i])
        elif s.name == "flow.max_flow":
            add("flow.calls", 1)
            add("flow.s", seconds[i])
            parent = s.parent
            if parent >= 0 and spans[parent].name == "pricing.price":
                add("pricing.flows", 1)
            if within(parent, "master.connectivity"):
                add("master.connectivity_flows", 1)
            if within(parent, "engine.heuristic"):
                add("engine.heuristic_flows", 1)
        elif s.name == "pricing.price":
            add("pricing.calls", 1)
            add("pricing.s", seconds[i])
            add("pricing.hits", int(c["hit"]))
        elif s.name == "master.family":
            add("master.family_s", seconds[i])
        elif s.name == "master.init_rmp":
            add("master.rmp_init_s", seconds[i])
        elif s.name == "master.connectivity":
            add("master.connectivity_s", seconds[i])
        elif s.name == "master.add_column":
            add("master.add_calls", 1)
            add("master.added", int(c["added"]))
        elif s.name == "engine.heuristic":
            add("engine.heuristic_s", seconds[i])
        elif s.name == "engine.solve":
            add("engine.tree_self_s", self_s)
        elif s.name == "graph.automorphisms":
            add("graph.automorphism_s", seconds[i])
            add("graph.generators", c["generators"])
        elif s.name == "symmetry.propagate":
            add("symmetry.propagate_calls", 1)
            add("symmetry.propagate_s", seconds[i])
            add("symmetry.conflicts", int(c["conflict"]))
        elif s.name == "instance.screen":
            add("instance.screen_s", seconds[i])

    def ratio(num: str, den: str, factor: float = 1.0) -> float:
        return factor * m[num] / m[den] if m[den] else 0.0

    m["lp.us_per_pivot"] = ratio("lp.s", "lp.pivots", 1e6)
    m["flow.us_per_call"] = ratio("flow.s", "flow.calls", 1e6)
    m["pricing.flows_per_call"] = ratio("pricing.flows", "pricing.calls")
    m["pricing.hit_ratio"] = ratio("pricing.hits", "pricing.calls")
    m["master.column_add_ratio"] = ratio("master.added", "master.add_calls")
    m["trace.spans"] = float(len(spans))
    return m
