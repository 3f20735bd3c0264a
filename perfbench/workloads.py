"""The three workloads, their reference answers, and the result checks.

Every operation calls kvcut's public API with a built ``Instance`` and
is checked on return; a failed check is classified as an exception, a
wrong answer or a time limit.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from kvcut.engine import INFEASIBLE_STATUS, OPTIMAL, TIME_LIMIT, SolveOptions, solve
from kvcut.graph import Graph, is_k_vertex_cut, read_dimacs
from kvcut.instance import Instance, gnp_graph, make_weighted
from kvcut.lab import bound_report
from kvcut.oracle import Infeasible, brute_force

EXCEPTION = "exception"
WRONG = "wrong answer"
TIMED_OUT = "time limit"

#: objectives and bounds are compared with this absolute tolerance
OBJ_TOL = 1e-9
BOUND_TOL = 1e-6
#: a single operation taking longer than this counts as a time-limit failure
OP_TIME_LIMIT = 60.0

# The paper's table on the shipped graphs, unit costs: (graph, k, optimum).
# Same optima as tests/test_acceptance.py.
PUBLISHED = [
    ("karate", 3, 1.0),
    ("karate", 5, 2.0),
    ("karate", 10, 4.0),
    ("karate", 15, 6.0),
    ("karate", 20, 11.0),
    ("myciel4", 5, 7.0),
    ("myciel4", 10, 12.0),
    ("bcspwr01", 5, 7.0),
    ("bcspwr01", 10, 16.0),
]

# Weighted G(n, p): (n, p, seed, k, optimum).  The seed draws the graph
# and, through make_weighted, its costs.  Chosen for shallow trees (all
# but the last solve at the root) with pricing at roughly half the time.
WEIGHTED_GNP = [
    (30, 0.1, 3, 3, 6.0),
    (30, 0.1, 2, 5, 7.0),
    (30, 0.1, 3, 5, 12.0),
    (30, 0.1, 3, 6, 14.0),
    (35, 0.1, 3, 3, 7.0),
    (35, 0.1, 2, 4, 1.0),
    (35, 0.1, 2, 5, 5.0),
    (35, 0.1, 2, 6, 9.0),
    (35, 0.1, 3, 6, 19.0),
    (40, 0.1, 2, 5, 11.0),
    (40, 0.1, 3, 6, 17.0),
    (45, 0.08, 2, 4, 6.0),
    (35, 0.1, 3, 4, 11.0),
]

# Root bounds: (graph, k, optimum, reference value per formulation).
# The weighted sparse gnp-40 root takes the longest warm column-generation
# runs of the set; sparser roots that stall or come back wrong are kept
# out of the timed runs (README.md, known_gaps.py).
ROOT_BOUNDS = [
    ("karate", 2, 1.0, {
        "extended-cover": 5 / 13, "extended-partition": 5 / 13,
        "extended-edges": 5 / 13, "natural": 5 / 13, "compact": 0.0,
    }),
    ("karate", 4, 2.0, {
        "extended-cover": 15 / 13, "extended-partition": 15 / 13,
        "extended-edges": 15 / 13, "natural": 15 / 13, "compact": 0.0,
    }),
    ("myciel4", 3, 5.0, {
        "extended-cover": 46 / 21, "extended-partition": 46 / 21,
        "extended-edges": 46 / 21, "natural": 46 / 21, "compact": 0.0,
    }),
    ("bcspwr01", 2, 2.0, {
        "extended-cover": 1.5, "extended-partition": 1.5,
        "extended-edges": 39 / 37, "natural": 39 / 37, "compact": 0.0,
    }),
    ("bcspwr01", 4, 5.0, {
        "extended-cover": 4.8, "extended-partition": 81 / 17,
        "extended-edges": 117 / 37, "natural": 117 / 37, "compact": 0.0,
    }),
    ("gnp-40-0.08-3", 4, 5.0, {
        "extended-cover": 5.0, "extended-partition": 5.0,
        "extended-edges": 5.0, "natural": 5.0, "compact": 0.0,
    }),
]

#: small seeded instances per weighted-gnp run, solved untimed and
#: checked against the brute-force oracle
FRESH_COUNT = 4


@dataclass
class Failure:
    label: str
    kind: str
    detail: str


def load_graph(data_dir: Path, name: str) -> Graph:
    """A shipped graph with unit costs, or ``gnp-<n>-<p>-<seed>`` with seeded costs."""
    if name.startswith("gnp-"):
        _, n, p, seed = name.split("-")
        return make_weighted(gnp_graph(int(n), float(p), int(seed)), int(seed))
    return read_dimacs(data_dir / f"{name}.col").graph


class SolveOp:
    """One ``engine.solve`` to a proven optimum."""

    root_span = "engine.solve"

    def __init__(self, label: str, inst: Instance, optimum: Optional[float]):
        self.label = label
        self.inst = inst
        self.optimum = optimum

    def run(self):
        return solve(self.inst, SolveOptions(time_limit=OP_TIME_LIMIT))

    def check(self, rep) -> Optional[Failure]:
        g, k = self.inst.graph, self.inst.k
        if rep.status == TIME_LIMIT:
            return Failure(self.label, TIMED_OUT, f"stopped after {rep.total_seconds:.1f}s")
        problems = []
        if rep.status != OPTIMAL:
            problems.append(f"status {rep.status}")
        else:
            cost = sum(g.costs[v] for v in rep.cut)
            if not is_k_vertex_cut(g, rep.cut, k):
                problems.append(f"cut {rep.cut} leaves fewer than {k} components")
            if abs(cost - rep.objective) > OBJ_TOL:
                problems.append(f"objective {rep.objective} != cut cost {cost}")
            if rep.best_bound is None or rep.best_bound > rep.objective + OBJ_TOL:
                problems.append(f"bound {rep.best_bound} above objective {rep.objective}")
            if self.optimum is not None and abs(rep.objective - self.optimum) > OBJ_TOL:
                problems.append(f"objective {rep.objective}, reference {self.optimum}")
        return Failure(self.label, WRONG, "; ".join(problems)) if problems else None


class BoundOp:
    """One ``lab.bound_report`` over every clique family."""

    root_span = "lab.bound_report"

    def __init__(self, label, inst, optimum, reference):
        self.label = label
        self.inst = inst
        self.optimum = optimum
        self.reference = reference

    def run(self):
        return bound_report(self.inst, optimum=self.optimum)

    def check(self, report) -> Optional[Failure]:
        values = {key: b.value for key, b in report.bounds.items()}
        problems = []
        if set(values) != set(self.reference):
            problems.append(f"formulations {sorted(values)}")
        else:
            natural = values["natural"]
            if abs(values["extended-edges"] - natural) > BOUND_TOL:
                problems.append(f"edges {values['extended-edges']} != natural {natural}")
            for key, value in values.items():
                if key.startswith("extended-") and value < natural - BOUND_TOL:
                    problems.append(f"{key} {value} < natural {natural}")
            for key, value in values.items():
                if not value <= self.optimum + BOUND_TOL:
                    problems.append(f"{key} {value} above optimum {self.optimum}")
                if not abs(value - self.reference[key]) <= BOUND_TOL:
                    problems.append(f"{key} {value}, reference {self.reference[key]}")
        return Failure(self.label, WRONG, "; ".join(problems)) if problems else None


class OracleOp(SolveOp):
    """A small seeded solve whose reference comes from the brute-force oracle."""

    def check(self, rep) -> Optional[Failure]:
        exact = brute_force(self.inst)
        if isinstance(exact, Infeasible):
            if rep.status == INFEASIBLE_STATUS:
                return None
            return Failure(self.label, WRONG, f"status {rep.status}, oracle says infeasible")
        self.optimum = exact.objective
        return super().check(rep)


def build(name: str, data_dir: Path) -> list[Any]:
    """The timed operations of one workload, in their canonical order."""
    if name == "published":
        graphs = {g: load_graph(data_dir, g) for g, _, _ in PUBLISHED}
        return [SolveOp(f"{g} k={k}", Instance(graphs[g], k), opt) for g, k, opt in PUBLISHED]
    if name == "weighted-gnp":
        return [
            SolveOp(
                f"gnp-{n}-{p}-{seed} k={k}",
                Instance(make_weighted(gnp_graph(n, p, seed), seed), k),
                opt,
            )
            for n, p, seed, k, opt in WEIGHTED_GNP
        ]
    if name == "root-bounds":
        graphs = {g: load_graph(data_dir, g) for g, *_ in ROOT_BOUNDS}
        return [
            BoundOp(f"{g} k={k}", Instance(graphs[g], k), opt, ref)
            for g, k, opt, ref in ROOT_BOUNDS
        ]
    raise ValueError(f"unknown workload {name!r}")


def fresh(name: str, seed: int) -> list[OracleOp]:
    """Seeded weighted G(n, p) instances small enough for the oracle."""
    if name != "weighted-gnp":
        return []
    rng = random.Random(seed)
    ops = []
    for _ in range(FRESH_COUNT):
        n, p, k = rng.randint(10, 12), rng.choice((0.2, 0.3)), rng.randint(2, 4)
        gseed = rng.randrange(2**32)
        g = make_weighted(gnp_graph(n, p, gseed), gseed)
        ops.append(OracleOp(f"fresh gnp-{n}-{p}-{gseed} k={k}", Instance(g, k), None))
    return ops


def lab_metrics(results, scale) -> dict[str, float]:
    """Per-pass lab counters taken from the returned FormulationBounds.

    ``results[i]`` is operation i's result and ``scale[i]`` turns its
    seconds into reference seconds; results that are no BoundReport are
    skipped.
    """
    m = dict.fromkeys(
        ("lab.extended_s", "lab.extended_pivots", "lab.natural_s",
         "lab.natural_cuts", "lab.compact_s", "lab.compact_pivots"),
        0.0,
    )
    for report, factor in zip(results, scale):
        if not hasattr(report, "bounds"):
            continue
        for key, b in report.bounds.items():
            if key.startswith("extended-"):
                m["lab.extended_s"] += b.seconds * factor
                m["lab.extended_pivots"] += b.iterations
            elif key == "natural":
                m["lab.natural_s"] += b.seconds * factor
                m["lab.natural_cuts"] += b.cuts or 0
            else:
                m["lab.compact_s"] += b.seconds * factor
                m["lab.compact_pivots"] += b.iterations
    return m

