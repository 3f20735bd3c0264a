"""Problem instances: a costed graph plus the target component count k.

Also home to every source of randomness in the package.  All random draws
run through a splitmix64 stream seeded explicitly, so instances, weights and
the whole benchmark harness are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .graph import (
    Graph,
    StableSetResult,
    UNKNOWN,
    YES,
    connected_components,
    has_stable_set_of_size,
)

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream; tiny, stateless and portable."""
    x = seed & _MASK64
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield (z ^ (z >> 31)) & _MASK64


def random_costs(n: int, seed: int) -> list[float]:
    """Integer costs drawn uniformly from {1, ..., 10}, one per vertex in order."""
    rng = splitmix64(seed)
    return [float(1 + next(rng) % 10) for _ in range(n)]


def make_weighted(g: Graph, seed: int) -> Graph:
    return g.with_costs(random_costs(g.n, seed))


def gnp_graph(n: int, p: float, seed: int, name: str = "") -> Graph:
    """Erdos-Renyi G(n, p); pairs are drawn in lexicographic order."""
    rng = splitmix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if next(rng) / 2.0**64 < p:
                edges.append((u, v))
    return Graph(n, edges, name=name or f"gnp-{n}-{p}-{seed}")


@dataclass
class Instance:
    graph: Graph
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")

    @property
    def name(self) -> str:
        return self.graph.name


# screening outcomes
TRIVIAL = "trivial"
INFEASIBLE = "infeasible"
FEASIBLE = "feasible"
UNDETERMINED = "undetermined"


@dataclass
class ScreenResult:
    status: str
    num_components: int
    stable_set: Optional[list[int]] = None  # witness when FEASIBLE


def screen(inst: Instance) -> ScreenResult:
    """Cheap dispatch before the solver proper.

    TRIVIAL: the graph already has >= k components, the empty cut is optimal.
    INFEASIBLE: no stable set of size k exists, hence no k-vertex cut.
    FEASIBLE: a size-k stable set was found (deleting everything else is a
    feasible cut), so an optimum exists.
    UNDETERMINED: the stable-set search ran out of budget either way; the
    solver still decides correctly, just without the early exit.
    """
    comps = connected_components(inst.graph)
    if len(comps) >= inst.k:
        return ScreenResult(TRIVIAL, len(comps))
    res: StableSetResult = has_stable_set_of_size(inst.graph, inst.k)
    if res.status == YES:
        return ScreenResult(FEASIBLE, len(comps), res.stable_set)
    if res.status == UNKNOWN:
        return ScreenResult(UNDETERMINED, len(comps))
    return ScreenResult(INFEASIBLE, len(comps))


# ---------------------------------------------------------------------------
# weight files:  "n <vertex-id> <cost>" per line, 1-based ids, c-comments ok
# ---------------------------------------------------------------------------


class WeightFileError(ValueError):
    pass


def parse_weights(text: str, n: int) -> list[float]:
    costs: list[Optional[float]] = [None] * n
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "n" or len(parts) != 3:
            raise WeightFileError(f"line {ln}: expected 'n <vertex> <cost>', got {line!r}")
        try:
            v = int(parts[1])
            c = float(parts[2])
        except ValueError:
            raise WeightFileError(f"line {ln}: bad number in {line!r}") from None
        if not (1 <= v <= n):
            raise WeightFileError(f"line {ln}: vertex {v} out of range 1..{n}")
        if costs[v - 1] is not None:
            raise WeightFileError(f"line {ln}: vertex {v} assigned twice")
        if not math.isfinite(c):
            raise WeightFileError(f"line {ln}: cost {parts[2]!r} is not finite")
        if c < 0:
            raise WeightFileError(f"line {ln}: negative cost")
        costs[v - 1] = c
    missing = [i + 1 for i, c in enumerate(costs) if c is None]
    if missing:
        raise WeightFileError(f"no cost given for vertices {missing[:5]}{'...' if len(missing) > 5 else ''}")
    return [float(c) for c in costs]


def format_weights(costs, comment: str = "") -> str:
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"c {row}".rstrip())
    for i, c in enumerate(costs, start=1):
        c_str = str(int(c)) if float(c).is_integer() else repr(float(c))
        lines.append(f"n {i} {c_str}")
    return "\n".join(lines) + "\n"
