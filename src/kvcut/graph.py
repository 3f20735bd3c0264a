"""Undirected vertex-costed graphs and the combinatorial helpers the solver needs.

Vertices are 0-based integers internally; the DIMACS-style file format is
1-based.  Edges are kept in first-seen order because the clique-family
construction iterates them in input order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class DimacsError(ValueError):
    """Raised for malformed instance files."""


def check_deadline(deadline: Optional[float]) -> None:
    """The one clock test: ``TimeoutError`` once ``time.monotonic()`` passes ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError


class Graph:
    """Simple undirected graph with a positive cost per vertex.

    Parallel edges and self-loops are not representable; the parser drops
    them (with counters) before construction.
    """

    __slots__ = ("n", "edges", "adj", "adj_set", "costs", "name")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        costs: Optional[Sequence[float]] = None,
        name: str = "",
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.name = name
        self.edges: list[tuple[int, int]] = []
        self.adj_set: list[set[int]] = [set() for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            self.edges.append(e)
            self.adj_set[u].add(v)
            self.adj_set[v].add(u)
        self.adj: list[list[int]] = [sorted(s) for s in self.adj_set]
        if costs is None:
            self.costs = [1.0] * n
        else:
            if len(costs) != n:
                raise ValueError("cost vector length does not match vertex count")
            if not all(math.isfinite(c) for c in costs):
                raise ValueError("vertex costs must be finite")
            if any(c < 0 for c in costs):
                raise ValueError("vertex costs must be nonnegative")
            self.costs = [float(c) for c in costs]

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj_set[u]

    def degree(self, v: int) -> int:
        return len(self.adj_set[v])

    def total_cost(self) -> float:
        return sum(self.costs)

    def with_costs(self, costs: Sequence[float]) -> "Graph":
        """Copy of this graph with a different cost vector."""
        return Graph(self.n, list(self.edges), costs, name=self.name)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the list mapping new ids back to old ids."""
        keep = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(keep)}
        edges = [
            (pos[u], pos[v]) for (u, v) in self.edges if u in pos and v in pos
        ]
        sub = Graph(len(keep), edges, [self.costs[v] for v in keep])
        return sub, keep

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m}, name={self.name!r})"


@dataclass
class ParseResult:
    graph: Graph
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0
    unknown_lines: int = 0
    declared_edges: int = 0

    def warnings(self) -> list[str]:
        out = []
        if self.self_loops_dropped:
            out.append(f"dropped {self.self_loops_dropped} self-loop(s)")
        if self.duplicates_dropped:
            out.append(f"dropped {self.duplicates_dropped} duplicate edge(s)")
        if self.unknown_lines:
            out.append(f"ignored {self.unknown_lines} unrecognized line(s)")
        if self.declared_edges and self.declared_edges != self.graph.m:
            out.append(
                f"header declared {self.declared_edges} edges, file defines {self.graph.m}"
            )
        return out


def parse_dimacs(text: str, name: str = "") -> ParseResult:
    """Parse the DIMACS edge format: ``c`` comments, ``p edge n m``, ``e u v``.

    Vertex ids in the file are 1-based.  Self-loops and repeated edges are
    dropped (counted in the result); unknown line types are ignored with a
    counter so weight-annotated files from other tools still load.
    """
    n = -1
    declared = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    loops = dups = unknown = 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n >= 0:
                raise DimacsError(f"line {ln}: repeated problem line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise DimacsError(f"line {ln}: malformed problem line {line!r}")
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"line {ln}: bad counts in {line!r}") from None
            if n < 0 or declared < 0:
                raise DimacsError(f"line {ln}: negative counts")
        elif parts[0] == "e":
            if n < 0:
                raise DimacsError(f"line {ln}: edge before problem line")
            if len(parts) != 3:
                raise DimacsError(f"line {ln}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise DimacsError(f"line {ln}: bad endpoints in {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"line {ln}: endpoint out of range in {line!r}")
            if u == v:
                loops += 1
                continue
            a, b = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if (a, b) in seen:
                dups += 1
                continue
            seen.add((a, b))
            edges.append((a, b))
        else:
            unknown += 1
    if n < 0:
        raise DimacsError("missing problem line")
    return ParseResult(
        Graph(n, edges, name=name),
        self_loops_dropped=loops,
        duplicates_dropped=dups,
        unknown_lines=unknown,
        declared_edges=declared,
    )


def read_dimacs(path) -> ParseResult:
    import os

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_dimacs(text, name=os.path.splitext(os.path.basename(str(path)))[0])


def write_dimacs(g: Graph, comment: str = "") -> str:
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"c {row}".rstrip())
    lines.append(f"p edge {g.n} {g.m}")
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def connected_components(g: Graph, within: Optional[Iterable[int]] = None) -> list[list[int]]:
    """Connected components, each a sorted vertex list, ordered by minimum vertex.

    ``within`` restricts to an induced subgraph without building it.
    """
    if within is None:
        alive = [True] * g.n
        universe = range(g.n)
    else:
        alive = [False] * g.n
        wl = list(within)
        for v in wl:
            alive[v] = True
        universe = sorted(set(wl))
    comps = []
    visited = [False] * g.n
    for start in universe:
        if visited[start] or not alive[start]:
            continue
        stack = [start]
        visited[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if alive[w] and not visited[w]:
                    visited[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    vs = list(set(vertices))
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if not g.has_edge(vs[i], vs[j]):
                return False
    return True


def components_without(g: Graph, cut: Iterable[int]) -> list[list[int]]:
    """The components left after deleting ``cut``, in ``connected_components`` form."""
    gone = set(cut)
    return connected_components(g, within=[v for v in range(g.n) if v not in gone])


def is_k_vertex_cut(g: Graph, cut: Iterable[int], k: int) -> bool:
    """Does deleting ``cut`` leave at least ``k`` connected components?"""
    return len(components_without(g, cut)) >= k


# ---------------------------------------------------------------------------
# stable sets
# ---------------------------------------------------------------------------

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

#: backtrack nodes before the stable-set search answers UNKNOWN
STABLE_SET_NODE_BUDGET = 2_000_000


@dataclass
class StableSetResult:
    status: str  # YES / NO / UNKNOWN
    stable_set: Optional[list[int]] = None  # witness when status == YES


def _greedy_stable_set(g: Graph, alive: set[int]) -> list[int]:
    """Min-degree greedy independent set on the induced subgraph."""
    live = set(alive)
    deg = {v: sum(1 for w in g.adj_set[v] if w in live) for v in live}
    picked = []
    while live:
        v = min(live, key=lambda u: (deg[u], u))
        picked.append(v)
        removed = {v} | (g.adj_set[v] & live)
        live -= removed
        for r in removed:
            for w in g.adj_set[r]:
                if w in live:
                    deg[w] -= 1
    return sorted(picked)


def has_stable_set_of_size(g: Graph, k: int) -> StableSetResult:
    """Exact branch and bound for "does alpha(G) >= k?".

    Grows the largest stable set found, starting from a greedy one, and
    stops as soon as it reaches ``k``.  Returns YES with a witness, NO
    when the search space was exhausted, or UNKNOWN when
    STABLE_SET_NODE_BUDGET nodes ran out first.
    """
    if k <= 0:
        return StableSetResult(YES, [])
    if k > g.n:
        return StableSetResult(NO)
    best = _greedy_stable_set(g, set(range(g.n)))
    nodes = 0
    # depth first on an explicit stack of (candidates, current) frames:
    # a long run of degree-1 takes must not recurse once per vertex
    stack = [(list(range(g.n)), [])]
    while stack and len(best) < k:
        candidates, current = stack.pop()
        nodes += 1
        if nodes > STABLE_SET_NODE_BUDGET:
            return StableSetResult(UNKNOWN)
        if len(current) > len(best):
            best = current
        if not candidates or len(current) + len(candidates) <= len(best):
            continue
        cand = set(candidates)
        # a vertex with at most one live neighbor can always be taken;
        # otherwise branch on the max-degree candidate, pushing the child
        # that discards it below the one that includes it
        v = next((u for u in candidates if len(g.adj_set[u] & cand) <= 1), None)
        if v is None:
            v = max(candidates, key=lambda u: (len(g.adj_set[u] & cand), -u))
            stack.append(([w for w in candidates if w != v], current))
        rest = [w for w in candidates if w != v and w not in g.adj_set[v]]
        stack.append((rest, current + [v]))
    if len(best) >= k:
        return StableSetResult(YES, sorted(best[:k]))
    return StableSetResult(NO)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

Permutation = tuple  # tuple[int, ...], image[v] = gamma(v)

#: the automorphism search stops after this many refinements ...
AUTOMORPHISM_NODE_BUDGET = 1_000_000
#: ... and returns at most this many group elements
MAX_GENERATORS = 64


def _refine_colors(g: Graph, colors: Sequence[int]) -> list[int]:
    """Coarsest equitable refinement of ``colors``, named canonically.

    Each round renames every vertex by the rank of its (colour, sorted
    neighbour colours) signature until no cell splits.  Ranks keep the
    order of the old colours, and relabelling the graph permutes the
    result the same way.
    """
    cells = len(set(colors))
    while True:
        sigs = [
            (c, tuple(sorted([colors[w] for w in nbrs])))
            for c, nbrs in zip(colors, g.adj)
        ]
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        colors = [rank[sig] for sig in sigs]
        if len(rank) == cells:
            return colors
        cells = len(rank)


def _individualize(g: Graph, colors: list[int], v: int) -> list[int]:
    # colour n outranks every cell and refinement keeps that order, so the
    # i-th vertex individualized on a path of depth d ends with colour
    # n - d + i: matching leaves pair up their paths' vertices
    return _refine_colors(g, [g.n if u == v else c for u, c in enumerate(colors)])


def is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    return (
        sorted(perm) == list(range(g.n))
        and all(g.costs[perm[v]] == c for v, c in enumerate(g.costs))
        and all(perm[v] in g.adj_set[perm[u]] for u, v in g.edges)
    )


def automorphism_generators(
    g: Graph, deadline: Optional[float] = None
) -> list[Permutation]:
    """Cost- and adjacency-preserving automorphisms by individualization–refinement.

    A first path individualizes a vertex of the smallest non-singleton
    cell until the colouring is discrete; its vertices are the base.  For
    each base vertex u, last to first, and each w in u's cell outside u's
    orbit so far, a search under "u -> w" looks for a leaf matching the
    first path's leaf (McKay & Piperno 2014).  One such coset
    representative per orbit point generates the whole group (Sims 1970).
    Returned are the group's non-identity elements, breadth first from
    the generators, up to MAX_GENERATORS: products of generators, each of
    which ``is_automorphism`` accepted.  A graph that spends
    AUTOMORPHISM_NODE_BUDGET refinements yields the subgroup generated so
    far, which keeps symmetry propagation sound; a search still running
    at ``deadline`` (a ``time.monotonic()`` value) raises ``TimeoutError``.
    """
    n = g.n
    rank = {c: r for r, c in enumerate(sorted(set(g.costs)))}
    levels = [_refine_colors(g, [rank[c] for c in g.costs])]
    targets: list[int] = []  # the colour of the cell split at each level
    while len(set(colors := levels[-1])) < n:
        sizes = {c: colors.count(c) for c in set(colors)}
        targets.append(min((s, c) for c, s in sizes.items() if s > 1)[1])
        levels.append(_individualize(g, colors, colors.index(targets[-1])))
    shapes = [sorted(colors) for colors in levels]
    ticks = itertools.count(1)

    def search(colors: list[int], depth: int, cands: Iterable[int]):
        """An automorphism whose path goes on from ``colors`` through ``cands``."""
        for x in cands:
            if next(ticks) > AUTOMORPHISM_NODE_BUDGET:
                return None
            check_deadline(deadline)
            nxt = _individualize(g, colors, x)
            if sorted(nxt) != shapes[depth + 1]:
                continue
            if depth + 1 < len(targets):
                cell = [v for v, c in enumerate(nxt) if c == targets[depth + 1]]
                if perm := search(nxt, depth + 1, cell):
                    return perm
                continue
            at = sorted(range(n), key=nxt.__getitem__)  # the vertex of each colour
            if is_automorphism(g, perm := tuple(at[c] for c in levels[-1])):
                return perm
        return None

    gens: list[Permutation] = []
    for depth in reversed(range(len(targets))):
        colors = levels[depth]
        orbit = {colors.index(targets[depth])}  # deeper generators fix the base vertex
        for w in range(n):
            if colors[w] == targets[depth] and w not in orbit:
                if perm := search(colors, depth, [w]):
                    gens.append(perm)
                    while more := {p[v] for p in gens for v in orbit} - orbit:
                        orbit |= more

    group = [tuple(range(n))]
    for e in group:  # breadth first: the list grows while it is scanned
        for s in gens:
            if len(group) > MAX_GENERATORS:
                break
            if (p := tuple(map(s.__getitem__, e))) not in group:
                group.append(p)
    return group[1:]
