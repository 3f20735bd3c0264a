"""Symmetry fixings along the branching path.

A cost-preserving graph automorphism maps feasible deletion sets to
feasible deletion sets of equal cost, so the solver may restrict the
search to solutions that are lexicographically largest along the
sequence of branching variables: for every automorphism ``perm`` we
enforce

    (x[i1], ..., x[ij])  >=_lex  (x[perm^-1(i1)], ..., x[perm^-1(ij)])

where i1..ij are the variables branched on so far, in branching order.
Scanning the sequence while the two sides are forced equal yields sound
variable fixings; a prefix forced strictly smaller proves the node is
dominated by a symmetric sibling and can be dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .master import BranchState


@dataclass
class LexResult:
    """Outcome of one scan against one automorphism."""

    conflict: bool
    forced: list[tuple[int, int]] = field(default_factory=list)


def invert_permutation(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for v, image in enumerate(perm):
        inv[image] = v
    return inv


def lex_fixings(
    seq: Sequence[int],
    values: Mapping[int, int],
    perm: Sequence[int],
) -> LexResult:
    """Deduce fixings from one lexicographic dominance constraint.

    ``values`` maps vertices to their currently fixed 0/1 value; vertices
    absent from it are free.  The scan walks the branching sequence as
    long as the pair of entries is (or is forced) equal:

    * left 0, right free  -> the right side is forced to 0,
    * left free, right 1  -> the left side is forced to 1,
    * left 1, right 0     -> strictly greater already, stop deducing,
    * left 0, right 1     -> impossible, the node is dominated.

    Any other combination leaves the order undecided, so the scan stops.
    Forcings made earlier in the scan are visible to later positions.
    """
    inv = invert_permutation(perm)
    local = dict(values)
    forced: list[tuple[int, int]] = []

    def put(vertex: int, value: int):
        local[vertex] = value
        forced.append((vertex, value))

    for var in seq:
        mirror = inv[var]
        left = local.get(var)
        right = local.get(mirror)
        if var == mirror:
            continue  # the pair is trivially equal
        if left == 0:
            if right is None:
                put(mirror, 0)
                continue
            if right == 0:
                continue
            return LexResult(True, forced)  # 0 < 1: dominated
        if left == 1:
            if right == 1:
                continue
            break  # right is 0 or free: greater or undecided
        # left free
        if right == 1:
            put(var, 1)
            continue
        break  # equality not forced, nothing further to deduce
    return LexResult(False, forced)


@dataclass
class Propagation:
    conflict: bool
    state: BranchState  # the branch fixings plus the forced ones


def propagate(
    generators: Sequence[Sequence[int]],
    seq: Sequence[int],
    state: BranchState,
) -> Propagation:
    """Fixpoint of lex_fixings over all generators.

    The branching decisions along ``seq`` are read from ``state``; the
    forced fixings accumulate on top of them and feed back into later
    rounds until nothing new is deduced.  On a conflict ``state`` comes
    back as given.
    """
    values = {v: int(v in state.fixed_to_cut) for v in seq}
    cut: set[int] = set()  # the forced fixings
    keep: set[int] = set()
    changed = True
    while changed:
        changed = False
        for perm in generators:
            result = lex_fixings(seq, values, perm)
            if result.conflict:
                return Propagation(True, state)
            for vertex, value in result.forced:
                if values.get(vertex) == value:
                    continue
                values[vertex] = value
                changed = True
                (cut if value else keep).add(vertex)
    if cut or keep:
        state = BranchState(state.fixed_to_cut | cut, state.fixed_to_keep | keep)
    return Propagation(False, state)
