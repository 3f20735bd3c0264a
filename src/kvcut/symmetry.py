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

from dataclasses import dataclass
from typing import Sequence

from .master import BranchState


def invert_permutation(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for v, image in enumerate(perm):
        inv[image] = v
    return inv


@dataclass
class Propagation:
    conflict: bool
    state: BranchState  # the branch fixings plus the forced ones


def propagate(
    generators: Sequence[Sequence[int]],
    seq: Sequence[int],
    state: BranchState,
) -> Propagation:
    """The fixings the lex constraints of ``generators`` force at a node.

    Every vertex of ``seq`` was branched on, so ``state`` gives it a
    value and the left side x[var] of every pair is fixed.  Each group
    element's scan walks ``seq`` while the pair is equal:

    * left 0, right free  -> the right side is forced to 0 (kept),
    * left 0, right 1     -> impossible, the node is dominated,
    * left equal to right -> go on,
    * left 1, right 0 or free -> greater or undecided, stop.

    So only keeps are forced, and only on vertices outside ``seq``.  A
    keep one scan forces never changes another scan's course: against a
    left 0 the scan goes on whether the right is that keep or free (and
    then forced), and against a left 1 it stops either way.  One scan
    per element is therefore the fixpoint.  On a conflict ``state``
    comes back as given.
    """
    values = {v: int(v in state.fixed_to_cut) for v in seq}
    for inv in map(invert_permutation, generators):
        for var in seq:
            left, right = values[var], values.get(inv[var])
            if left == 0 and right is None:
                values[inv[var]] = 0
            elif left == 0 and right == 1:
                return Propagation(True, state)
            elif left != right:
                break
    forced = set(values).difference(seq)
    if forced:
        state = BranchState(state.fixed_to_cut, state.fixed_to_keep | forced)
    return Propagation(False, state)
