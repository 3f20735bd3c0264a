"""Exact minimum-cost k-vertex cut solver.

The primary entry points are :func:`kvcut.solve` for one instance and
the ``kvcut`` command line for everything else; the submodules expose
the building blocks (graphs, the LP kernel, max flow, the master
problem, pricing, symmetry handling, bound comparisons, and the
brute-force oracle).

Importing the package fixes glibc's malloc thresholds
(``_pin_malloc_thresholds``), so that its peak memory does not depend on
the heap's layout.
"""

import ctypes

from .engine import SolveOptions, SolveReport, solve
from .graph import Graph, read_dimacs
from .instance import Instance

__version__ = "0.1.0"

# mallopt's parameter numbers in glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_malloc_thresholds():
    """Map and unmap every allocation of 1 MiB or more on its own (glibc only).

    The LP kernel's large arrays -- the matrix, the basis inverse, the
    basis copy and LAPACK's buffers -- would otherwise move onto the heap
    once glibc's mmap threshold rises to the largest one freed, and the
    peak RSS would depend on the heap's layout: the same lab run peaks at
    80 or at 87 MB.  A fixed threshold does not rise.  The trim threshold
    is four times it, so the heap keeps what a pivot frees for the next
    one: the structured simplex kernel's BTRAN copies the bump's columns
    of the inverse, up to 720 KB on the heap at m = 662.  Trimmed at 2 MiB, a
    pass of the benchmark's root-bounds workload takes 45,000 minor page
    faults in place of 21,000, at the same peak RSS.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(_M_MMAP_THRESHOLD, 1 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 4 << 20)
    except (OSError, AttributeError):
        pass


_pin_malloc_thresholds()

__all__ = [
    "Graph",
    "Instance",
    "SolveOptions",
    "SolveReport",
    "read_dimacs",
    "solve",
    "__version__",
]
