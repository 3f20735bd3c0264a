"""Exact minimum-cost k-vertex cut solver.

The primary entry points are :func:`kvcut.solve` for one instance and
the ``kvcut`` command line for everything else; the submodules expose
the building blocks (graphs, the LP kernel, max flow, the master
problem, pricing, symmetry handling, bound comparisons, and the
brute-force oracle).
"""

from .engine import SolveOptions, SolveReport, solve
from .graph import Graph, read_dimacs
from .instance import Instance

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Instance",
    "SolveOptions",
    "SolveReport",
    "read_dimacs",
    "solve",
    "__version__",
]
