"""What the benchmark's scripts share.  Imports nothing heavy, so it can
be used before numpy is first loaded."""

import os

WORKLOADS = ("published", "weighted-gnp", "root-bounds")


def pin_blas_threads(threads: str = "1"):
    """Fix the BLAS and OpenMP thread count; call before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
