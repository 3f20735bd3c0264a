"""Known solver gaps kept out of the timed runs, as runnable checks.

    python3 perfbench/known_gaps.py [--threads N]

Each case prints OPEN while the defect reproduces and CLOSED once it is
gone; the exit status is 1 while any case is open.  ``--threads`` sets
the BLAS thread count before numpy loads (the benchmark uses 1): the
simplex's pivot path on these degenerate sparse roots, and sometimes its
answer, depends on it.  Takes about two minutes with one thread.
"""

import argparse
import sys
import time
from pathlib import Path

from benchenv import pin_blas_threads

ROOT = Path(__file__).resolve().parent.parent

#: a sparse root of this size should not need more pivots than this
PIVOT_BUDGET = 50_000
#: the n=50 solve takes under 3 s when the root does not stall
SOLVE_BUDGET_S = 10.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--threads", default="1")
    args = p.parse_args(argv)
    pin_blas_threads(args.threads)
    sys.path.insert(0, str(ROOT / "src"))
    from kvcut.engine import OPTIMAL, solve
    from kvcut.instance import Instance, gnp_graph, make_weighted
    from kvcut.lab import lp_bound_extended, lp_bound_natural

    inst45 = Instance(make_weighted(gnp_graph(45, 0.08, 3), 3), 4)
    natural = lp_bound_natural(inst45).value  # 3.0, the optimum

    def root(family):
        b = lp_bound_extended(inst45, family)
        closed = abs(b.value - natural) <= 1e-6 and b.iterations <= PIVOT_BUDGET
        return closed, f"value {b.value:.6g} (natural {natural:.6g}), {b.iterations} pivots"

    def solve50():
        start = time.perf_counter()
        rep = solve(Instance(make_weighted(gnp_graph(50, 0.08, 3), 3), 4))
        seconds = time.perf_counter() - start
        closed = rep.status == OPTIMAL and rep.objective == 7.0 and seconds <= SOLVE_BUDGET_S
        return closed, f"{rep.status} {rep.objective} in {seconds:.1f}s"

    cases = [
        ("gnp-45-0.08-3 k=4 extended-edges root", lambda: root("edges")),
        ("gnp-45-0.08-3 k=4 extended-cover root", lambda: root("cover")),
        ("gnp-50-0.08-3 k=4 solve", solve50),
    ]
    open_cases = 0
    for label, case in cases:
        start = time.perf_counter()
        closed, detail = case()
        open_cases += not closed
        state = "CLOSED" if closed else "OPEN"
        print(f"{state:<6} {label}: {detail} [{time.perf_counter() - start:.1f}s]", flush=True)
    return 1 if open_cases else 0


if __name__ == "__main__":
    sys.exit(main())
