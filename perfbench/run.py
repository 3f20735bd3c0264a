"""kvcut benchmark: closed-loop passes over one workload, one caller, no think time.

    python3 perfbench/run.py --workload published --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; kvcut is imported from its ``src``.
Each pass runs every operation of the workload once, in a fixed order,
and checks every result.  Passes repeat while the next one is expected
to finish within ``--seconds`` (at least the workload's minimum).
``setup_s`` is the median of several set-ups, each in a fresh process
started with ``--setup-only``.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate, at least two of
each, and the per-layer metrics are printed, with the tracing overhead.
The last line of stdout is the JSON result; details and spans go to
``.perfbench-out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from benchenv import WORKLOADS, pin_blas_threads  # noqa: E402

# single-threaded numerics, fixed before numpy is first imported
pin_blas_threads()

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
#: untraced passes every --trace 0 run makes; the tail percentile is
#: fixed from this count
MIN_PASSES = {"published": 3, "weighted-gnp": 3, "root-bounds": 2}
#: untraced and traced passes every --trace 1 run makes, each
TRACE_MIN_PASSES = 2
#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 7
#: no operation starts after this many seconds of measuring, so a run
#: always exits well within three minutes
HARD_STOP = 150.0
#: calibrate()'s time on a quiet 2-vCPU Xeon host; reported times are in
#: seconds at that speed
CALIBRATION_REF_S = 0.024


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print the seconds it took, and exit")
    return p.parse_args(argv)


def import_kvcut():
    """Import kvcut from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kvcut

    if Path(kvcut.__file__).resolve().parent != src / "kvcut":
        raise ImportError(f"kvcut imported from {kvcut.__file__}, not from {src}")
    import workloads

    return workloads


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def release_memory():
    """Collect garbage and hand freed heap back to the OS (glibc only), so
    the peak RSS does not depend on the order operations ran in."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def calibrate():
    """Seconds for a fixed mix of interpreter and small-array work.

    The host's speed drifts by up to a third within a minute, and kvcut's
    operation times follow this loop's time closely (correlation 0.78 on
    the reference host), so each operation is rescaled by the loop timed
    on either side of it.  This cancels the drift, not any change to
    kvcut.
    """
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(150_000):
        acc += i * i % 7
        table[i % 97] = acc
    a = np.full((64, 64), 0.5)
    for _ in range(150):
        a = (a @ a) * 1e-2 + np.minimum(a, 0.25)
    return time.perf_counter() - start


def setup_once(workload):
    """Seconds from a fresh process's first statement until kvcut is
    imported and the workload's inputs are built."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, never below 50."""
    return max(50.0, 100.0 * (1.0 - 10.0 / samples))


class Run:
    def __init__(self, wl, ops, measure_start):
        self.wl = wl
        self.ops = ops
        self.measure_start = measure_start
        self.failures = []
        self.attempted = 0
        self.raw = []  # wall seconds of every operation, in run order
        self.calib = [calibrate()]  # calib[j] and calib[j + 1] bracket raw[j]

    def run_op(self, op, tracer=None):
        """Run and check one operation; returns (index into raw, result or None)."""
        self.attempted += 1
        if time.perf_counter() - self.measure_start > HARD_STOP:
            self.failures.append(self.wl.Failure(op.label, self.wl.TIMED_OUT, "not started: run budget spent"))
            self.raw.append(0.0)
            self.calib.append(self.calib[-1])
            return len(self.raw) - 1, None
        release_memory()
        span = tracer.open(op.root_span) if tracer else None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            result = None
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(span)
        self.raw.append(seconds)
        self.calib.append(calibrate())
        if result is None:
            self.failures.append(self.wl.Failure(op.label, self.wl.EXCEPTION, error))
        elif seconds > self.wl.OP_TIME_LIMIT:
            self.failures.append(self.wl.Failure(op.label, self.wl.TIMED_OUT, f"took {seconds:.1f}s"))
        else:
            failure = op.check(result)
            if failure:
                self.failures.append(failure)
        return len(self.raw) - 1, result

    def run_pass(self, tracer=None):
        """One pass; returns (raw index by op, results).

        Every pass runs the operations in the workload's own order: the
        order moves the peak RSS by up to 8%, because it decides which
        operation meets the heap another one left behind.
        """
        index, results = [], []
        for i, op in enumerate(self.ops):
            if tracer:
                tracer.op = i
            j, result = self.run_op(op, tracer)
            index.append(j)
            results.append(result)
        return index, results

    def factor(self, j):
        """Reference speed over host speed, from the calibrations bracketing operation j."""
        return CALIBRATION_REF_S / statistics.mean(self.calib[j : j + 2])

    def scaled(self, j):
        """Operation j's seconds at reference speed."""
        return self.raw[j] * self.factor(j)


def engine_metrics(results):
    reports = [r for r in results if r is not None and hasattr(r, "nodes")]
    return {
        "engine.nodes": float(sum(r.nodes for r in reports)),
        "engine.max_depth": float(max((r.max_depth for r in reports), default=0)),
        "engine.cols_total": float(sum(r.cols_total for r in reports)),
    }


def traced_pass(run, wl):
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        index, results = run.run_pass(tracer)
    finally:
        tracer.uninstall()
    scale = [run.factor(j) for j in index]
    m = spans.layer_metrics(tracer.spans, scale)
    m.update(engine_metrics(results))
    m.update(wl.lab_metrics(results, scale))
    return index, m, tracer


def main(argv=None):
    args = parse_args(argv)
    try:
        wl = import_kvcut()
    except ImportError as exc:
        print(f"cannot import kvcut from this checkout: {exc}", file=sys.stderr)
        return 2
    data_dir = ROOT / "src" / "kvcut" / "data"
    ops = wl.build(args.workload, data_dir)
    if args.setup_only:
        print(time.perf_counter() - _T0)
        return 0
    setup_raw, setup_calib = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        setup_raw.append(setup_once(args.workload))
        setup_calib.append(calibrate())
    setup_s = statistics.median(
        raw * CALIBRATION_REF_S / statistics.mean(setup_calib[i : i + 2]) for i, raw in enumerate(setup_raw)
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()

    min_plain = TRACE_MIN_PASSES if args.trace else MIN_PASSES[args.workload]
    min_traced = TRACE_MIN_PASSES if args.trace else 0
    measure_start = time.perf_counter()
    run = Run(wl, ops, measure_start)
    plain, traced = [], []  # raw indices by op, per pass; traced also carry layer metrics
    tracers = []
    longest = 0.0
    while True:
        start = time.perf_counter()
        if args.trace and len(traced) < len(plain):
            index, layer, tracer = traced_pass(run, wl)
            traced.append((index, layer))
            tracers.append(tracer)
        else:
            plain.append(run.run_pass()[0])
        longest = max(longest, time.perf_counter() - start)
        elapsed = time.perf_counter() - measure_start
        if elapsed + longest > HARD_STOP:
            break
        enough = len(plain) >= min_plain and len(traced) >= min_traced
        if enough and elapsed + longest > args.seconds:
            break
    for op in wl.fresh(args.workload, args.seed):
        run.run_op(op)

    per_op = {op.label: [run.scaled(p[i]) for p in plain] for i, op in enumerate(ops)}
    samples = [s for times in per_op.values() for s in times]
    plain_passes = [sum(run.scaled(j) for j in p) for p in plain]
    traced_passes = [sum(run.scaled(j) for j in p) for p, _ in traced]
    attempted, failed = run.attempted, len(run.failures)
    tail_p = tail_percentile(MIN_PASSES[args.workload] * len(ops))
    metrics = {
        "suite_s": statistics.median(plain_passes),
        "solve_s_p50": statistics.median(samples),
        "solve_s_tail": float(np.percentile(samples, tail_p)),
        "failed_frac": failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        first = traced[0][1]
        counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
        for _, layer in traced[1:]:
            for key in counts:
                if layer[key] != first[key]:
                    run.failures.append(wl.Failure("trace", wl.WRONG, f"{key} differs between traced passes"))
        for key in first:
            metrics[key] = first[key] if key in counts else statistics.median(layer[key] for _, layer in traced)
        metrics["trace.overhead"] = statistics.median(traced_passes) / metrics["suite_s"]
        failed = len(run.failures)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']}")
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(plain_passes)} untraced + {len(traced)} traced passes of {len(ops)} operations"
    )
    print(f"  suite_s        {metrics['suite_s']:.4f} s  (median of {len(plain_passes)} passes)")
    print(f"  solve_s_p50    {metrics['solve_s_p50']:.4f} s  (n={len(samples)})")
    print(f"  solve_s_tail   {metrics['solve_s_tail']:.4f} s  (p{tail_p:.1f}, n={len(samples)})")
    print(f"  failed_frac    {failed / attempted:.4f}    ({failed} of {attempted} operations)")
    print(f"  setup_s        {setup_s:.4f} s  (median of {SETUP_REPEATS} fresh-process set-ups; raw median {statistics.median(setup_raw):.4f} s)")
    speed = CALIBRATION_REF_S / statistics.median(run.calib)
    print(f"  host speed     {speed:.3f} x reference (median of {len(run.calib)} calibrations); raw op time {sum(run.raw):.2f} s")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    if traced:
        print(
            f"  tracing overhead: median traced pass / median untraced pass = {metrics['trace.overhead']:.4f}"
            f" ({len(traced)} traced, {len(plain_passes)} untraced, in reference seconds)"
        )
        for m in spec["per_layer"]:
            print(f"  {m['name']:<28} {metrics[m['name']]:.6g} {m['unit']}")
    for f in run.failures:
        print(f"  FAILED [{f.kind}] {f.label}: {f.detail}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "env": env,
        "tail_percentile": tail_p,
        "samples": len(samples),
        "passes": {"untraced": plain_passes, "traced": traced_passes},
        "operation_s": per_op,
        "calibration_s": {"setup": setup_calib, "run": run.calib},
        "raw_s": {"setup": setup_raw, "operations": run.raw},
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        "failures": [vars(f) for f in run.failures],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracers:
        with open(OUT / f"{stem}-spans.jsonl", "w") as f:
            for p, tracer in enumerate(tracers):
                f.write(json.dumps({"pass": p + 1, "spans": len(tracer.spans)}) + "\n")
                tracer.write(f)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
