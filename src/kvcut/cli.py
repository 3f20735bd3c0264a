"""Command-line front end: solve, benchmark, bound lab, oracle, weights.

Exit codes: 0 when the instance is solved (Optimal or Trivial), 2 when
it is proven Infeasible, 3 on TimeLimit, 1 for usage or IO problems, 4
on an internal solver failure (an ``EngineError``, which a singular
simplex basis raises too), reported as one line on stderr.
Timing lives in its own JSON sub-object so reports can be compared
byte-for-byte with timing stripped.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path
from typing import Optional

from .graph import DimacsError, Graph, read_dimacs
from .instance import Instance, format_weights, parse_weights, random_costs
from .lab import bound_report
from .oracle import (
    BudgetExceeded,
    CostBounded,
    Full,
    Infeasible,
    OracleResult,
    brute_force,
)
from .engine import (
    INFEASIBLE_STATUS,
    EngineError,
    OPTIMAL,
    TIME_LIMIT,
    SolveOptions,
    SolveReport,
    solve,
)

EXIT_SOLVED = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    """Usage or IO failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants 1
    def error(self, message: str):
        raise CliError(message)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        return value

    return parse


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 < value < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}"
        )
    return value


def _k_list(text: str) -> list[int]:
    ks = [_int_at_least(2)(part) for part in text.split(",") if part]
    if not ks:
        raise argparse.ArgumentTypeError("needs at least one value")
    return ks


def _k_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_int_at_least(2), required=True)


def _engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--time-limit", type=_positive_seconds, default=None, metavar="SECONDS"
    )
    p.add_argument("--symmetry", choices=("on", "off"), default="on")


def _weights_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--weights", default="unit", metavar="unit|file:<path>|random:<seed>"
    )


def _options_from(args: argparse.Namespace) -> SolveOptions:
    return SolveOptions(
        time_limit=args.time_limit, symmetry=args.symmetry == "on"
    )


def _load_graph(path: str, weights: str) -> Graph:
    try:
        parsed = read_dimacs(path)
    except (OSError, UnicodeDecodeError, DimacsError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    for warning in parsed.warnings():
        print(f"warning: {path}: {warning}", file=sys.stderr)
    g = parsed.graph
    if weights == "unit":
        return g
    if weights.startswith("file:"):
        wpath = weights[len("file:"):]
        try:
            costs = parse_weights(Path(wpath).read_text(encoding="utf-8"), g.n)
        except (OSError, ValueError) as exc:
            raise CliError(f"{wpath}: {exc}") from exc
        return g.with_costs(costs)
    if weights.startswith("random:"):
        try:
            seed = int(weights[len("random:"):])
        except ValueError as exc:
            raise CliError(f"bad --weights value {weights!r}") from exc
        return g.with_costs(random_costs(g.n, seed))
    raise CliError(f"bad --weights value {weights!r}")


def _round(value: Optional[float], digits: int = 9) -> Optional[float]:
    # stable text form for the determinism guarantee
    if value is None:
        return None
    if math.isinf(value):
        return value
    return round(value + 0.0, digits)


def report_json(rep: SolveReport) -> str:
    doc = {
        "instance": rep.instance,
        "n": rep.n,
        "m": rep.m,
        "k": rep.k,
        "status": rep.status,
        "objective": _round(rep.objective),
        "cut": None if rep.cut is None else [v + 1 for v in rep.cut],
        "num_components": rep.num_components,
        "root_lp_bound": _round(rep.root_lp_bound),
        "best_bound": _round(rep.best_bound),
        "gap_percent": _round(rep.gap_percent),
        "nodes": rep.nodes,
        "max_depth": rep.max_depth,
        "cols_total": rep.cols_total,
        "cols_root": rep.cols_root,
        "timing": {
            "pricing_seconds": rep.pricing_seconds,
            "total_seconds": rep.total_seconds,
        },
    }
    return json.dumps(doc, indent=2)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        try:
            Path(output).write_text(text + "\n")
        except OSError as exc:
            raise CliError(f"{output}: {exc}") from exc
    else:
        print(text)


def _status_exit(status: str) -> int:
    if status == OPTIMAL:  # covers trivial instances: empty cut, objective 0
        return EXIT_SOLVED
    if status == INFEASIBLE_STATUS:
        return EXIT_INFEASIBLE
    if status == TIME_LIMIT:
        return EXIT_TIME_LIMIT
    raise CliError(f"engine returned unknown status {status!r}")


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.instance, args.weights)
    rep = solve(Instance(g, args.k), _options_from(args))
    _emit(report_json(rep), args.output)
    return _status_exit(rep.status)


BENCH_COLUMNS = (
    "instance", "n", "m", "k", "status", "objective", "root_bound", "gap%",
    "nodes", "depth", "cols_total", "cols_root", "time_total", "time_pricing",
)


def _bench_row(rep: SolveReport) -> list:
    def num(x):
        return "" if x is None else f"{x:.6g}"

    return [
        rep.instance, rep.n, rep.m, rep.k, rep.status, num(rep.objective),
        num(rep.root_lp_bound), num(rep.gap_percent), rep.nodes,
        rep.max_depth, rep.cols_total, rep.cols_root,
        f"{rep.total_seconds:.3f}", f"{rep.pricing_seconds:.3f}",
    ]


def cmd_bench(args: argparse.Namespace) -> int:
    opts = _options_from(args)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    failures = 0
    for k in args.k:
        group = []
        for path in args.instances:
            try:
                g = _load_graph(path, args.weights)
                res = solve(Instance(g, k), opts)
            except Exception as exc:  # noqa: BLE001 - batch survives
                print(f"error: {path} k={k}: {exc}", file=sys.stderr)
                writer.writerow([path, "", "", k, "Error"] + [""] * 9)
                failures += 1
                continue
            writer.writerow(_bench_row(res))
            group.append(res)
        if group:
            # per-k average over the instances that produced numbers,
            # mirroring the usual benchmark-table grouping
            solved = [r for r in group if r.objective is not None]
            writer.writerow([
                f"avg(k={k})", "", "", k, f"{len(group)} runs",
                _avg([r.objective for r in solved]),
                _avg([r.root_lp_bound for r in group]),
                _avg([r.gap_percent for r in group]),
                _avg([r.nodes for r in group]),
                _avg([r.max_depth for r in group]),
                _avg([r.cols_total for r in group]),
                _avg([r.cols_root for r in group]),
                _avg([r.total_seconds for r in group]),
                _avg([r.pricing_seconds for r in group]),
            ])
    _emit(buf.getvalue().rstrip("\n"), args.output)
    return EXIT_USAGE if failures else EXIT_SOLVED


def _avg(values: list) -> str:
    vals = [v for v in values if v is not None]
    if not vals:
        return ""
    return f"{sum(vals) / len(vals):.6g}"


def cmd_lp_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args.instance, args.weights)
    rep = bound_report(Instance(g, args.k), optimum=args.optimum)
    doc = dataclasses.asdict(rep)
    for entry in doc["bounds"].values():
        entry["value"] = _round(entry["value"])
        if entry["gap"] is not None:
            entry["gap"] = _round(entry["gap"])
        entry["timing"] = {"seconds": entry.pop("seconds")}
    _emit(json.dumps(doc, indent=2), args.output)
    return EXIT_SOLVED


def cmd_oracle(args: argparse.Namespace) -> int:
    regime_text = args.regime
    if regime_text == "full":
        regime = Full()
    elif regime_text.startswith("cost:"):
        try:
            regime = CostBounded(float(regime_text[len("cost:"):]))
        except ValueError as exc:
            raise CliError(f"bad --regime value {regime_text!r}") from exc
    else:
        raise CliError(f"bad --regime value {regime_text!r}")
    g = _load_graph(args.instance, args.weights)
    try:
        res = brute_force(Instance(g, args.k), regime)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    doc = {"instance": g.name or args.instance, "n": g.n, "m": g.m, "k": args.k}
    if isinstance(res, OracleResult):
        doc |= {
            "status": "Optimal",
            "objective": _round(res.objective),
            "cut": [v + 1 for v in res.cut],
            "explored": res.explored,
        }
        code = EXIT_SOLVED
    elif isinstance(res, Infeasible):
        doc |= {"status": "Infeasible", "explored": res.explored}
        code = EXIT_INFEASIBLE
    else:
        assert isinstance(res, BudgetExceeded)
        doc |= {
            "status": "BudgetExceeded",
            "bound": _round(res.bound),
            "explored": res.explored,
        }
        code = EXIT_TIME_LIMIT
    _emit(json.dumps(doc, indent=2), args.output)
    return code


def cmd_gen_weights(args: argparse.Namespace) -> int:
    g = _load_graph(args.instance, "unit")
    costs = random_costs(g.n, args.seed)
    text = format_weights(
        costs, comment=f"weights for {g.name or args.instance} seed={args.seed}"
    )
    _emit(text.rstrip("\n"), args.output)
    return EXIT_SOLVED


def build_parser() -> _Parser:
    parser = _Parser(prog="kvcut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance to optimality")
    p.add_argument("instance")
    _k_flag(p)
    _weights_flag(p)
    _engine_flags(p)
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="solve a batch and emit a CSV table")
    p.add_argument("instances", nargs="+")
    p.add_argument("--k", type=_k_list, required=True, metavar="K1,K2,...")
    _weights_flag(p)
    _engine_flags(p)
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lp-bounds", help="root bounds of all formulations")
    p.add_argument("instance")
    _k_flag(p)
    p.add_argument("--optimum", type=float, default=None)
    _weights_flag(p)
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(func=cmd_lp_bounds)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    p.add_argument("instance")
    _k_flag(p)
    p.add_argument("--regime", default="full", metavar="full|cost:<limit>")
    _weights_flag(p)
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen-weights", help="random vertex weights, uniform 1..10")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(func=cmd_gen_weights)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"kvcut: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EngineError as exc:
        # bench reports these per instance; solve, lp-bounds and oracle end here
        print(f"kvcut: error: internal solver failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
