import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kvcut import cli, lp
from kvcut.cli import BENCH_COLUMNS, main
from kvcut.engine import EngineError
from kvcut.graph import Graph, write_dimacs

DATA = Path(__file__).parent.parent / "src" / "kvcut" / "data"
KARATE = str(DATA / "karate.col")

JSON_FIELDS = [
    "instance", "n", "m", "k", "status", "objective", "cut",
    "num_components", "root_lp_bound", "best_bound", "gap_percent",
    "nodes", "max_depth", "cols_total", "cols_root", "timing",
]


def _write(tmp_path, name, g, comment=""):
    path = tmp_path / name
    path.write_text(write_dimacs(g, comment))
    return str(path)


def _child_env():
    """The environment for a child ``python -m kvcut.cli``: kvcut is
    imported from this checkout's src, installed or not."""
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))


def path3_file(tmp_path):
    return _write(tmp_path, "p3.col", Graph(3, [(0, 1), (1, 2)], name="p3"))


def cycle6_file(tmp_path):
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)], name="c6")
    return _write(tmp_path, "c6.col", g)


def clique4_file(tmp_path):
    g = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    return _write(tmp_path, "k4.col", g)


# ------------------------------------------------------------ solve


def test_solve_emits_the_report_schema(capsys):
    assert main(["solve", KARATE, "--k", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == JSON_FIELDS
    assert doc["status"] == "Optimal"
    assert doc["objective"] == 1.0
    assert doc["k"] == 3 and doc["n"] == 34 and doc["m"] == 78
    assert len(doc["cut"]) == 1
    assert all(1 <= v <= 34 for v in doc["cut"])
    assert set(doc["timing"]) == {"pricing_seconds", "total_seconds"}


def test_solve_trivial_instance_exits_zero(tmp_path, capsys):
    split = _write(tmp_path, "split.col", Graph(4, [(0, 1), (2, 3)]))
    assert main(["solve", split, "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == 0.0
    assert doc["cut"] == []
    assert doc["num_components"] == 2


def test_solve_infeasible_exits_two(tmp_path, capsys):
    assert main(["solve", clique4_file(tmp_path), "--k", "2"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "Infeasible"


def test_solve_time_limit_exits_three(capsys):
    code = main(["solve", KARATE, "--k", "10", "--time-limit", "0.01"])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "TimeLimit"


def test_solve_missing_file_exits_one(capsys):
    assert main(["solve", "no-such-file.col", "--k", "2"]) == 1
    assert "no-such-file.col" in capsys.readouterr().err


def test_bad_flags_exit_one(tmp_path, capsys):
    p3 = path3_file(tmp_path)
    assert main(["solve", p3, "--k", "2", "--weights", "bogus:1"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["solve", p3]) == 1  # --k is required
    capsys.readouterr()
    for argv in (
        ["solve", p3, "--k", "1"],
        ["lp-bounds", p3, "--k", "1"],
        ["oracle", p3, "--k", "0"],
        ["bench", p3, "--k", "1,5"],
        ["bench", p3, "--k", "5,x"],
        ["bench", p3, "--k", ","],
        ["solve", p3, "--k", "2", "--time-limit", "nan"],
        ["solve", p3, "--k", "2", "--time-limit", "0"],
        ["solve", p3, "--k", "2", "--time-limit", "-1"],
        ["solve", p3, "--k", "2", "--time-limit", "inf"],
        ["bench", p3, "--k", "2", "--time-limit", "nan"],
    ):
        assert main(argv) == 1, argv
        assert "kvcut: error: argument" in capsys.readouterr().err, argv
    # only --time-limit and --symmetry configure the solver
    for flag in (
        ["--clique-family", "cover"],
        ["--connectivity-cut", "auto"],
        ["--pricing-max-cols", "10"],
        ["--pricing-max-cols", "0"],
        ["--pricing-max-cols", "-1"],
        ["--heuristic", "on"],
    ):
        for argv in (["solve", p3, "--k", "2"], ["bench", p3, "--k", "2"]):
            assert main(argv + flag) == 1, flag
            err = capsys.readouterr().err
            assert "kvcut: error: unrecognized arguments" in err, flag


@pytest.mark.parametrize(
    "command, entry, error",
    [
        ("solve", "solve", EngineError("node LP ended with uncertified")),
        ("lp-bounds", "bound_report", EngineError("bound LP failed: basis matrix became singular")),
        ("oracle", "brute_force", EngineError("broken")),
    ],
)
def test_internal_failure_exits_four(tmp_path, capsys, monkeypatch, command, entry, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, entry, fail)
    assert main([command, path3_file(tmp_path), "--k", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kvcut: error: internal solver failure: {error}\n"


@pytest.mark.parametrize("command", ["solve", "lp-bounds"])
def test_singular_basis_exits_four(tmp_path, capsys, monkeypatch, command):
    # the simplex itself fails: every inversion finds B singular, and the
    # first pivot asks for one
    def singular(self):
        raise lp.SingularBasisError("basis matrix became singular")

    monkeypatch.setattr(lp._Simplex, "_inverse", singular)
    monkeypatch.setattr(lp, "_REFACTOR_EVERY", 1)
    assert main([command, cycle6_file(tmp_path), "--k", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kvcut: error: internal solver failure: ")
    assert captured.err.endswith("LP failed: basis matrix became singular\n")
    assert captured.err.count("\n") == 1


def test_reports_are_deterministic_apart_from_timing(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code = main(
            ["solve", KARATE, "--k", "5", "--output", str(out)]
        )
        assert code == 0
    doc_a = json.loads(out_a.read_text())
    doc_b = json.loads(out_b.read_text())
    doc_a.pop("timing")
    doc_b.pop("timing")
    assert json.dumps(doc_a) == json.dumps(doc_b)


def test_output_flag_writes_the_file_instead_of_stdout(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["solve", path3_file(tmp_path), "--k", "2",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["objective"] == 1.0


# ------------------------------------------------------------ bench


def test_bench_groups_rows_by_k(tmp_path, capsys):
    p3 = path3_file(tmp_path)
    c6 = cycle6_file(tmp_path)
    assert main(["bench", p3, c6, "--k", "2,3"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == list(BENCH_COLUMNS)
    labels = [(row[0], row[3]) for row in rows[1:]]
    assert labels == [
        ("p3", "2"), ("c6", "2"), ("avg(k=2)", "2"),
        ("p3", "3"), ("c6", "3"), ("avg(k=3)", "3"),
    ]
    by_label = {(row[0], row[3]): row for row in rows[1:]}
    assert by_label[("p3", "2")][5] == "1"  # objective of the middle cut
    assert by_label[("c6", "2")][5] == "2"
    assert by_label[("avg(k=2)", "2")][5] == "1.5"
    assert by_label[("p3", "3")][4] == "Infeasible"


def test_bench_survives_a_broken_instance(tmp_path, capsys):
    p3 = path3_file(tmp_path)
    missing = str(tmp_path / "gone.col")
    assert main(["bench", p3, missing, "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert "gone.col" in captured.err
    rows = list(csv.reader(captured.out.splitlines()))
    error_rows = [row for row in rows if row and row[4] == "Error"]
    assert len(error_rows) == 1
    assert error_rows[0][0] == missing
    assert len(error_rows[0]) == len(BENCH_COLUMNS)


# ------------------------------------------------------------ weights


def test_gen_weights_round_trips_through_a_file(tmp_path, capsys):
    c6 = cycle6_file(tmp_path)
    wfile = tmp_path / "w.txt"
    assert main(["gen-weights", c6, "--seed", "7",
                 "--output", str(wfile)]) == 0
    assert main(["solve", c6, "--k", "2",
                 "--weights", f"file:{wfile}"]) == 0
    from_file = json.loads(capsys.readouterr().out)
    assert main(["solve", c6, "--k", "2", "--weights", "random:7"]) == 0
    from_seed = json.loads(capsys.readouterr().out)
    assert from_file["objective"] == from_seed["objective"]
    assert from_file["cut"] == from_seed["cut"]


def test_weight_file_must_cover_every_vertex(tmp_path, capsys):
    c6 = cycle6_file(tmp_path)
    short = tmp_path / "short.txt"
    short.write_text("1 2 3\n")
    assert main(["solve", c6, "--k", "2",
                 "--weights", f"file:{short}"]) == 1
    assert "short.txt" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["instance", "weights"])
def test_non_utf8_file_exits_one(tmp_path, capsys, which):
    # a 0xff byte in a comment line: one error line naming the file, no traceback
    bad = tmp_path / "bad.txt"
    if which == "instance":
        bad.write_bytes(b"c caf\xff\n" + write_dimacs(Graph(3, [(0, 1), (1, 2)])).encode())
        argv = ["solve", str(bad), "--k", "2"]
    else:
        bad.write_bytes(b"c caf\xff\nn 1 1\nn 2 1\nn 3 1\n")
        argv = ["solve", path3_file(tmp_path), "--k", "2", "--weights", f"file:{bad}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"kvcut: error: {bad}: ") and "utf-8" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("cost", ["nan", "inf", "-inf"])
def test_non_finite_weight_exits_one(tmp_path, cost):
    # in a child process with a timeout: a NaN or infinite cost that
    # slips through can make the solve spin past any --time-limit
    p3 = path3_file(tmp_path)
    weights = tmp_path / "w.txt"
    weights.write_text(f"n 1 1\nn 2 {cost}\nn 3 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "kvcut.cli", "solve", p3, "--k", "2",
         "--weights", f"file:{weights}"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "line 2" in proc.stderr


@pytest.mark.parametrize("cost", ["1e16", "1e20", "1e300"])
def test_huge_weight_solves(tmp_path, cost):
    # in a child process with a timeout: a connectivity cut that came back
    # empty under a cost this large made the heuristic loop forever
    p3 = path3_file(tmp_path)
    weights = tmp_path / "w.txt"
    weights.write_text(f"n 1 1\nn 2 {cost}\nn 3 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "kvcut.cli", "solve", p3, "--k", "2",
         "--weights", f"file:{weights}"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["status"], doc["cut"], doc["objective"]) == ("Optimal", [2], float(cost))


# ------------------------------------------------------------ lp-bounds


def test_lp_bounds_reports_every_formulation(tmp_path, capsys):
    c6 = cycle6_file(tmp_path)
    assert main(["lp-bounds", c6, "--k", "2", "--optimum", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["bounds"]) == {
        "extended-cover", "extended-partition", "extended-edges",
        "natural", "compact",
    }
    natural = doc["bounds"]["natural"]
    assert natural["value"] == 1.5
    assert natural["gap"] == 25.0
    for entry in doc["bounds"].values():
        assert "seconds" in entry["timing"]


# ------------------------------------------------------------ oracle


def test_oracle_full_regime(tmp_path, capsys):
    assert main(["oracle", path3_file(tmp_path), "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "Optimal"
    assert doc["objective"] == 1.0
    assert doc["cut"] == [2]
    assert doc["explored"] == 8


def test_oracle_infeasible_exits_two(tmp_path, capsys):
    assert main(["oracle", clique4_file(tmp_path), "--k", "2"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "Infeasible"


def test_oracle_budget_exit_three(capsys):
    code = main(["oracle", KARATE, "--k", "10", "--regime", "cost:2"])
    assert code == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "BudgetExceeded"
    assert doc["bound"] == 3.0


def test_oracle_rejects_large_full_enumeration(capsys):
    assert main(["oracle", KARATE, "--k", "3"]) == 1
    capsys.readouterr()


def test_oracle_bad_regime_exits_one(tmp_path, capsys):
    p3 = path3_file(tmp_path)
    assert main(["oracle", p3, "--k", "2", "--regime", "cost:x"]) == 1
    assert main(["oracle", p3, "--k", "2", "--regime", "nope"]) == 1
    capsys.readouterr()


# ------------------------------------------------------------ console entry


def test_console_script_runs_end_to_end(tmp_path):
    g = Graph(3, [(0, 1), (1, 2)], name="p3")
    path = tmp_path / "p3.col"
    path.write_text(write_dimacs(g))
    proc = subprocess.run(
        [sys.executable, "-m", "kvcut.cli", "solve", str(path), "--k", "2"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["objective"] == 1.0
