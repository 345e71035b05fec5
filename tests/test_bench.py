import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import trlbfgs
from trlbfgs import bench
from trlbfgs.bench import (
    BLAS_THREAD_VARS,
    TAU_GRID,
    RunRecord,
    load_records,
    main,
    parse_solver_spec,
    profile_ratios,
    run_suite,
    write_profile,
    write_records,
)
from trlbfgs.driver import SolverConfig
from trlbfgs.problems import Problem, get

DENSE_ID = "dense(c=1,lambda=0.5,everywhere=true)"


def record(problem, solver_id, iterations, status="converged", n=10):
    return RunRecord(
        problem=problem,
        n=n,
        solver_id=solver_id,
        iterations=iterations,
        total_steps=iterations,
        time_seconds=0.01,
        status=status,
        f_final=0.0,
        g_norm_final=0.0,
    )


def test_run_then_profile_round_trip(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--problems", "arwhead", "dqrtic", "--n", "20"]
    argv += ["--solvers", "dense", "conventional", "--reps", "2", "--discard", "1"]
    assert main(argv + ["--out", str(out)]) == 0

    payload = json.loads((out / "records.json").read_text(encoding="utf-8"))
    meta = payload["meta"]
    assert meta["problems"] == ["arwhead", "dqrtic"]
    assert meta["solver_specs"] == ["dense", "conventional"]
    env = meta["environment"]
    assert env["numpy"] == np.__version__
    assert set(env["blas_threads"]) == set(BLAS_THREAD_VARS)
    assert {"python", "scipy", "cpu_count"} <= set(env)
    records = payload["records"]
    assert {(r["problem"], r["solver_id"]) for r in records} == {
        (p, s) for p in ("arwhead", "dqrtic") for s in (DENSE_ID, "conventional")
    }
    assert all(r["status"] == "converged" and r["n"] == 20 for r in records)
    csv_lines = (out / "records.csv").read_text(encoding="utf-8").splitlines()
    assert len(csv_lines) == 1 + len(records)

    assert main(["profile", "--in", str(out), "--metric", "iter"]) == 0
    rows = (out / "profile_iter.tsv").read_text(encoding="utf-8").splitlines()
    assert rows[0].split("\t") == ["tau", DENSE_ID, "conventional"]
    first = [float(v) for v in rows[1].split("\t")]
    last = [float(v) for v in rows[-1].split("\t")]
    assert first[0] == 1.0
    # Every run converged, so both curves end at 1; at tau = 1 the solvers
    # share the two problems, a tie counting for both.
    assert last[1:] == [1.0, 1.0]
    assert sum(first[1:]) >= 1.0
    assert "wrote" in capsys.readouterr().out


def test_profile_leaves_the_records_untouched(tmp_path):
    argv = ["run", "--problems", "arwhead", "--n", "10", "--solvers", "dense", "conventional"]
    assert main(argv + ["--reps", "1", "--out", str(tmp_path)]) == 0
    before = (tmp_path / "records.json").read_bytes()
    assert main(["profile", "--in", str(tmp_path), "--metric", "time"]) == 0
    assert (tmp_path / "records.json").read_bytes() == before
    assert (tmp_path / "profile_time.tsv").is_file()
    # profile writes only the tsv profile; rewriting the records lost their meta.
    with pytest.raises(SystemExit):
        main(["profile", "--in", str(tmp_path), "--format", "json"])
    assert (tmp_path / "records.json").read_bytes() == before


def test_run_records_unset_thread_variables_as_null(tmp_path, monkeypatch):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    argv = ["run", "--problems", "arwhead", "--n", "10", "--solvers", "conventional"]
    assert main(argv + ["--reps", "1", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "records.json").read_text(encoding="utf-8"))["meta"]
    assert meta["environment"]["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": None,
        "OMP_NUM_THREADS": "3",
        "MKL_NUM_THREADS": None,
    }


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("conventional", ("conventional", {"conventional": True})),
        ("dense", (DENSE_ID, {"c": 1.0, "lam": 0.5, "dense_everywhere": True})),
        (
            "dense:c=2,lambda=0.25,everywhere=FALSE",
            ("dense(c=2,lambda=0.25,everywhere=false)", {"c": 2.0, "lam": 0.25, "dense_everywhere": False}),
        ),
        (" dense:lambda=1 ", ("dense(c=1,lambda=1,everywhere=true)", {"c": 1.0, "lam": 1.0, "dense_everywhere": True})),
    ],
)
def test_parse_solver_spec(spec, expected):
    assert parse_solver_spec(spec) == expected


@pytest.mark.parametrize(
    "spec", ["dense:everywhere=maybe", "dense:gamma=2", "dense:c=abc", "newton", "conventional:c=1"]
)
def test_parse_solver_spec_rejects(spec):
    with pytest.raises(ValueError):
        parse_solver_spec(spec)


@pytest.mark.parametrize("spec", ["dense:c=nan", "dense:c=inf", "dense:lambda=nan", "dense:gamma=2"])
def test_run_rejects_a_non_finite_solver_parameter_before_solving(tmp_path, capsys, spec):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problems", "arwhead", "--n", "10", "--solvers", spec, "--out", str(out)])
    assert exc.value.code == 2
    assert spec in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args,named",
    [
        (["--problems", "nosuch"], "nosuch"),
        (["--problems", "arwhead", "--n", "1"], "arwhead needs n >= 2, got 1"),
        (["--problems", "ext_powell", "--n", "10"], "ext_powell needs n divisible by 4, got 10"),
        (["--problems", "quad_diag", "--n", "0"], "n must be at least 1, got 0"),
        (["--reps", "0"], "repetitions must be at least 1, got 0"),
        (["--discard", "-1"], "discard must be at least 0, got -1"),
        (["--solvers", "dense", "dense:c=1"], f"[{DENSE_ID!r}, {DENSE_ID!r}]"),
        (["--problems", "arwhead", "tridia", "arwhead"], "['arwhead', 'tridia', 'arwhead']"),
    ],
)
def test_run_rejects_a_bad_argument_before_solving(tmp_path, capsys, monkeypatch, args, named):
    def no_solve(*_):
        raise AssertionError("a rejected command line must not solve")

    monkeypatch.setattr(bench, "minimize", no_solve)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", *args, "--out", str(out)])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_bench_module_reports_an_unknown_problem_without_a_traceback():
    src = str(Path(trlbfgs.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "trlbfgs.bench", "run", "--problems", "nosuch"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "nosuch" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_profile_without_records_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--in", str(tmp_path)])
    assert exc.value.code == 2
    assert str(tmp_path / "records.json") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"meta": {}, "records": [{"problem": "a", "n": 10}]}),
        json.dumps({"meta": {}, "records": []}),
        json.dumps([{"problem": "a"}]),
        json.dumps({"meta": {}, "records": [asdict(record("a", "x", 4))] * 2}),
        "{not json",
    ],
)
def test_profile_of_unreadable_records_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "records.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--in", str(tmp_path)])
    assert exc.value.code == 2
    assert str(path) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def outcome(iterations):
    return SimpleNamespace(
        iterations=iterations, total_steps=iterations, status="converged", f_final=0.0, g_norm_final=0.0
    )


def test_run_suite_records_a_raising_cell_and_goes_on():
    def broken_f(x):
        raise FloatingPointError("f cannot be evaluated")

    good = get("arwhead", 10)
    broken = Problem("broken", 10, broken_f, good.eval_g, good.x0)
    records = run_suite([("conventional", SolverConfig(conventional=True))], [broken, good], 2, 0)
    assert [(r.problem, r.status) for r in records] == [
        ("broken", "numerical_failure"),
        ("arwhead", "converged"),
    ]
    failed = records[0]
    assert (failed.iterations, failed.total_steps) == (0, 0)
    assert np.isnan(failed.f_final) and np.isnan(failed.g_norm_final)
    assert failed.time_seconds >= 0.0


def test_run_suite_fails_a_cell_whose_later_repetition_raises(monkeypatch):
    first = [outcome(4)]

    def minimize(*_):
        if first:
            return first.pop()
        raise FloatingPointError("the second repetition fails")

    monkeypatch.setattr(bench, "minimize", minimize)
    (rec,) = run_suite([("conventional", SolverConfig(conventional=True))], [get("arwhead", 10)], 3, 0)
    assert (rec.status, rec.iterations) == ("numerical_failure", 0)


def test_run_suite_rejects_nondeterministic_iteration_counts(monkeypatch):
    counts = iter([5, 5, 6])
    monkeypatch.setattr(bench, "minimize", lambda *_: outcome(next(counts)))
    with pytest.raises(RuntimeError, match="nondeterministic"):
        run_suite([("conventional", SolverConfig(conventional=True))], [get("arwhead", 10)], 3, 0)


@pytest.mark.parametrize("discard,mean", [(0, 2.0), (1, 2.5), (2, 3.0), (3, 3.0), (7, 3.0)])
def test_run_suite_times_the_runs_after_the_discarded_ones(monkeypatch, discard, mean):
    # Run k starts at clock value k(k+1)/2 and lasts k+1, so the runs take 1, 2 and 3.
    clock = iter([0.0, 1.0, 1.0, 3.0, 3.0, 6.0])
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(bench, "minimize", lambda *_: outcome(4))
    config = [("conventional", SolverConfig(conventional=True))]
    (rec,) = run_suite(config, [get("arwhead", 10)], repetitions=3, discard=discard)
    assert rec.time_seconds == mean
    assert (rec.iterations, rec.status) == (4, "converged")


def test_profile_ratios_failed_run_is_inf():
    records = [
        record("a", "x", 4),
        record("a", "y", 8),
        record("b", "x", 5, status="max_iter"),
        record("b", "y", 10),
        record("c", "x", 3, status="numerical_failure"),
        record("c", "y", 3, status="numerical_failure"),
    ]
    keys, solvers, pi = profile_ratios(records, "iter")
    assert keys == [("a", 10), ("b", 10), ("c", 10)]
    assert solvers == ["x", "y"]
    assert pi[0].tolist() == [1.0, 2.0]
    assert pi[1].tolist() == [np.inf, 1.0]
    assert pi[2].tolist() == [np.inf, np.inf]


def test_profile_ratios_missing_run_is_inf():
    _, _, pi = profile_ratios([record("a", "x", 4), record("b", "y", 2)], "iter")
    assert pi.tolist() == [[1.0, np.inf], [np.inf, 1.0]]


def test_profile_ratios_clamps_zero_metric_to_tiny():
    # Converging at the starting point takes 0 iterations; without the clamp
    # the best value is 0 and every ratio on the problem is 0/0 or x/0.
    _, _, pi = profile_ratios([record("a", "x", 0), record("a", "y", 0)], "iter")
    assert pi.tolist() == [[1.0, 1.0]]
    _, _, pi = profile_ratios([record("a", "x", 0), record("a", "y", 1)], "iter")
    assert pi[0, 0] == 1.0
    assert pi[0, 1] == pytest.approx(1.0 / np.finfo(float).tiny)


def test_profile_ratios_rejects_duplicates_and_unknown_metric():
    with pytest.raises(ValueError, match="duplicate"):
        profile_ratios([record("a", "x", 4), record("a", "x", 5)], "iter")
    # The same problem at another n is a different problem, not a duplicate.
    keys, _, _ = profile_ratios([record("a", "x", 4), record("a", "x", 5, n=20)], "iter")
    assert keys == [("a", 10), ("a", 20)]
    with pytest.raises(ValueError, match="metric"):
        profile_ratios([record("a", "x", 4)], "steps")


def test_records_csv_quotes_the_dense_solver_id(tmp_path):
    # The dense id contains commas; unquoted, its row splits into 11 fields.
    records = [record("a", DENSE_ID, 4), record("a", "conventional", 5)]
    write_records(records, tmp_path, meta={})
    with (tmp_path / "records.csv").open(encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["problem", "n", "solver_id", "iterations", "total_steps",
                      "time_seconds", "status", "f_final", "g_norm_final"]
    assert [len(row) for row in rows] == [len(header)] * len(records)
    assert [row[header.index("solver_id")] for row in rows] == [DENSE_ID, "conventional"]


def test_profile_fractions_at_tau_one_and_two(tmp_path):
    records = [
        record("a", "x", 4),
        record("a", "y", 6),
        record("b", "x", 5, status="max_iter"),
        record("b", "y", 10),
        record("c", "x", 3),
        record("c", "y", 3),
        record("d", "x", 2),
        record("d", "y", 5),
    ]
    path = write_profile(records, "iter", tmp_path)
    assert path == tmp_path / "profile_iter.tsv"
    header, *rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    assert header == ["tau", "x", "y"]
    table = np.array(rows, dtype=float)
    assert table[:, 0].tolist() == TAU_GRID.tolist()
    # tau = 1: x is best on a and d, y on b, and the tie on c counts for both.
    assert table[0, 1:].tolist() == [0.75, 0.5]
    # tau = 2: y is within 1.5 of the best on a; x failed on b, which never counts.
    assert table[TAU_GRID <= 2.0][-1, 1:].tolist() == [0.75, 0.75]
    assert table[-1, 1:].tolist() == [0.75, 1.0]


def test_profile_of_no_records_raises(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        write_profile([], "iter", tmp_path)
    assert not (tmp_path / "profile_iter.tsv").exists()


def test_profile_ratio_beyond_the_largest_float_is_inf_without_warning():
    # 4/tiny overflows; the ratio is inf, and tier-1 turns the warning into an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, pi = profile_ratios([record("a", "x", 0), record("a", "y", 4)], "iter")
    assert pi.tolist() == [[1.0, np.inf]]


def test_load_records_returns_the_records_written(tmp_path):
    records = [record("a", DENSE_ID, 4), record("b", "conventional", 5, status="max_iter")]
    write_records(records, tmp_path, {"n": 10})
    assert load_records(tmp_path / "records.json") == records
