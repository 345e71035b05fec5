import json

import numpy as np
import pytest

from trlbfgs.bench import (
    BLAS_THREAD_VARS,
    RunRecord,
    main,
    parse_solver_spec,
    profile_ratios,
    split_solver_specs,
)

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
    argv = ["run", "--problems", "arwhead,dqrtic", "--n", "20"]
    argv += ["--solvers", "dense,conventional", "--reps", "2", "--discard", "1"]
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
    argv = ["run", "--problems", "arwhead", "--n", "10", "--solvers", "dense,conventional"]
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


def test_split_solver_specs_keeps_commas_inside_a_spec():
    assert split_solver_specs("dense:c=1,lambda=0.5,everywhere=true,conventional") == [
        "dense:c=1,lambda=0.5,everywhere=true",
        "conventional",
    ]
    assert split_solver_specs(" conventional , dense ,") == ["conventional", "dense"]


@pytest.mark.parametrize("text", ["", " , ", "c=1,dense"])
def test_split_solver_specs_rejects(text):
    with pytest.raises(ValueError):
        split_solver_specs(text)


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
