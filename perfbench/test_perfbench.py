"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bench
import run

HERE = Path(__file__).resolve().parent
SMALL = (
    "dataset.n_train=400", "dataset.n_test=200", "total_epochs=8",
    "pacing.milestones=[2,3,4]", "pacing.easy_pool_size=50",
)


def run_cli(workload: str, trace: int, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace)]
    for pair in SMALL:
        cmd += ["--override", pair]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)])
def test_smoke_run_prints_every_metric(trace, units):
    proc = run_cli("dffc_default", trace)
    assert proc.returncode == 0, proc.stderr
    *comments, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= run.MIN_REPETITIONS and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name in units:
        assert any(line.split()[1:2] == [name] for line in comments), name


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli("dffc_default", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_restores_every_wrapped_function():
    originals = [(module, attr, getattr(module, attr)) for module, attr in bench.TRACED]
    overrides = bench.run_overrides("dffc_default", 0, SMALL)
    out = bench.repetition(overrides, bench.Tracer("restore-test"))
    assert out["layer_counts"]["augment.calls"] > 0
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} still wrapped"


def test_tracer_restores_after_a_failing_run():
    originals = [(module, attr, getattr(module, attr)) for module, attr in bench.TRACED]
    with pytest.raises(Exception):
        bench.repetition(bench.run_overrides("dffc_default", 0, ("batch_size=0",)), bench.Tracer("fail"))
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_speed_sampler_runs_no_dffc_code_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with bench.Tracer("reference") as tracer, bench.SpeedSampler() as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert tracer.spans == []
    assert len(sampler.samples) >= 3 and sampler.spent > 0 and sampler.slowness() > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_only_untraced_repetitions_sample_the_speed():
    overrides = bench.run_overrides("vanilla_default", 0, SMALL)
    plain = bench.repetition(overrides)
    traced = bench.repetition(overrides, bench.Tracer("no-samples"))
    assert plain["setup_slowness"] > 0 and plain["run_slowness"] > 0
    assert "run_slowness" not in traced and "setup_slowness" not in traced
    assert plain["digest"] == traced["digest"]


def test_self_times_subtract_children():
    tracer = bench.Tracer("synthetic")
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]]
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}


def test_traced_outputs_match_untraced_and_counts_repeat():
    overrides = bench.run_overrides("dffc_default", 0, SMALL)
    plain = bench.repetition(overrides)
    first = bench.repetition(overrides, bench.Tracer("a"))
    second = bench.repetition(overrides, bench.Tracer("b"))
    assert plain["digest"] == first["digest"] == second["digest"]
    assert first["layer_counts"] == second["layer_counts"]
    counts = first["layer_counts"]
    # 300 augmented easy copies: 50 per epoch after the two warm-up epochs.
    assert counts["augment.calls"] == counts["pacing.derive_seed_calls"] == 300
    assert counts["model.batches"] > 0 and counts["pacing.entries"] > 0


def test_collapsed_run_fails_the_check():
    out = bench.repetition(bench.run_overrides("vanilla_default", 0, (*SMALL, "lr.eta_max=1e6")))
    assert "collapsed" in bench.run_is_sound(out)


def test_non_finite_loss_and_differing_bytes_fail_the_check():
    healthy = {"final_train_loss": 0.01, "final_test_auc": 1.0}
    assert bench.run_is_sound(healthy) is None
    assert "not finite" in bench.run_is_sound({**healthy, "final_train_loss": float("nan")})
    reps = [(False, {"digest": "a"}, ""), (True, {"digest": "b"}, ""), (False, None, "raised")]
    errors = [error for _, _, error in run.check_reproducible(reps)]
    assert errors[0] == "" and "differ" in errors[1] and errors[2] == "raised"


@pytest.mark.parametrize("workload, augment_calls, update_calls", [
    ("dffc_default", 18000, 52126),
    ("vanilla_default", 0, 60000),
    ("vanilla_32px", 0, 60000),
])
def test_default_workload_counts_at_seed_0(workload, augment_calls, update_calls):
    out = bench.repetition(bench.run_overrides(workload, 0), bench.Tracer(workload))
    assert out["layer_counts"]["augment.calls"] == augment_calls
    assert out["layer_counts"]["hardness.update_calls"] == update_calls
    assert bench.run_is_sound(out) is None
