"""Closed-loop benchmark of dffc training runs, one at a time, in one process.

    python3 perfbench/run.py --workload dffc_default --seed 0 --seconds 30 --trace 0

After a tiny warm-up run, each repetition times the set-up (config plus
``generate_dataset``) and the run (``run_training`` plus
``write_run_artifacts``). Repetitions continue while the next one fits in
``--seconds``, with at least three. ``--trace 0`` reports the end-to-end
metrics as medians over repetitions, each time divided by the machine's
slowness while it was taken (``bench.SpeedSampler``). ``--trace 1``
traces every other repetition and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
start with ``#`` and give the machine, each repetition, and per metric its
sample count, median and quartiles. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback

#: Three repetitions of ``dffc_default`` take about 30 s, more than
#: ``--seconds``. Three is the fewest that give two traced repetitions, to
#: compare counts, and one untraced, for the overhead ratio. Five gave no
#: steadier medians across seeds and took twice as long.
MIN_REPETITIONS = 3
#: BLAS threads; one keeps timings steady on a shared machine and never
#: exceeds the CPU count. Set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "final_test_acc": "fraction",
}
PER_LAYER_UNITS = {
    "forgeries.generate_dataset_s": "s",
    "forgeries.quality_priors_s": "s",
    "forgeries.extremes_s": "s",
    "augment.calls": "count",
    "augment.s": "s",
    "augment.us_per_image": "us/image",
    "pacing.pool_s": "s",
    "pacing.derive_seed_calls": "count",
    "pacing.derive_seed_s": "s",
    "pacing.entries": "count",
    "hardness.update_calls": "count",
    "hardness.update_s": "s",
    "hardness.dfh_all_s": "s",
    "model.batches": "count",
    "model.forward_s": "s",
    "model.gradients_s": "s",
    "model.sgd_step_s": "s",
    "model.bce_s": "s",
    "model.gflop": "GFLOP-computed",
    "runner.evaluate_s": "s",
    "runner.self_s": "s",
    "cli.write_artifacts_s": "s",
    "runner.final_train_loss": "loss",
    "trace.overhead_ratio": "ratio",
}

#: Outputs of each repetition printed on its own line.
REP_FIELDS = (
    "setup_s", "setup_wall_s", "setup_slowness", "run_s", "run_wall_s", "run_slowness",
    "final_train_loss", "final_test_acc", "final_test_auc",
)

Rep = tuple[bool, "dict | None", str]  # (traced, outputs or None, error text)


def machine() -> dict:
    """What a result was measured on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def repetitions(bench, args: argparse.Namespace) -> tuple[list[Rep], float]:
    """Run repetitions while the next one fits in ``--seconds``.

    Also returns the peak memory of the process after its first
    repetition: the warm-up is tiny, so untraced that is the peak of one run.
    The spans of all traced repetitions are written once, at the end.
    """
    overrides = bench.run_overrides(args.workload, args.seed, tuple(args.override))
    bench.warm_up(overrides)
    started = time.perf_counter()
    reps: list[Rep] = []
    tracers = []
    while True:
        index = len(reps)
        traced = bool(args.trace) and index % 2 == 0
        tracer = bench.Tracer(f"{args.workload}-seed{args.seed}-rep{index}") if traced else None
        if tracer is not None:
            tracers.append(tracer)
        rep_start = time.perf_counter()
        try:
            out = bench.repetition(overrides, tracer)
        except Exception:  # a run that raises counts as failed
            traceback.print_exc()
            reps.append((traced, None, traceback.format_exc().strip().splitlines()[-1]))
        else:
            reps.append((traced, out, bench.run_is_sound(out) or ""))
        if index == 0:
            peak_rss_mb = bench.peak_rss_mb()
        now = time.perf_counter()
        if len(reps) >= MIN_REPETITIONS and (now - started) + (now - rep_start) > args.seconds:
            break
    if tracers:
        bench.write_spans(bench.WORK_DIR / "spans" / f"{args.workload}.tsv", tracers)
    return reps, peak_rss_mb


def check_reproducible(reps: list[Rep]) -> list[Rep]:
    """Fail every run whose output bytes differ from the first healthy run's."""
    reference = next((out["digest"] for _, out, error in reps if out and not error), None)
    mismatch = "metrics.csv/checkpoint.bin differ from another run of the same seed"
    return [
        (traced, out, error or (mismatch if out and out["digest"] != reference else ""))
        for traced, out, error in reps
    ]


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict[str, list[float]], bool]:
    """Per-layer samples from the traced runs, and whether every count repeated."""
    counts = [out["layer_counts"] for out in traced]
    first = counts[0]
    samples = {name: [out["layer_s"][name] for out in traced] for name in traced[0]["layer_s"]}
    samples.update({name: [value] for name, value in first.items() if name != "model.flop"})
    samples["model.gflop"] = [first["model.flop"] / 1e9]
    samples["runner.final_train_loss"] = [traced[0]["final_train_loss"]]
    calls = first["augment.calls"]
    samples["augment.us_per_image"] = [
        out["layer_s"]["augment.s"] / calls * 1e6 if calls else 0.0 for out in traced
    ]
    untraced_run_s = statistics.median(out["run_s"] for out in untraced)
    samples["trace.overhead_ratio"] = [out["run_s"] / untraced_run_s for out in traced]
    return samples, all(c == first for c in counts)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(args: argparse.Namespace, reps: list[Rep], peak_rss_mb: float) -> int:
    failed = sum(1 for _, _, error in reps if error)
    for index, (traced, out, error) in enumerate(reps):
        values = {k: out[k] for k in REP_FIELDS if k in out} if out else {}
        print(f"# rep {index} traced={int(traced)} {json.dumps(values)}"
              + (f" FAILED: {error}" if error else ""))
    healthy = [(traced, out) for traced, out, error in reps if not error]
    untraced = [out for traced, out in healthy if not traced]
    traced = [out for traced, out in healthy if traced]
    if not untraced or (args.trace and not traced):
        print("perfbench: no healthy repetition to report", file=sys.stderr)
        return 1

    repeated = True
    if args.trace:
        samples, repeated = per_layer(traced, untraced)
        units = PER_LAYER_UNITS
        if not repeated:
            print("# FAILED: per-layer counts differ between traced runs")
    else:
        samples = {
            f"{phase}_s": [out[f"{phase}_s"] / out[f"{phase}_slowness"] for out in untraced]
            for phase in ("setup", "run")
        }
        samples["final_test_acc"] = [out["final_test_acc"] for out in untraced]
        samples["peak_rss_mb"] = [peak_rss_mb]
        units = END_TO_END_UNITS
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"outputs_sha256={healthy[0][1]['digest']}")
    for name, unit in units.items():
        q1, median, q3 = quartiles(samples[name])
        print(f"#   {name:30s} {unit:14s} n={len(samples[name]):<3d} "
              f"median={median:.6g} q1={q1:.6g} q3={q3:.6g}")
    print(json.dumps({
        "correct": failed == 0 and repeated,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="extra config override, applied after the workload's (for smoke runs)")
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"# machine: {json.dumps(machine(), sort_keys=True)}")
    reps, peak_rss_mb = repetitions(bench, args)
    return report(args, check_reproducible(reps), peak_rss_mb)


if __name__ == "__main__":
    sys.exit(main())
