"""Workloads, one timed training run, the speed sampler that scales its times,
and the tracer behind the per-layer metrics.

The package is always imported from this checkout's ``src/`` directory,
never from an installed copy.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import math
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run artifacts and span dumps; ignored by git.
WORK_DIR = ROOT / ".bench_build" / "perfbench"

if not (SRC / "dffc" / "__init__.py").is_file():
    raise ImportError(f"dffc sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from dffc import cli, forgeries, hardness, pacing, runner  # noqa: E402

#: Workload name -> config overrides. The seed overrides are added per run.
WORKLOADS = {
    "dffc_default": ("mode=dffc",),
    "vanilla_default": ("mode=vanilla",),
    "vanilla_32px": ("mode=vanilla", "dataset.image_size=32"),
}

#: A final test AUC below this means training collapsed: a broken run
#: reads 0.5, healthy runs of these workloads read 0.99 or more.
AUC_FLOOR = 0.6


#: The clock of every timed metric and span: CPU time of this process, user
#: plus system. The runs are single-threaded, so on an idle machine this
#: equals wall time; on a shared one it leaves out the time spent waiting
#: for a CPU.
cpu_seconds = time.process_time


#: Wall seconds between two speed samples.
SAMPLE_PERIOD_S = 0.05
#: CPU seconds of one :func:`reference_work` at the machine speed that the
#: end-to-end times are scaled to: about its median inside a training run
#: on a 2-CPU Intel Xeon container with Python 3.11.7 and numpy 2.4.6.
REFERENCE_WORK_S = 0.0008

_REFERENCE_IMAGE = np.random.default_rng(0).random((16, 16))


def reference_work() -> None:
    """A fixed piece of work that runs no dffc code.

    It is made of the small-array numpy calls that dominate training, on a
    16 px image: a coordinate grid, rounded and reflected indices, a fancy
    index gather, reflect padding and a 5-tap convolution. Of the candidates
    tried, this one's speed followed the training runs' most closely.
    """
    image = _REFERENCE_IMAGE
    for _ in range(5):
        ys, xs = np.mgrid[0:16, 0:16].astype(np.float64)
        y0 = np.floor(ys * 0.9 + 0.3).astype(np.int64)
        x0 = np.floor(xs * 0.9 + 0.3).astype(np.int64)
        x0 = np.where(x0 >= 16, 30 - x0, x0)
        gathered = image[y0, x0] * (1 - xs)
        padded = np.pad(gathered, [(2, 2), (0, 0)], mode="reflect")
        out = np.zeros_like(image)
        for j in range(5):
            out += 0.2 * padded[j : j + 16, :]


class SpeedSampler:
    """Samples the machine's speed while a timed block runs.

    A shared machine's speed drifts by up to 2x within seconds, as the
    other tenants of its cores come and go. Inside the block, a ``SIGALRM``
    handler runs :func:`reference_work` every ``SAMPLE_PERIOD_S`` and
    records its CPU seconds; the work slows and speeds with the machine,
    and no change to dffc can move it. Dividing a time by :meth:`slowness`
    removes the drift and keeps every gain or loss of the program. Samples
    are taken in the main thread, between two bytecodes of the program,
    so nothing runs beside it; :attr:`spent` is their CPU time, which the
    caller subtracts from its own.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._sample(signal.SIGALRM, None)  # so that a short block has one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = cpu_seconds()
        reference_work()
        self.samples.append(cpu_seconds() - start)

    @property
    def spent(self) -> float:
        """CPU seconds the samples took."""
        return sum(self.samples)

    def slowness(self) -> float:
        """Median sample over ``REFERENCE_WORK_S``: 1 at the reference speed."""
        return statistics.median(self.samples) / REFERENCE_WORK_S


#: Functions the tracer wraps, at the module attribute the caller looks
#: them up by. ``runner`` imported the model and augment functions by name,
#: so those are wrapped in ``runner``'s namespace.
TRACED = (
    (forgeries, "generate_dataset"),
    (forgeries, "quality_priors"),
    (forgeries, "dfh_extremes_report"),
    (runner, "augment_pixels"),
    (pacing, "build_epoch_pool"),
    (pacing, "full_pool"),
    (pacing, "pool_from_ids"),
    (pacing, "derive_augmentation_seed"),
    (hardness, "update_dih"),
    (hardness, "instantaneous_hardness"),
    (hardness, "dfh_all"),
    (runner, "forward_batch"),
    (runner, "gradients"),
    (runner, "sgd_step"),
    (runner, "bce_loss"),
    (runner, "evaluate"),
    (runner, "run_training"),
    (cli, "write_run_artifacts"),
)

POOL_SPANS = ("pacing.build_epoch_pool", "pacing.full_pool", "pacing.pool_from_ids")

#: Per-layer time metric -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "forgeries.generate_dataset_s": ("forgeries.generate_dataset",),
    "forgeries.quality_priors_s": ("forgeries.quality_priors",),
    "forgeries.extremes_s": ("forgeries.dfh_extremes_report",),
    "augment.s": ("augment.augment_pixels",),
    "pacing.pool_s": POOL_SPANS,
    "pacing.derive_seed_s": ("pacing.derive_augmentation_seed",),
    "hardness.update_s": ("hardness.update_dih", "hardness.instantaneous_hardness"),
    "hardness.dfh_all_s": ("hardness.dfh_all",),
    "model.forward_s": ("model.forward_batch",),
    "model.gradients_s": ("model.gradients",),
    "model.sgd_step_s": ("model.sgd_step",),
    "model.bce_s": ("model.bce_loss",),
    "runner.evaluate_s": ("runner.evaluate",),
    "runner.self_s": ("runner.run_training",),
    "cli.write_artifacts_s": ("cli.write_run_artifacts",),
}

#: Per-layer count metric -> span name whose calls it counts.
CALL_COUNT_METRICS = {
    "augment.calls": "augment.augment_pixels",
    "pacing.derive_seed_calls": "pacing.derive_augmentation_seed",
    "hardness.update_calls": "hardness.update_dih",
    "model.batches": "model.sgd_step",
}


def run_overrides(workload: str, seed: int, extra: tuple[str, ...] = ()) -> list[str]:
    """Config overrides of one run: the workload, then the seed, then ``extra``."""
    return [*WORKLOADS[workload], f"seed={seed}", f"dataset.seed={seed}", *extra]


def _flop_forward(args, result, parent):
    h, d = args[0].W1.shape
    b = args[1].shape[0]
    return {"model.flop": 2 * b * d * h + 2 * b * h}


def _flop_gradients(args, result, parent):
    # Forward matmuls plus the two weight-gradient matmuls.
    h, d = args[0].W1.shape
    b = args[1].shape[0]
    return {"model.flop": 4 * b * d * h + 4 * b * h}


def _flop_sgd_step(args, result, parent):
    h, d = args[0].W1.shape
    return {"model.flop": 2 * (h * d + 2 * h + 1)}


def _pool_entries(args, result, parent):
    # build_epoch_pool returns full_pool's result during warm-up; count it once.
    return None if parent in POOL_SPANS else {"pacing.entries": len(result.entries)}


COUNTERS = {
    "model.forward_batch": _flop_forward,
    "model.gradients": _flop_gradients,
    "model.sgd_step": _flop_sgd_step,
    **{name: _pool_entries for name in POOL_SPANS},
}


class Tracer:
    """Records a span around each call of the functions in ``TRACED``.

    Used as a context manager: entering replaces each module attribute with
    a recording wrapper, leaving puts every original back. Spans are kept in
    memory as ``[name, start, end, parent_index]`` until :func:`write_spans`.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, attr in TRACED:
            self._wrap(module, attr)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{attr}"
        count = COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = cpu_seconds

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                parent_name = spans[parent][0] if parent >= 0 else None
                for key, value in (count(args, result, parent_name) or {}).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """(times in seconds, exact counts) for every per-layer metric."""
        self_s = self.self_times()
        calls: dict[str, int] = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        times = {
            metric: sum(self_s.get(name, 0.0) for name in names)
            for metric, names in SELF_TIME_METRICS.items()
        }
        counts = {metric: calls.get(name, 0) for metric, name in CALL_COUNT_METRICS.items()}
        counts["pacing.entries"] = self.counters.get("pacing.entries", 0)
        counts["model.flop"] = self.counters.get("model.flop", 0)
        return times, counts


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write the spans of every tracer to one tab-separated file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("run_id\tspan\tparent\tname\tstart_cpu_s\tend_cpu_s\n")
        for tracer in tracers:
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(f"{tracer.run_id}\t{index}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


@contextlib.contextmanager
def timed(phase: str, times: dict, sample: bool):
    """Time the block into ``times`` under the names of ``phase``.

    ``<phase>_s`` is CPU seconds and ``<phase>_wall_s`` wall seconds, both
    without the speed samples. With ``sample``, ``<phase>_slowness`` is the
    machine's :meth:`SpeedSampler.slowness` while the block ran.
    """
    sampler = SpeedSampler() if sample else None
    cpu, wall = cpu_seconds(), time.perf_counter()
    with sampler or contextlib.nullcontext():
        yield
    cpu, wall = cpu_seconds() - cpu, time.perf_counter() - wall
    spent = sampler.spent if sampler else 0.0
    times[f"{phase}_s"] = cpu - spent
    times[f"{phase}_wall_s"] = wall - spent
    if sampler:
        times[f"{phase}_slowness"] = sampler.slowness()


def setup(overrides: list[str], sample: bool):
    """Build the config and generate the dataset.

    Returns (the times of :func:`timed` for phase ``setup``, resolved config
    dict, run config, dataset).
    """
    times: dict[str, float] = {}
    with timed("setup", times, sample):
        resolved = cli.resolve_config(None, overrides)
        config = cli.build_run_config(resolved)
        dataset = forgeries.generate_dataset(config.dataset)
    return times, resolved, config, dataset


def train(resolved: dict, config, dataset, sample: bool) -> dict:
    """One timed ``run_training`` plus artifact writing; returns the run's outputs."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    times: dict[str, float] = {}
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        out = Path(tmp)
        with timed("run", times, sample):
            result = runner.run_training(config, dataset)
            cli.write_run_artifacts(out, resolved, result)
        metrics_csv = (out / "metrics.csv").read_bytes()
        checkpoint = (out / "checkpoint.bin").read_bytes()
    header, *_, last = metrics_csv.decode().splitlines()
    final = dict(zip(header.split(","), last.split(",")))
    return {
        **times,
        "final_train_loss": float(final["train_loss_mean"]),
        "final_test_acc": float(final["test_acc"]),
        "final_test_auc": float(final["test_auc"]),
        "digest": hashlib.sha256(metrics_csv + b"\0" + checkpoint).hexdigest(),
    }


def warm_up(overrides: list[str]) -> None:
    """A tiny run of the same mode, so lazy imports and first calls are not timed."""
    resolved = cli.resolve_config(None, overrides)
    config = cli.build_run_config(resolved)
    config = replace(
        config,
        dataset=replace(config.dataset, n_train=40, n_test=20),
        total_epochs=3,
        milestones=(1, 2),
        easy_pool_size=5,
    )
    train(resolved, config, forgeries.generate_dataset(config.dataset), sample=True)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repetition(overrides: list[str], tracer: Tracer | None = None) -> dict:
    """Set up and train once; with a ``tracer``, with its wrappers installed.

    Untraced, the machine's speed is sampled; traced, it is not, so that no
    sample lands in a span. The garbage of earlier repetitions is collected
    first, untimed, so that no repetition pays for collecting another's.
    """
    gc.collect()
    if tracer is None:
        setup_times, resolved, config, dataset = setup(overrides, sample=True)
        return {**setup_times, **train(resolved, config, dataset, sample=True)}
    with tracer:
        setup_times, resolved, config, dataset = setup(overrides, sample=False)
        out = train(resolved, config, dataset, sample=False)
    times, counts = tracer.layer_metrics()
    return {**setup_times, "layer_s": times, "layer_counts": counts, **out}


def run_is_sound(out: dict) -> str | None:
    """Why a finished run's outputs are wrong, or None when they look healthy."""
    if not math.isfinite(out["final_train_loss"]):
        return f"final train loss {out['final_train_loss']} is not finite"
    if not out["final_test_auc"] >= AUC_FLOOR:
        return f"final test AUC {out['final_test_auc']} below {AUC_FLOOR}: training collapsed"
    return None
