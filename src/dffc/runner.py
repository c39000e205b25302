"""Training orchestration: four run modes, hardness wiring, metrics.

Modes:

* ``vanilla``   - full dataset every epoch, no curriculum;
* ``babystep``  - static easiest-first curriculum over the quality prior;
* ``dih``       - dynamic curriculum with the quality prior disabled
                  (``alpha_f`` = 0);
* ``dffc``      - the full dynamic curriculum (loss EMA + quality prior,
                  augmented easy pool).

A run is single-threaded and bit-reproducible from its config. Each epoch
trains on one :class:`pacing.EpochPool` (sample ids and augmentation
seeds as arrays), gathered into one pixel matrix, and updates DIH with
one whole-array step for the trained hard pool and one for the test set.
The trained pools and recorded losses of every epoch are kept on the
returned log so tests can assert the wiring directly; without
``augment_all`` an epoch's pool ids are its pool's ``hard_ids`` and
``easy_ids``. Each CSV artifact has one column tuple, from which
:func:`csv_text` writes its header and rows.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.stats import rankdata

from dffc import forgeries, hardness, pacing, streams
from dffc.augment import AugmentationSpec, augment_pixels
from dffc.errors import ConfigError
from dffc.forgeries import DatasetConfig, Split
from dffc.model import (
    LrSchedule,
    ModelParams,
    bce_loss,
    cosine_lr,
    forward_batch,
    gradients,
    init_params,
    sgd_step,
)

log = logging.getLogger("dffc")

MODES = ("vanilla", "dih", "dffc", "babystep")

METRICS_COLUMNS = (
    "epoch", "eta", "pool_size", "train_loss_mean", "test_acc", "test_auc",
    "acc_easy", "acc_mid", "acc_hard", "mean_dfh",
)
POOL_LOG_COLUMNS = ("epoch", "hard_size", "easy_size", "overlap", "dfh_min", "dfh_max")
COMPARISON_COLUMNS = ("mode", "augment_all", "seed", "final_acc", "final_auc", "acc_hard")

TRACE_START_EPOCH = 3
#: Scale applied on top of per-pixel standardization.  The one-hidden-layer
#: net starts from a small uniform init; a larger input scale compensates so
#: that class margins keep growing once the cosine schedule has decayed.
INPUT_GAIN = 5.0
TRACE_GROUP_SIZE = 5
#: Easy-pool copies augmented per call of ``augment_pixels``. Chunks of 64
#: to 256 16 px images run equally fast; the chunk's temporaries grow with
#: it (about 3.4 MB at 128, 6.9 MB at 256), and at 256 they raise the peak
#: RSS of a default dffc run by about 3%.
AUGMENT_CHUNK = 128
EXTREMES_FRACTION = 0.1


@dataclass(frozen=True)
class RunConfig:
    """One run's hyper-parameters, and the schema of the JSON config.

    Each field sits at the dotted path in its ``json`` metadata, or at its
    own name, in field order; the dataset and augmentation fields are
    whole sections. The CLI derives its defaults, key check and type
    check from these fields.
    """

    mode: str = "dffc"
    seed: int = 0
    total_epochs: int = 20
    batch_size: int = 64
    hidden_units: int = 32
    augment_all: bool = False
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    eta_max: float = field(default=0.1, metadata={"json": "lr.eta_max"})
    eta_min: float = field(default=0.001, metadata={"json": "lr.eta_min"})
    gamma: float = field(default=0.9, metadata={"json": "hardness.gamma"})
    alpha_f: float = field(default=0.5, metadata={"json": "hardness.alpha_f"})
    milestones: tuple[int, ...] = field(
        default=(2, 5, 8, 12, 15), metadata={"json": "pacing.milestones"}
    )
    alpha_k: float = field(default=0.9, metadata={"json": "pacing.alpha_k"})
    easy_pool_size: int = field(default=1000, metadata={"json": "pacing.easy_pool_size"})
    babystep_start_fraction: float = field(
        default=0.25, metadata={"json": "babystep.start_fraction"}
    )
    babystep_growth_factor: float = field(
        default=1.5, metadata={"json": "babystep.growth_factor"}
    )
    babystep_step_length: int = field(default=3, metadata={"json": "babystep.step_length"})
    augment: AugmentationSpec = field(default_factory=AugmentationSpec)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "dih" and self.alpha_f != 0.0:
            raise ConfigError("mode 'dih' requires alpha_f=0 (quality prior disabled)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.hidden_units < 1:
            raise ConfigError("hidden_units must be >= 1")
        if self.total_epochs < 1:
            raise ConfigError("total_epochs must be >= 1")
        if not 0 <= self.seed < streams.KEY_LIMIT:
            raise ConfigError(f"seed must be in 0..2**64 - 1, got {self.seed}")
        object.__setattr__(self, "milestones", tuple(int(m) for m in self.milestones))
        self.lr_schedule()
        hardness.check_hardness(self.gamma, self.alpha_f)
        # Each mode checks only the pacing or babystep section it reads.
        if self.mode in ("dih", "dffc"):
            self.pacing_schedule(self.dataset.n_train)
        if self.mode == "babystep":
            pacing.check_babystep(
                self.babystep_start_fraction,
                self.babystep_growth_factor,
                self.babystep_step_length,
            )

    def lr_schedule(self) -> LrSchedule:
        return LrSchedule(self.eta_max, self.eta_min, self.total_epochs)

    def pacing_schedule(self, n_samples: int) -> pacing.PacingSchedule:
        return pacing.PacingSchedule(
            milestones=self.milestones,
            alpha_k=self.alpha_k,
            easy_pool_size=self.easy_pool_size,
            n_samples=n_samples,
            total_epochs=self.total_epochs,
        )


@dataclass
class MetricsLog:
    rows: list[dict]
    pool_rows: list[dict]
    dfh_traces: dict[int, dict]
    trace_groups: dict[str, list[int]]
    extremes: dict
    final_params: ModelParams
    train_hardness: hardness.HardnessState
    # Diagnostics for tests; not serialized.
    entry_streams: list[pacing.EpochPool] = field(default_factory=list)
    loss_streams: list[np.ndarray] = field(default_factory=list)


def tercile_assignments(priors: np.ndarray) -> np.ndarray:
    """0 = easy (low prior), 1 = mid, 2 = hard, split at the 1/3 and 2/3 quantiles."""
    cuts = np.quantile(priors, [1.0 / 3.0, 2.0 / 3.0])
    return np.digitize(priors, cuts)


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with midranks for ties."""
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined for a single-class label set")
    ranks = rankdata(scores)  # midranks
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(
    params: ModelParams, X: np.ndarray, y: np.ndarray, prior_terciles: np.ndarray
) -> dict:
    """Accuracy at threshold 0.5, tied-rank AUC, accuracy per quality tercile.

    ``X`` holds the test pixels in the transform the model was trained
    under, one row per sample, and ``y`` their targets.
    """
    if len(X) == 0:
        raise ValueError("empty test set")
    scores = forward_batch(params, X)
    correct = (scores >= 0.5) == (y == 1.0)
    acc_by_tercile = [
        float(correct[prior_terciles == bucket].mean()) for bucket in (0, 1, 2)
    ]
    return {
        "accuracy": float(correct.mean()),
        "auc": roc_auc(scores, y),
        "acc_by_tercile": acc_by_tercile,
        "scores": scores,
    }


def _build_pool(
    config: RunConfig,
    schedule: pacing.PacingSchedule | None,
    selection_scores: np.ndarray,
    prior: np.ndarray,
    t: int,
    n: int,
) -> pacing.EpochPool:
    if config.mode == "vanilla":
        return pacing.full_pool(n, t, config.seed)
    if config.mode == "babystep":
        ids = pacing.babystep_pool(
            prior,
            t,
            config.babystep_start_fraction,
            config.babystep_growth_factor,
            config.babystep_step_length,
        )
        return pacing.pool_from_ids(ids, t, config.seed)
    return pacing.build_epoch_pool(schedule, selection_scores, t, config.seed)


def _select_traces(
    scores: np.ndarray, seed: int
) -> dict[str, list[int]]:
    order = np.argsort(scores, kind="stable")
    n = len(order)
    k = min(TRACE_GROUP_SIZE, n // 3) or 1
    bottom, top = order[:k], order[-k:]
    mid_lo, mid_hi = n // 3, max(n // 3 + 1, 2 * n // 3)
    pool = order[mid_lo:mid_hi]
    pool = pool[~np.isin(pool, np.concatenate([bottom, top]))]
    rng = np.random.default_rng((seed, 7))
    median = (
        np.sort(pool[rng.choice(len(pool), size=min(k, len(pool)), replace=False)])
        if len(pool)
        else pool
    )
    return {"top": top.tolist(), "bottom": bottom.tolist(), "median": median.tolist()}


def run_training(
    config: RunConfig,
    dataset: tuple[Split, Split] | None = None,
) -> MetricsLog:
    train, test = dataset if dataset is not None else forgeries.generate_dataset(config.dataset)
    n = len(train)
    d = train.images[0].size

    prior, normalizer = forgeries.quality_priors(train.images)
    test_prior, _ = forgeries.quality_priors(test.images, normalizer=normalizer)
    terciles = tercile_assignments(test_prior)

    state = hardness.HardnessState.fresh(prior, config.gamma, config.alpha_f)
    # Evaluation-set mirror of the hardness recursion (every test sample is
    # updated each epoch); it feeds the extremes report, never selection.
    test_state = hardness.HardnessState.fresh(test_prior, config.gamma, config.alpha_f)

    params = init_params(d, config.hidden_units, config.seed)
    lr = config.lr_schedule()
    schedule = (
        config.pacing_schedule(n) if config.mode in ("dih", "dffc") else None
    )
    # Per-pixel standardization from training statistics; raw [0, 1]
    # pixels leave the net in a barely-trainable regime under the small
    # uniform init.  The extra gain speeds up margin growth, which the
    # short 20-epoch budget with a decaying learning rate needs.
    raw_train = train.images.reshape(n, d)
    pixel_mean = raw_train.mean(axis=0)
    pixel_std = (raw_train.std(axis=0) + 1e-8) / INPUT_GAIN
    X_train = (raw_train - pixel_mean) / pixel_std
    y_train = train.targets
    X_test = (test.images.reshape(len(test), d) - pixel_mean) / pixel_std
    y_test = test.targets

    out = MetricsLog(
        rows=[],
        pool_rows=[],
        dfh_traces={},
        trace_groups={},
        extremes={},
        final_params=params,
        train_hardness=state,
    )

    for t in range(1, config.total_epochs + 1):
        eta = cosine_lr(lr, t)
        selection_scores = hardness.dfh_all(state)
        pool = _build_pool(config, schedule, selection_scores, prior, t, n)
        hard_ids, easy_ids = pool.hard_ids, pool.easy_ids
        # The originals are the hard pool, and only they drive DIH updates,
        # even under --augment-all, which gives them a seed too.
        originals = pool.seeds < 0
        trained = pool
        if config.augment_all:
            seeds = pool.seeds.copy()
            seeds[originals] = pacing.derive_augmentation_seed(
                config.seed, t, pool.entries[originals], salt=1
            )
            trained = pacing.EpochPool(entries=pool.entries, seeds=seeds)

        # Assemble the epoch's pixel matrix, then overwrite the augmented
        # rows chunk by chunk with standardized augmented copies.
        ids = trained.entries
        X_epoch = X_train[ids]
        y_epoch = y_train[ids]
        augmented = np.flatnonzero(trained.seeds >= 0)
        for start in range(0, len(augmented), AUGMENT_CHUNK):
            rows = augmented[start : start + AUGMENT_CHUNK]
            pixels = augment_pixels(train.images[ids[rows]], config.augment, trained.seeds[rows])
            X_epoch[rows] = (pixels.reshape(len(rows), d) - pixel_mean) / pixel_std

        # Mini-batch SGD; losses are recorded before each batch's update.
        epoch_losses = np.empty(len(ids))
        for start in range(0, len(ids), config.batch_size):
            stop = start + config.batch_size
            Xb, yb = X_epoch[start:stop], y_epoch[start:stop]
            probs = forward_batch(params, Xb)
            epoch_losses[start:stop] = bce_loss(probs, yb)
            params = sgd_step(params, gradients(params, Xb, yb), eta)
        bad = np.flatnonzero(~np.isfinite(epoch_losses))
        if len(bad):
            raise ValueError(
                f"epoch {t}: non-finite training loss {epoch_losses[bad[0]]} "
                f"(sample {ids[bad[0]]})"
            )

        s_t = hardness.instantaneous_hardness(epoch_losses[originals], eta, config.eta_max)
        hardness.update_dih(state, ids[originals], s_t)

        metrics = evaluate(params, X_test, y_test, terciles)
        # Evaluation-set mirror update, from the same test-set scores.
        test_losses = bce_loss(metrics["scores"], y_test)
        test_s_t = hardness.instantaneous_hardness(test_losses, eta, config.eta_max)
        hardness.update_dih(test_state, np.arange(len(test)), test_s_t)

        dfh_now = hardness.dfh_all(state)
        out.rows.append(
            {
                "epoch": t,
                "eta": eta,
                "pool_size": len(hard_ids),
                "train_loss_mean": float(epoch_losses.mean()),
                "test_acc": metrics["accuracy"],
                "test_auc": metrics["auc"],
                "acc_easy": metrics["acc_by_tercile"][0],
                "acc_mid": metrics["acc_by_tercile"][1],
                "acc_hard": metrics["acc_by_tercile"][2],
                "mean_dfh": float(dfh_now.mean()),
            }
        )
        selected = np.union1d(hard_ids, easy_ids)
        out.pool_rows.append(
            {
                "epoch": t,
                "hard_size": len(hard_ids),
                "easy_size": len(easy_ids),
                "overlap": pool.overlap,
                "dfh_min": float(selection_scores[selected].min()),
                "dfh_max": float(selection_scores[selected].max()),
            }
        )

        if t == TRACE_START_EPOCH:
            out.trace_groups = _select_traces(dfh_now, config.seed)
            for ids in out.trace_groups.values():
                for sid in ids:
                    out.dfh_traces[sid] = {"start_epoch": t, "values": []}
        if t >= TRACE_START_EPOCH:
            for sid, trace in out.dfh_traces.items():
                trace["values"].append(float(dfh_now[sid]))

        out.entry_streams.append(trained)
        out.loss_streams.append(epoch_losses)
        log.info(
            "epoch %d: eta=%.5f pool=%d loss=%.4f acc=%.4f auc=%.4f",
            t, eta, len(hard_ids), out.rows[-1]["train_loss_mean"],
            metrics["accuracy"], metrics["auc"],
        )

    out.final_params = params
    out.extremes = forgeries.dfh_extremes_report(
        test, hardness.dfh_all(test_state), EXTREMES_FRACTION
    )
    return out


def compare_modes(configs: list[RunConfig]) -> list[dict]:
    """Run each config and report its final-epoch headline metrics.

    All configs must share one dataset config, so rows are comparable; the
    dataset is generated once and every run trains on it.
    """
    if not configs:
        raise ConfigError("compare_modes needs at least one config")
    first = configs[0].dataset
    for other in (config.dataset for config in configs[1:]):
        for name in (f.name for f in fields(DatasetConfig)):
            a, b = getattr(first, name), getattr(other, name)
            if a != b:
                raise ConfigError(
                    f"configs must share one dataset: dataset.{name} is {a} and {b}"
                )
    dataset = forgeries.generate_dataset(first)
    rows = []
    for config in configs:
        result = run_training(config, dataset)
        final = result.rows[-1]
        rows.append(
            {
                "mode": config.mode,
                "augment_all": config.augment_all,
                "seed": config.seed,
                "final_acc": final["test_acc"],
                "final_auc": final["test_auc"],
                "acc_hard": final["acc_hard"],
            }
        )
    return rows


def summarize_comparison(rows: list[dict]) -> list[dict]:
    """Mean and standard deviation over seeds per (mode, augment_all) group."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["mode"], row["augment_all"]), []).append(row)
    summary = []
    for (mode, aug), members in groups.items():
        entry = {"mode": mode, "augment_all": aug, "n_seeds": len(members)}
        for key in ("final_acc", "final_auc", "acc_hard"):
            vals = np.array([m[key] for m in members])
            entry[f"{key}_mean"] = float(vals.mean())
            entry[f"{key}_std"] = float(vals.std())
        summary.append(entry)
    return summary


# ---------------------------------------------------------------------------
# Serialization of run artifacts.

def csv_text(columns: tuple[str, ...], rows: list[dict]) -> str:
    """The header ``columns``, then each row's values in that order, as ``str``."""
    lines = [",".join(columns)]
    lines += (",".join(str(row[key]) for key in columns) for row in rows)
    return "\n".join(lines) + "\n"


def dfh_trace_json(logres: MetricsLog) -> str:
    return json.dumps(
        {str(sid): trace for sid, trace in sorted(logres.dfh_traces.items())},
        indent=1,
    )
