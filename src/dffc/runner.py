"""Training orchestration: four run modes, hardness wiring, metrics.

Modes:

* ``vanilla``   - full dataset every epoch, no curriculum;
* ``babystep``  - static easiest-first curriculum over the quality prior;
* ``dih``       - dynamic curriculum with the quality prior disabled
                  (``alpha_f`` = 0);
* ``dffc``      - the full dynamic curriculum (loss EMA + quality prior,
                  augmented easy pool).

A run is single-threaded and bit-reproducible from its config. Its learning
rate and pacing are read from the config's own fields as plain values.
Each epoch trains on one :class:`pacing.EpochPool` (sample ids and augmentation
seeds as arrays) and updates DIH with one whole-array step for the trained
hard pool and one for the test set; the DFH it takes after that update is
the next epoch's selection score. No epoch-sized pixel matrix is built:
each mini-batch gathers its rows from the standardized training matrix,
then takes its augmented entries, if it has any, from one matrix of the
epoch's augmented rows, which one call of ``augment_pixels`` per epoch
fills with pixels run by run. The input transform of
:func:`fit_input_transform` standardizes only whole matrices: the
training and test matrices once, and each epoch's augmented rows in
place. Each batch's update is made in place, and the epoch's
training losses are taken in one ``bce_loss`` call from the probabilities
its batches kept. An overflow in an epoch's SGD or in its evaluation on
the test set stops the run with a ``ValueError`` naming ``lr.eta_max``,
raised by the one guard both run under.
The epoch's pool size, hard and easy sizes and overlap come from
:meth:`pacing.EpochPool.composition`, which counts boolean masks over the
samples.
The returned :class:`MetricsLog` keeps one record per epoch, and every
artifact and printout of a run is read from these records and the final
hardness states. This module defines no on-disk format and picks nothing
to report: the CLI writes every artifact of a run, and derives the DFH
traces and ``extremes.json`` when it writes them.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from dffc import forgeries, hardness, pacing
from dffc.augment import AugmentationSpec, augment_pixels
from dffc.errors import ConfigError, check_blur_bound, check_float64_count, check_seed
from dffc.forgeries import DatasetConfig, Split
from dffc.model import (
    ModelParams,
    bce_loss,
    check_lr,
    cosine_lr,
    forward_batch,
    gradients,
    init_params,
    sgd_step,
)

log = logging.getLogger("dffc")

MODES = ("vanilla", "dih", "dffc", "babystep")

#: Scale applied on top of per-pixel standardization.  The one-hidden-layer
#: net starts from a small uniform init; a larger input scale compensates so
#: that class margins keep growing once the cosine schedule has decayed.
INPUT_GAIN = 5.0


@dataclass(frozen=True)
class RunConfig:
    """One run's hyper-parameters, and the schema of the JSON config.

    Each field sits at the dotted path in its ``json`` metadata, or at its
    own name, in field order; the dataset and augmentation fields are
    whole sections. The CLI derives its defaults, key check and type
    check from these fields. The last part of every path is unique: a
    check's error starts with it, and the CLI names the whole path. The
    ``lr``, ``hardness``, ``pacing`` and ``babystep`` sections are each
    checked once, here, by the ``check_`` function of the module that owns
    the section.
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
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "dih" and self.alpha_f != 0.0:
            raise ConfigError(f"mode 'dih' needs hardness.alpha_f = 0, got {self.alpha_f}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.hidden_units < 1:
            raise ConfigError("hidden_units must be >= 1")
        weights = self.hidden_units * self.dataset.image_size**2
        check_float64_count("hidden_units", "the first layer's weights", weights)
        check_seed("seed", self.seed)
        object.__setattr__(self, "milestones", tuple(int(m) for m in self.milestones))
        check_blur_bound(
            "augment.blur_sigma_range", self.augment.blur_sigma_range,
            "dataset.image_size", self.dataset.image_size,
        )
        check_lr(self.eta_max, self.eta_min, self.total_epochs)
        hardness.check_hardness(self.gamma, self.alpha_f)
        # Each mode checks only the pacing or babystep section it reads.
        if self.mode in ("dih", "dffc"):
            pacing.check_pacing(
                self.milestones, self.alpha_k, self.easy_pool_size, self.total_epochs
            )
        if self.mode == "babystep":
            pacing.check_babystep(
                self.babystep_start_fraction,
                self.babystep_growth_factor,
                self.babystep_step_length,
            )


@dataclass
class MetricsLog:
    """A finished run.

    ``epochs`` holds one dict per epoch: every column of the CLI's
    ``METRICS_COLUMNS`` and ``POOL_LOG_COLUMNS``, ``pool`` (the
    :class:`pacing.EpochPool` the curriculum selected, in every mode: its
    originals are the hard pool, and under ``augment_all`` they are trained
    augmented by seeds of salt 1 derived as the epoch trains), ``losses``
    (that pool's losses in training order) and
    ``dfh`` (every sample's DFH after the epoch's update), from which the
    CLI picks and writes the DFH traces. ``test_hardness``
    is the test-set mirror of ``train_hardness``, every test sample updated
    each epoch; it drives no selection. ``dataset_config`` is the run's
    ``config.dataset``, from which the extremes report rebuilds the clean
    test pairs it selects by the mirror's DFH.
    """

    epochs: list[dict]
    final_params: ModelParams
    train_hardness: hardness.HardnessState
    test_hardness: hardness.HardnessState
    dataset_config: DatasetConfig


def tercile_assignments(priors: np.ndarray) -> np.ndarray:
    """0 = easy (low prior), 1 = mid, 2 = hard, split at the 1/3 and 2/3 quantiles."""
    cuts = np.quantile(priors, [1.0 / 3.0, 2.0 / 3.0])
    return np.digitize(priors, cuts)


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """The rank-sum (Mann-Whitney) AUC of Hanley & McNeil (1982): the
    positives' rank sum less its minimum, over ``n_pos * n_neg``, where tied
    scores share their midrank. A non-finite score raises a ``ValueError``
    naming its index."""
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined for a single-class label set")
    scores = np.asarray(scores)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise ValueError(f"AUC needs finite scores, got {scores[bad[0]]} at index {bad[0]}")
    # A tie group's midrank is its last rank less (count - 1) / 2; every
    # rank is an integer or a half, so the sum below is exact.
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(
    params: ModelParams, X: np.ndarray, y: np.ndarray, prior_terciles: np.ndarray
) -> dict:
    """Accuracy at threshold 0.5, the rank-sum AUC of :func:`roc_auc` (ties
    share their midrank), accuracy per quality tercile (``nan`` for a
    tercile with no test sample).

    ``X`` holds the test pixels in the transform the model was trained
    under, one row per sample, and ``y`` their targets.
    """
    if len(X) == 0:
        raise ValueError("empty test set")
    scores = forward_batch(params, X)
    correct = (scores >= 0.5) == (y == 1.0)
    in_tercile = (correct[prior_terciles == bucket] for bucket in (0, 1, 2))
    acc_by_tercile = [float(c.mean()) if c.size else np.nan for c in in_tercile]
    return {
        "accuracy": float(correct.mean()),
        "auc": roc_auc(scores, y),
        "acc_by_tercile": acc_by_tercile,
        "scores": scores,
    }


def fit_input_transform(train_images: np.ndarray) -> Callable[..., np.ndarray]:
    """The model's input transform, fit on the training images.

    The returned function maps an ``(m, h, w)`` stack, or its ``(m, h*w)``
    rows, to ``(m, h*w)`` rows, each pixel standardized by the training
    images' per-pixel mean and standard deviation and scaled by
    ``INPUT_GAIN``. As a numpy ufunc does, it writes into ``out`` when one
    is given, which may be its input. Raw [0, 1] pixels leave the net in a
    barely-trainable regime under the small uniform init.
    """
    raw = train_images.reshape(len(train_images), -1)
    mean = raw.mean(axis=0)
    std = (raw.std(axis=0) + 1e-8) / INPUT_GAIN

    def transform(images: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        rows = np.subtract(images.reshape(len(images), -1), mean, out=out)
        return np.divide(rows, std, out=rows)

    return transform


@contextmanager
def _diverges(t: int, where: Callable[[], str], eta_max: float) -> Iterator[None]:
    """Run the block with numpy's overflow and invalid-value errors raised,
    and turn a ``FloatingPointError`` into a ``ValueError`` that names epoch
    ``t``, ``where()`` and ``lr.eta_max``. Nothing overflows in a run that
    converges, so an overflow is a learning rate too large for it."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(
            f"epoch {t}: {where()} ({exc}); lr.eta_max = {eta_max} is too large for this run"
        ) from None


def _build_pool(
    config: RunConfig,
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
    return pacing.build_epoch_pool(
        selection_scores, t, config.seed, config.milestones, config.alpha_k, config.easy_pool_size
    )


def run_training(
    config: RunConfig,
    dataset: tuple[Split, Split] | None = None,
) -> MetricsLog:
    """Train one model under ``config``; every artifact is read from the result.

    ``dataset`` saves generating the splits again, as ``dffc compare`` does
    for the runs of its grid. The run rebuilds no data and builds no
    report; the test-set mirror it returns is what ``extremes.json`` is
    derived from when the artifacts are written.
    """
    train, test = dataset if dataset is not None else forgeries.generate_dataset(config.dataset)
    n = len(train)
    d = train.images[0].size

    prior, normalizer = forgeries.quality_priors(train.images)
    test_prior, _ = forgeries.quality_priors(test.images, normalizer=normalizer)
    terciles = tercile_assignments(test_prior)

    state = hardness.HardnessState.fresh(prior, config.gamma, config.alpha_f)
    # Evaluation-set mirror of the hardness recursion (every test sample is
    # updated each epoch); extremes.json reads it, selection never does.
    test_state = hardness.HardnessState.fresh(test_prior, config.gamma, config.alpha_f)

    params = init_params(d, config.hidden_units, config.seed)
    to_input = fit_input_transform(train.images)
    X_train = to_input(train.images)
    X_test = to_input(test.images)

    # Nothing changes the hardness state between one epoch's update and the
    # next epoch's selection, so each epoch's DFH is the next one's score.
    dfh_now = hardness.dfh_all(state)
    epochs: list[dict] = []
    for t in range(1, config.total_epochs + 1):
        eta = cosine_lr(config.eta_max, config.eta_min, config.total_epochs, t)
        pool = _build_pool(config, dfh_now, prior, t, n)
        ids = pool.entries
        # Ids repeat in a pool's entries, which leaves their min and max as they are.
        pool_scores = dfh_now[ids]
        hard_size, easy_size, overlap = pool.composition(n)
        # The originals are the hard pool, and only they drive DIH updates.
        # Under --augment-all they are trained augmented too, each by a seed
        # of salt 1, which the pool itself does not carry.
        originals = pool.seeds < 0
        seeds = pool.seeds
        if config.augment_all:
            seeds = seeds.copy()
            seeds[originals] = pacing.derive_augmentation_seed(
                config.seed, t, ids[originals], salt=1
            )

        # The augmented entries' pixels, made in one call and standardized in
        # place; each batch gathers its rows from X_train, then overwrites its
        # augmented ones.
        augmented = np.flatnonzero(seeds >= 0)
        X_augmented = np.empty((len(augmented), d))
        if len(augmented):
            augment_pixels(
                train.images, ids[augmented], config.augment, seeds[augmented], X_augmented
            )
            to_input(X_augmented, out=X_augmented)

        # Mini-batch SGD; each batch's probabilities are kept from before
        # its update, and the epoch's losses are taken from them in one
        # elementwise call. Batch k's augmented entries are
        # augmented[edges[k]:edges[k + 1]].
        starts = range(0, len(ids), config.batch_size)
        edges = np.searchsorted(augmented, [*starts, len(ids)]).tolist()
        y_epoch = train.targets[ids]
        epoch_probs = np.empty(len(ids))
        with _diverges(t, lambda: f"SGD diverged in the batch from entry {start}", config.eta_max):
            for start, lo, hi in zip(starts, edges, edges[1:]):
                stop = start + config.batch_size
                Xb = X_train[ids[start:stop]]
                if lo < hi:
                    Xb[augmented[lo:hi] - start] = X_augmented[lo:hi]
                grads, epoch_probs[start:stop] = gradients(params, Xb, y_epoch[start:stop])
                params = sgd_step(params, grads, eta)
        epoch_losses = bce_loss(epoch_probs, y_epoch)
        bad = np.flatnonzero(~np.isfinite(epoch_losses))
        if len(bad):
            raise ValueError(
                f"epoch {t}: non-finite training loss {epoch_losses[bad[0]]} "
                f"(sample {ids[bad[0]]})"
            )

        s_t = hardness.instantaneous_hardness(epoch_losses[originals], eta, config.eta_max)
        hardness.update_dih(state, ids[originals], s_t)

        # The epoch's last update can leave weights that overflow only on the
        # test set: the same divergence, found one step later.
        with _diverges(t, lambda: "the test-set evaluation diverged", config.eta_max):
            metrics = evaluate(params, X_test, test.targets, terciles)
            # Evaluation-set mirror update, from the same test-set scores.
            test_losses = bce_loss(metrics["scores"], test.targets)
            test_s_t = hardness.instantaneous_hardness(test_losses, eta, config.eta_max)
            hardness.update_dih(test_state, np.arange(len(test)), test_s_t)

        acc_easy, acc_mid, acc_hard = metrics["acc_by_tercile"]
        dfh_now = hardness.dfh_all(state)
        epochs.append(
            {
                "epoch": t, "eta": eta, "pool_size": hard_size,
                "train_loss_mean": float(epoch_losses.mean()),
                "test_acc": metrics["accuracy"], "test_auc": metrics["auc"],
                "acc_easy": acc_easy, "acc_mid": acc_mid, "acc_hard": acc_hard,
                "mean_dfh": float(dfh_now.mean()),
                "hard_size": hard_size, "easy_size": easy_size, "overlap": overlap,
                "dfh_min": float(pool_scores.min()), "dfh_max": float(pool_scores.max()),
                "pool": pool, "losses": epoch_losses, "dfh": dfh_now,
            }
        )
        log.info(
            "epoch %(epoch)d: eta=%(eta).5f pool=%(pool_size)d loss=%(train_loss_mean).4f "
            "acc=%(test_acc).4f auc=%(test_auc).4f",
            epochs[-1],
        )

    return MetricsLog(
        epochs=epochs,
        final_params=params,
        train_hardness=state,
        test_hardness=test_state,
        dataset_config=config.dataset,
    )

