"""Golden digests: the exact bytes of a run's artifacts.

Criterion 10 compares two runs of the same code, so it cannot see a
numeric drift between versions. These digests pin the bytes themselves:
``GOLDEN`` those of ``metrics.csv`` and ``checkpoint.bin``, and
``GOLDEN_POOL`` those of ``pool_log.csv`` and ``hardness_state.json``,
which hold every epoch's pool sizes, overlap and DFH range and every
final DIH value, update count and prior. The dffc configs augment 300 or
more copies per epoch in one ``augment_pixels`` call, which spans several
chunks of ``augment.AUGMENT_CHUNK``; the vanilla and babystep configs
train on ``pacing.full_pool`` and ``pacing.pool_from_ids``.
``GOLDEN_DATASET`` pins the generated splits themselves, together with
the clean images and brightness deltas that ``forgeries.clean_pairs``
rebuilds for every pair,
``GOLDEN_EXTREMES`` the TAR/SSIM extremes report and the DFH traces, and
``GOLDEN_COMPARISON`` the ``comparison.csv`` of a two-mode, two-seed grid.

The BLAS build can change the last bits of a matrix product, so a digest
may differ on another machine. A failing assertion names the machine and
BLAS build the digests came from next to the ones in use, to tell such a
difference from real drift. The blur is a matrix product too, in the
package and in its single-image oracle in ``oracles.py`` alike, so
``GOLDEN_DATASET`` and every digest of an augmented run depend on the BLAS
build. ``test_augment.py`` checks the augmentation against those oracles
on whatever BLAS is in use, and the oracles' blur against a sum of taps,
which needs no BLAS, to within rounding.
"""

from __future__ import annotations

import hashlib
import platform

import numpy as np
import pytest

from dffc import cli, runner
from dffc.forgeries import TEST_SPLIT, TRAIN_SPLIT, DatasetConfig, clean_pairs, generate_dataset

SMALL = [
    "dataset.n_train=400", "dataset.n_test=100", "total_epochs=5",
    "pacing.milestones=[2,3,4]", "pacing.easy_pool_size=300",
    "batch_size=32", "hidden_units=8", "seed=1", "dataset.seed=1",
]

#: Where the digests below were computed.
GOLDEN_MACHINE = (
    "x86_64 (Intel Xeon), numpy 2.4.6, OpenBLAS 0.3.31.188.0 USE64BITINT "
    "DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64"
)

GOLDEN = {
    "dffc": (
        [],
        "ea22f8dacf48f4edb1623e433549f58ca61d952cf15f6159dd625ef8053a64fd",
    ),
    "dffc_augment_all": (
        ["augment_all=true"],
        "8f137b9bacd1686aaa6d295481f82d87143ee609f82563db92a6a6d08c6294cb",
    ),
    "vanilla": (
        ["mode=vanilla"],
        "d33f5e90fd7cb130623deb8f271631d2ac8674329217db9f795eee989876ffc6",
    ),
    "babystep": (
        ["mode=babystep"],
        "4c1ee1f5b6cc6b8743a41c147ca67dd925f9b13f14a1caf4e779b4b3a29c97a6",
    ),
}

#: SHA-256 of ``pool_log.csv`` + NUL + ``hardness_state.json``, per ``GOLDEN`` config.
GOLDEN_POOL = {
    "dffc": "d84b20b4f797771ee4434ca11ba14adf8b55464d225c80591aeecf9cf831c2ca",
    "dffc_augment_all": "13c1dff45ecccb630469b5f8735ca6f5d33dc206b8f058597d19d606ff92f5d7",
    "vanilla": "44944722e31d987a9cd5929b5b0692c286ec4d084f8fd3a5ed1bd84e45eac0db",
    "babystep": "188e04a8fbf31ed118d35194cde62d0f785bffef41c82de3335e9d672cb47343",
}


#: SHA-256 per split (train, test) of the images, the clean images and the
#: blur sigmas, brightness deltas and amplitudes (0.0 for reals), joined
#: by NUL, per ``DatasetConfig``. The 5 px config blurs with kernel radii
#: up to 9, beyond the image.
GOLDEN_DATASET = {
    "default": (
        {},
        "21bf7c272f51bb83a6b5bdcff614c987226675c25c8491cfb3801ec0bf3834fc",
        "113ae18a42f4053acbb8db377afeee0102ba1386e10901832ac86562603ce078",
    ),
    "32px": (
        {"image_size": 32, "seed": 3},
        "aac2a588e3dc592811a233b01b26421878efa0a8c1f7753e6ae1da8fd4760926",
        "06b1aee6fd5fc6f98a0111eea63ee3fb0fe4a0df5079d4ad752d7a58ab1c2038",
    ),
    "5px_wide_blur": (
        {"image_size": 5, "blur_range": (0, 3), "n_train": 300, "n_test": 100, "seed": 9},
        "87b14d91543c185b0bb02db15754e4f131bd5341f7a624960dfbb58047683de1",
        "37640e5765a2488e090e4d225bc09019b6ca5599126e5642c6665b6fb9e73651",
    ),
}

#: SHA-256 of ``extremes.json`` + NUL + ``dfh_trace.json`` for the ``SMALL`` dffc run.
GOLDEN_EXTREMES = "5d6241f21cb5555d749d523c28e2b7df8285b9670b104a5641688e795de7340d"

#: SHA-256 of ``comparison.csv`` for a ``compare`` grid of vanilla and dffc
#: over seeds 1 and 2 on the ``SMALL`` config.
GOLDEN_COMPARISON = "5fd60c6a81ccf192307e30b4340f440d9d3b714e74e485dc7427bdb3854941c3"


def run_digest(overrides: list[str], out_dir, files=("metrics.csv", "checkpoint.bin")) -> str:
    resolved = cli.resolve_config(None, overrides)
    result = runner.run_training(cli.build_run_config(resolved))
    cli.write_run_artifacts(out_dir, resolved, result)
    first, second = ((out_dir / name).read_bytes() for name in files)
    return hashlib.sha256(first + b"\0" + second).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digest(name, tmp_path):
    extra, digest = GOLDEN[name]
    assert run_digest(SMALL + extra, tmp_path) == digest, mismatch_note()


@pytest.mark.parametrize("name", sorted(GOLDEN_POOL))
def test_pool_log_and_hardness_match_golden_digest(name, tmp_path):
    extra, _ = GOLDEN[name]
    files = ("pool_log.csv", "hardness_state.json")
    assert run_digest(SMALL + extra, tmp_path, files) == GOLDEN_POOL[name], mismatch_note()


@pytest.mark.parametrize("name", sorted(GOLDEN_DATASET))
def test_dataset_matches_golden_digest(name):
    kwargs, *digests = GOLDEN_DATASET[name]
    config = DatasetConfig(**kwargs)
    splits = zip(generate_dataset(config), (TRAIN_SPLIT, TEST_SPLIT))
    assert [split_digest(config, code, split) for split, code in splits] == digests


def test_extremes_and_traces_match_golden_digest(tmp_path):
    files = ("extremes.json", "dfh_trace.json")
    assert run_digest(SMALL, tmp_path, files) == GOLDEN_EXTREMES, mismatch_note()


def test_comparison_matches_golden_digest(tmp_path):
    grid = ['compare.modes=["vanilla","dffc"]', "compare.seeds=[1,2]"]
    flags = [arg for override in SMALL + grid for arg in ("--override", override)]
    assert cli.main(["compare", *flags, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "comparison.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_COMPARISON, mismatch_note()


def split_digest(config: DatasetConfig, split_code: int, split) -> str:
    """The split's arrays and its rebuilt clean images and brightness deltas."""
    clean, _, _, deltas = clean_pairs(config, split_code, np.arange(len(split) // 2))
    arrays = (split.images, clean, split.blur_sigmas, deltas, split.amplitudes)
    return hashlib.sha256(b"\0".join(a.tobytes() for a in arrays)).hexdigest()


def mismatch_note() -> str:
    return (
        f"digests from: {GOLDEN_MACHINE}; this run: {this_machine()}. "
        "If the BLAS builds differ, a changed digest may not be drift."
    )


def this_machine() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        build = "BLAS build unknown"
    return f"{platform.machine()}, numpy {np.__version__}, {build}"
