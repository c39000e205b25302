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
        "0422fe604a5b5c7f9f4a180253064959761ebb7f485a0830232ddfd13bc3cba8",
    ),
    "dffc_augment_all": (
        ["augment_all=true"],
        "9df6424e43279c51eb85044b32069d490ab1d6258d1094d6c0a203611069c0ed",
    ),
    "vanilla": (
        ["mode=vanilla"],
        "bccfbf23f7526198d4167583fe36f09872cbb7338f3146f01bc6207b92a19c7d",
    ),
    "babystep": (
        ["mode=babystep"],
        "824799a23aba104379d9d75f18b795d0e96f442f2d258370aed8855ea84c2e22",
    ),
}

#: SHA-256 of ``pool_log.csv`` + NUL + ``hardness_state.json``, per ``GOLDEN`` config.
GOLDEN_POOL = {
    "dffc": "51e32060adf3b25b59ce733605f5e392612334a27daee78e8fddaaa2984491cf",
    "dffc_augment_all": "0b62f67006b9a835011cb9df6e21567f1c83be9b5fdb7fcc5d6087f5582407ed",
    "vanilla": "321dd0b642fe93bc1b10b7a078647e8f4f501e507fca3226a544c16ed89995f6",
    "babystep": "9701e96a5c9fc6bde8049fc23b8fcf0c807aaa856b7dc3a039de0e64405932eb",
}


#: SHA-256 per split (train, test) of the images, the clean images and the
#: blur sigmas, brightness deltas and amplitudes (0.0 for reals), joined
#: by NUL, per ``DatasetConfig``. The 5 px config blurs with kernel radii
#: up to 9, beyond the image.
GOLDEN_DATASET = {
    "default": (
        {},
        "c26f5f26d1ffd7f1e0e10abf48c7e072c4a37a2c346923c2589ae9b1411e324c",
        "e581841c172923db7fb4d4ac803cd317224e8a3eb498f9300f0beaffe08f1323",
    ),
    "32px": (
        {"image_size": 32, "seed": 3},
        "9394bb98d1974f058e40dad98a5a10481d5221809e863f1cf94996f567c30459",
        "1fecd620b25a06e6e3f4cce1735a9812eddc38ebe9f0d9d8b94543816966fe4e",
    ),
    "5px_wide_blur": (
        {"image_size": 5, "blur_range": (0, 3), "n_train": 300, "n_test": 100, "seed": 9},
        "e35d2e340b92eb55540050a7924d7fa3d0762e1974769bfd01b63b42ee179838",
        "62ea500cf5a0750a86fa826e0a2e80365a82d4715fb271b814e8d2f598cf0c40",
    ),
}

#: SHA-256 of ``extremes.json`` + NUL + ``dfh_trace.json`` for the ``SMALL`` dffc run.
GOLDEN_EXTREMES = "c1d25e834b978593d9499752461e31af313df1120d41aed29b6d27da6e5923bb"

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
