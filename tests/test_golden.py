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
        "5ba48e1a08b6317d1371e4fd09ba0f82d356eb098fde4531efe957a465273c92",
    ),
    "dffc_augment_all": (
        ["augment_all=true"],
        "613485d1934948ca8da08c5956618c2c1d01dae6b078f903b543b895c0ab5bab",
    ),
    "vanilla": (
        ["mode=vanilla"],
        "4fefba3b311701adb8b037423974f2af6d13e94bf2baff8f2727063be71a8345",
    ),
    "babystep": (
        ["mode=babystep"],
        "19648d11348da26c1de7b5b787f5e748683c93b9604b43ec1f9a46a88632b11f",
    ),
}

#: SHA-256 of ``pool_log.csv`` + NUL + ``hardness_state.json``, per ``GOLDEN`` config.
GOLDEN_POOL = {
    "dffc": "e7c10c90e5bd5ac61a2e0224ef2d0783a529a17fa6f1d5cd787e316831a96362",
    "dffc_augment_all": "06ee09cd2f0870129163697959e0bbd8f8cdfc29a28f2b913c48e711a8ebfcdf",
    "vanilla": "a81a0115a956d4382391bd647b21d8e5b047455fc89a2acf3067023a0c1b311d",
    "babystep": "ee99cb6760081955b5efd78b90304146a462016763835f9d8b6f31c43846d73a",
}


#: SHA-256 per split (train, test) of the images, the clean images and the
#: blur sigmas, brightness deltas and amplitudes (0.0 for reals), joined
#: by NUL, per ``DatasetConfig``. The 5 px config blurs with kernel radii
#: up to 9, beyond the image.
GOLDEN_DATASET = {
    "default": (
        {},
        "35bf45221594c55e146390257e09dbf06b077d1621673c3aef212b1047455f7f",
        "4f0216c64672fbe19053579314ee6dbc36c30105ab4d727738ffcd19215679a5",
    ),
    "32px": (
        {"image_size": 32, "seed": 3},
        "8e8b1ca76e53fbc7179cc2487eed430b7a4bbcbd114db25ebfadc56d8a03abf5",
        "9418e5e445e4bfadce2e43f584786872648c5e0b0ace0ea1a4f070a760754586",
    ),
    "5px_wide_blur": (
        {"image_size": 5, "blur_range": (0, 3), "n_train": 300, "n_test": 100, "seed": 9},
        "831fcc7384387106a4de0f002da397fe623c78b2d6dd0a1216a0ba84abeca788",
        "83e194955d615f070b701ed0b5bbdb0304a3ce83617240af5253321a1d49d55a",
    ),
}

#: SHA-256 of ``extremes.json`` + NUL + ``dfh_trace.json`` for the ``SMALL`` dffc run.
GOLDEN_EXTREMES = "a5b99ec630d56a5d2e298bd374c43b2d3132512307d9993078792738a6ae923d"

#: SHA-256 of ``comparison.csv`` for a ``compare`` grid of vanilla and dffc
#: over seeds 1 and 2 on the ``SMALL`` config.
GOLDEN_COMPARISON = "9a014a974f82efd8341bb4dc455c5c73389dc0018f07bc6e6da1aed88afac571"


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
