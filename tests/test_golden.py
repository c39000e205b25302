"""Golden digests: the exact bytes of a run's artifacts.

Criterion 10 compares two runs of the same code, so it cannot see a
numeric drift between versions. These digests pin the bytes themselves:
``GOLDEN`` those of ``metrics.csv`` and ``checkpoint.bin``, and
``GOLDEN_POOL`` those of ``pool_log.csv`` and ``hardness_state.json``,
which hold every epoch's pool sizes, overlap and DFH range and every
final DIH value, update count and prior. The dffc configs augment 300 or
more copies per epoch, so the easy-pool augmentation spans several
chunks of ``runner.AUGMENT_CHUNK``; the vanilla and babystep configs
train on ``pacing.full_pool`` and ``pacing.pool_from_ids``.
``GOLDEN_DATASET`` pins the generated splits themselves,
``GOLDEN_EXTREMES`` the TAR/SSIM extremes report and the DFH traces, and
``GOLDEN_COMPARISON`` the ``comparison.csv`` of a two-mode, two-seed grid.

The BLAS build can change the last bits of a matrix product, so a digest
may differ on another machine. A failing assertion names the machine and
BLAS build the digests came from next to the ones in use, to tell such a
difference from real drift. The scalar oracles in ``test_augment.py``
check the augmentation on its own, independent of BLAS.
"""

from __future__ import annotations

import hashlib
import platform

import numpy as np
import pytest

from dffc import cli, runner
from dffc.forgeries import DatasetConfig, generate_dataset

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
        "68bc0503150b39dadca080c49d59d26ae2de6aeea1b3df0dd049684c65012df5",
    ),
    "dffc_augment_all": (
        ["augment_all=true"],
        "6ab8008fc8c9c24a3c191a830e6ac916c8d8a10818f041368c4ae1abee490c66",
    ),
    "vanilla": (
        ["mode=vanilla"],
        "df3ddf56dae703e56fae7b40b49e5cb9756532faefbe82d69faaf29f217feb67",
    ),
    "babystep": (
        ["mode=babystep"],
        "212c239316cfef484ae60a3a2dcdff4828c29f0588d6085e5ef96b0584b4e895",
    ),
}

#: SHA-256 of ``pool_log.csv`` + NUL + ``hardness_state.json``, per ``GOLDEN`` config.
GOLDEN_POOL = {
    "dffc": "667cdaa53d8a1b00d9c621d3b6010bd3a3c5d0f9047bc3931842eb2bd7476ee7",
    "dffc_augment_all": "fc196310e467b14cd4528ea7f6f31ffe8a3c98c2089f13e83d44cf7ddc2b8db0",
    "vanilla": "05348ac671396d1bc36428662647b69bd3f14233e9ad0c0cd52a616b8b1dc417",
    "babystep": "a66ce5b07ee63a16898038022a70b4e94b2f35c57ec286ac189cc05e9cfa977d",
}


#: SHA-256 per split (train, test) of the images, the clean images and the
#: blur sigmas, brightness deltas and amplitudes (0.0 for reals), joined
#: by NUL, per ``DatasetConfig``. The 5 px config blurs with kernel radii
#: up to 9, beyond the image.
GOLDEN_DATASET = {
    "default": (
        {},
        "127204960bd48973d5f4184ad61368cd9b3a08876ac67085085983c3cde1cad8",
        "39459c26ec47d0abd0d2fe8d22151b3826396aebb602d08fe506a41ba6bcf2ac",
    ),
    "32px": (
        {"image_size": 32, "seed": 3},
        "8d46ac0955891d63fd7bd2729730af1909f21e7c9daa406b9c0c8555aeada7c3",
        "cdd0f49653ffd7590e3f99a566ecb9fc94db6079e5020f348918df3770cfbd65",
    ),
    "5px_wide_blur": (
        {"image_size": 5, "blur_range": (0, 3), "n_train": 300, "n_test": 100, "seed": 9},
        "bb57f71190176980a7c1d073126c295774afe5fb9f134741ddcfa74a3d5f3613",
        "6d6f54e414ee257243df6935035d6d1d977a110b22f5bec8422e50d0befe925b",
    ),
}

#: SHA-256 of ``extremes.json`` + NUL + ``dfh_trace.json`` for the ``SMALL`` dffc run.
GOLDEN_EXTREMES = "501c8f9e0cafebbbdbd8d63ad695e5857dcab01b729cbfd35f10787cd8c10976"

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
    splits = generate_dataset(DatasetConfig(**kwargs))
    assert [split_digest(split) for split in splits] == digests


def test_extremes_and_traces_match_golden_digest(tmp_path):
    files = ("extremes.json", "dfh_trace.json")
    assert run_digest(SMALL, tmp_path, files) == GOLDEN_EXTREMES, mismatch_note()


def test_comparison_matches_golden_digest(tmp_path):
    grid = ['compare.modes=["vanilla","dffc"]', "compare.seeds=[1,2]"]
    flags = [arg for override in SMALL + grid for arg in ("--override", override)]
    assert cli.main(["compare", *flags, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "comparison.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_COMPARISON, mismatch_note()


def split_digest(split) -> str:
    arrays = (
        split.images, split.clean_images,
        split.blur_sigmas, split.brightness_deltas, split.amplitudes,
    )
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
