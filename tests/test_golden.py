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
