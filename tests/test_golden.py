"""Golden digests: the exact bytes of ``metrics.csv`` and ``checkpoint.bin``.

Criterion 10 compares two runs of the same code, so it cannot see a
numeric drift between versions. These digests pin the bytes themselves.
Both configs augment 300 or more copies per epoch, so the easy-pool
augmentation spans several chunks of ``runner.AUGMENT_CHUNK``.

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
}


def run_digest(overrides: list[str], out_dir) -> str:
    resolved = cli.resolve_config(None, overrides)
    result = runner.run_training(cli.build_run_config(resolved))
    cli.write_run_artifacts(out_dir, resolved, result)
    metrics_csv = (out_dir / "metrics.csv").read_bytes()
    checkpoint = (out_dir / "checkpoint.bin").read_bytes()
    return hashlib.sha256(metrics_csv + b"\0" + checkpoint).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digest(name, tmp_path):
    extra, digest = GOLDEN[name]
    assert run_digest(SMALL + extra, tmp_path) == digest, (
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
