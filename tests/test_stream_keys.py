"""The keyed random streams of a whole run.

Every random draw of the lab comes from a numpy generator made by
``np.random.default_rng`` or keyed by ``np.random.SeedSequence``. Each
function that makes one must use keys no other function uses: numpy pads a
key shorter than four words with zeros, so two keys that look different,
such as ``(seed, 7)`` and ``(seed, 7, 0)``, can make the same generator.
"""

from __future__ import annotations

import sys

import numpy as np

from dffc import cli

#: A run past epoch 7, whose shuffle once shared its key with the DFH-trace
#: picker, with every image augmented (seeds of both salts).
RUN = [
    "dataset.n_train=40", "dataset.n_test=20", "total_epochs=8", "pacing.milestones=[2,4,6]",
    "pacing.easy_pool_size=5", "batch_size=16", "hidden_units=4", "augment_all=true",
]


def _flags(overrides: list[str]) -> list[str]:
    return [arg for override in overrides for arg in ("--override", override)]


def test_no_two_functions_make_the_same_generator(tmp_path, monkeypatch):
    made: dict[tuple[int, ...], set[str]] = {}

    def record(seed_seq) -> None:
        caller = sys._getframe(2)
        name = f"{caller.f_globals['__name__']}.{caller.f_code.co_qualname}"
        made.setdefault(tuple(seed_seq.generate_state(4).tolist()), set()).add(name)

    default_rng, seed_sequence = np.random.default_rng, np.random.SeedSequence

    def recorded_rng(seed=None):
        rng = default_rng(seed)
        # A generator over a SeedSequence was recorded where its key was made.
        if not isinstance(seed, seed_sequence):
            record(rng.bit_generator.seed_seq)
        return rng

    def recorded_seed_sequence(*args, **kwargs):
        seed_seq = seed_sequence(*args, **kwargs)
        record(seed_seq)
        return seed_seq

    monkeypatch.setattr(np.random, "default_rng", recorded_rng)
    monkeypatch.setattr(np.random, "SeedSequence", recorded_seed_sequence)
    assert cli.main(["train", *_flags(RUN), "--out", str(tmp_path / "run")]) == 0
    monkeypatch.undo()

    shared = {state: names for state, names in made.items() if len(names) > 1}
    assert not shared
    makers = set().union(*made.values())
    for expected in ("model.init_params", "pacing._shuffled", "pacing.derive_augmentation_seed",
                     "augment.table_rows", "forgeries._pair_draws", "cli.trace_groups"):
        assert f"dffc.{expected}" in makers, expected


def test_train_at_the_largest_seed_is_reproducible(tmp_path):
    # Seeds of two uint32 words key every stream: the run's and the dataset's.
    largest = [*RUN[:-1], f"seed={2**64 - 1}", f"dataset.seed={2**64 - 1}"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert cli.main(["train", *_flags(largest), "--out", str(out)]) == 0
    names = sorted(path.name for path in runs[0].iterdir())
    assert names == sorted(path.name for path in runs[1].iterdir())
    assert "extremes.json" in names
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
