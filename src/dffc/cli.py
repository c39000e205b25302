"""Command-line entry point.

Subcommands: ``gen-data``, ``train``, ``compare``, ``inspect-dfh``,
``report``. Configuration is a JSON file whose schema is the config
dataclasses: ``RunConfig`` (with its ``DatasetConfig`` and
``AugmentationSpec`` sections) and :class:`CompareGrid`. They give every
key, its default and its type. Unknown keys are hard errors (curricula
are sensitive to silent hyperparameter typos), and so are values of the
wrong type: an int field takes no bool or float, a float field takes an
int or a finite float, a bool field only true or false, and a tuple
field a list of the right length. ``--override key=value`` uses dotted
paths; the file and each override in turn set the leaves they name,
and a section that holds a non-object is an error. Mode ``dih`` sets
``hardness.alpha_f`` to 0 unless a non-zero value is given, which
``RunConfig`` rejects. Each row of ``compare`` is the ``train`` run of
the same config and overrides followed by the cell's ``mode``,
``augment_all`` and ``seed``, and ``hardness.alpha_f=0`` for a dih
cell; every cell trains on one generated dataset. A bad value raises
``ConfigError`` naming its dotted key before the run starts, and a
config file or run artifact that cannot be read as UTF-8 text raises
one naming the file. Running out of memory exits 1 with one error line
that names the keys sizing the largest arrays. The out dir is made only
when the artifacts are written, so a run that fails leaves none behind.
``resolved_config.json`` written into each run directory reproduces the
run bit-identically. This module is the one home of the run-record
formats: the column tuples of the CSV artifacts, ``dfh_trace.json`` and
the choice of the ids it traces.

Set DFFC_LOG=error|info|debug to control verbosity; any other value stops
the command with a ``ConfigError``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import logging
import os
import re
import sys
import typing
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dffc import forgeries, hardness, runner
from dffc.errors import ConfigError, check_seed, require_keys, typed
from dffc.model import save_checkpoint


@dataclass(frozen=True)
class CompareGrid:
    """The ``compare`` section: one run per (mode, augment_all, seed)."""

    modes: tuple[str, ...] = ("vanilla", "babystep", "dih", "dffc")
    augment_all: tuple[bool, ...] = (False,)
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        # A repeated value would be one run counted as several.
        for f in dataclasses.fields(self):
            values = getattr(self, f.name)
            if not values:
                raise ConfigError(f"{f.name} must hold at least one value")
            if len(set(values)) < len(values):
                raise ConfigError(f"{f.name} must not repeat a value, got {json.dumps(values)}")
        for mode in self.modes:
            if mode not in runner.MODES:
                raise ConfigError(f"modes must each be one of {runner.MODES}, got {mode!r}")
        for seed in self.seeds:
            check_seed("seeds", seed)


@functools.cache
def _fields(cls: type, prefix: str = "") -> tuple[tuple[str, str, object, object], ...]:
    """(field name, dotted JSON path, annotation, default) per field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, prefix + f.metadata.get("json", f.name), hints[f.name], f.default)
        for f in dataclasses.fields(cls)
    )


def _leaves(cls: type, prefix: str = "") -> Iterable[tuple[str, object, object]]:
    """(dotted JSON path, annotation, default) per value of ``cls``'s layout."""
    for _, path, hint, default in _fields(cls, prefix):
        if dataclasses.is_dataclass(hint):
            yield from _leaves(hint, path + ".")
        else:
            yield path, hint, default


def _nest(pairs: Iterable[tuple[str, object]]) -> dict:
    """A nested dict from (dotted path, value) pairs, in their order."""
    tree: dict = {}
    for dotted, value in pairs:
        node = tree
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return tree


#: Dotted path -> (annotation, default) of every config value, in the
#: layout order of ``resolved_config.json``.
_LEAVES = {
    path: (hint, default)
    for path, hint, default in (*_leaves(runner.RunConfig), *_leaves(CompareGrid, "compare."))
}

#: Every proper prefix of a path in ``_LEAVES``, the root ``""`` included.
_SECTIONS = {"", *(path[:i] for path in _LEAVES for i, char in enumerate(path) if char == ".")}


def _flatten(value: object, path: str) -> dict:
    """``{dotted path: value}`` of the config value at ``path``: ``{path: value}``
    unless ``path`` names a section, which must hold an object. Keys inside an
    object are single parts; only the ``path`` of an override holds dots."""
    if path not in _SECTIONS:
        return {path: value}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    flat = {}
    for key, sub in value.items():
        child = f"{path}.{key}" if path else key
        if "." in key:
            raise ConfigError(f"unknown config keys: {child}")
        flat.update(_flatten(sub, child))
    return flat


def _build(cls: type, flat: dict, prefix: str = ""):
    """An instance of ``cls`` from the typed values of ``flat``, lists as tuples.

    The message of a ``ConfigError`` that ``cls``'s checks raise starts with
    the name of the field it blames, which is the last part of that field's
    dotted path; it is re-raised with the name replaced by the whole path.
    """
    fields = _fields(cls, prefix)
    values = {
        name: _build(hint, flat, path + ".") if dataclasses.is_dataclass(hint) else flat[path]
        for name, path, hint, _ in fields
    }
    values = {name: tuple(v) if isinstance(v, list) else v for name, v in values.items()}
    try:
        return cls(**values)
    except ConfigError as exc:
        name = re.match(r"\w*", str(exc)).group()
        paths = {path.rpartition(".")[2]: path for _, path, _, _ in fields}
        if paths.get(name, name) == name:
            raise
        raise ConfigError(paths[name] + str(exc)[len(name):]) from exc


def _parse_overrides(pairs: list[str]) -> list[tuple[str, object]]:
    parsed = []
    for pair in pairs:
        dotted, sep, raw = pair.partition("=")
        if not (sep and dotted):
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parsed.append((dotted, value))
    return parsed


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of the ``what`` at ``path``, or a ``ConfigError`` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def resolve_config(config_path: str | None, overrides: list[str]) -> dict:
    """defaults < file < overrides per leaf, with key and type checks and the
    dih default; a nested dict in the layout of ``resolved_config.json``."""
    user: dict = {}
    if config_path is not None:
        text = _read_text(Path(config_path), "config file")
        try:
            file_cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config root must be a JSON object")
        user = _flatten(file_cfg, "")
    for dotted, value in _parse_overrides(overrides):
        user.update(_flatten(value, dotted))
    bad = user.keys() - _LEAVES.keys()
    if bad:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(bad))}")
    flat = {path: user.get(path, default) for path, (_, default) in _LEAVES.items()}
    for path, (hint, _) in _LEAVES.items():
        typed(flat[path], hint, path)
    # Mode dih's default: alpha_f becomes 0 unless the user gave a non-zero
    # value, which RunConfig then rejects.
    if flat["mode"] == "dih" and user.get("hardness.alpha_f") in (None, 0):
        flat["hardness.alpha_f"] = 0
    return _nest((path, list(v) if isinstance(v, tuple) else v) for path, v in flat.items())


def build_run_config(resolved: dict) -> runner.RunConfig:
    return _build(runner.RunConfig, _flatten(resolved, ""))


def _check_out_dir(out_dir: Path, force: bool, marker: str) -> None:
    if (out_dir / marker).exists() and not force:
        raise ConfigError(
            f"{out_dir} already holds run artifacts; pass --force to overwrite"
        )


def write_pgm(image: np.ndarray, path: Path) -> None:
    """8-bit binary PGM; dependency-free grayscale dump."""
    h, w = image.shape
    data = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# Run records: the formats of the files a run directory holds.

METRICS_COLUMNS = (
    "epoch", "eta", "pool_size", "train_loss_mean", "test_acc", "test_auc",
    "acc_easy", "acc_mid", "acc_hard", "mean_dfh",
)
POOL_LOG_COLUMNS = ("epoch", "hard_size", "easy_size", "overlap", "dfh_min", "dfh_max")
COMPARISON_COLUMNS = ("mode", "augment_all", "seed", "final_acc", "final_auc", "acc_hard")

TRACE_START_EPOCH = 3
TRACE_GROUP_SIZE = 5
#: The spawn key of the ``median`` ids' draw. Each keyed stream of the lab
#: has its own (README, "Random streams").
TRACE_STREAM = 3


def csv_text(columns: tuple[str, ...], rows: list[dict]) -> str:
    """The header ``columns``, then each row's values in that order, as ``str``."""
    lines = [",".join(columns)]
    lines += (",".join(str(row[key]) for key in columns) for row in rows)
    return "\n".join(lines) + "\n"


def trace_groups(epochs: list[dict], seed: int) -> dict[str, list[int]]:
    """The ids ``dfh_trace.json`` traces, picked by their DFH in the record of
    epoch ``TRACE_START_EPOCH``: the ``top`` and ``bottom`` ``TRACE_GROUP_SIZE``
    (at most a third of the samples, at least one), and as many ``median``
    ids drawn by ``SeedSequence(seed, spawn_key=(TRACE_STREAM,))``, ``seed``
    the run's, from the middle third less those. ``{}`` for a run shorter
    than ``TRACE_START_EPOCH`` epochs."""
    if len(epochs) < TRACE_START_EPOCH:
        return {}
    order = np.argsort(epochs[TRACE_START_EPOCH - 1]["dfh"], kind="stable")
    n = len(order)
    k = min(TRACE_GROUP_SIZE, n // 3) or 1
    bottom, top = order[:k], order[-k:]
    mid_lo, mid_hi = n // 3, max(n // 3 + 1, 2 * n // 3)
    pool = order[mid_lo:mid_hi]
    pool = pool[~np.isin(pool, np.concatenate([bottom, top]))]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(TRACE_STREAM,)))
    median = np.sort(pool[rng.choice(len(pool), size=min(k, len(pool)), replace=False)])
    return {"top": top.tolist(), "bottom": bottom.tolist(), "median": median.tolist()}


def dfh_trace_json(epochs: list[dict], seed: int) -> str:
    """Each id of :func:`trace_groups` with its DFH in every record from
    ``TRACE_START_EPOCH`` on."""
    traced = sorted({sid for ids in trace_groups(epochs, seed).values() for sid in ids})
    later = epochs[TRACE_START_EPOCH - 1 :]
    return json.dumps(
        {
            str(sid): {
                "start_epoch": TRACE_START_EPOCH,
                "values": [float(record["dfh"][sid]) for record in later],
            }
            for sid in traced
        },
        indent=1,
    )


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
# Subcommands.

def cmd_gen_data(args: argparse.Namespace) -> int:
    resolved = resolve_config(args.config, args.override)
    train, test = forgeries.generate_dataset(build_run_config(resolved).dataset)
    histograms = []
    for name, key, values in (
        ("fake amplitude", "dataset.amplitude_range", train.amplitudes[train.targets == 1.0]),
        ("blur sigma", "dataset.blur_range", train.blur_sigmas),
    ):
        try:
            histograms.append((name, *np.histogram(values, bins=8)))
        except ValueError as exc:
            raise ConfigError(
                f"{key}: its draws span [{float(values.min())!r}, {float(values.max())!r}], "
                f"too narrow for the histogram ({exc})"
            ) from None
    n_fake = int(train.targets.sum())
    print(f"generated {len(train)} train / {len(test)} test samples")
    print(f"class balance: {n_fake} fake / {len(train) - n_fake} real")
    for name, counts, edges in histograms:
        labels = _edge_labels(edges)
        print(f"{name} histogram:")
        for c, lo, hi in zip(counts, labels, labels[1:]):
            print(f"  [{lo}, {hi}): {c}")
    return 0


def _edge_labels(edges: np.ndarray) -> list[str]:
    """Histogram ``edges`` as text: with three decimals where that tells them
    apart, else with the fewest significant digits that do (17 tell any two
    floats apart)."""
    for spec in (".3f", *(f".{digits}g" for digits in range(1, 17))):
        labels = [format(edge, spec) for edge in edges]
        if len(set(labels)) == len(labels):
            return labels
    return [format(edge, ".17g") for edge in edges]


#: A run whose final test AUC is at most this has not learned to tell the
#: classes apart; a default run ends at 1.0.
COLLAPSE_AUC = 0.6


def collapse_warning(epochs: list[dict]) -> str | None:
    """The ``warning:`` line for a run that did not learn, or None: its final
    ``test_auc`` is at most :data:`COLLAPSE_AUC`, or its final
    ``train_loss_mean`` is above that of the first epoch whose ``pool_size``
    equals the final epoch's. Losses over pools of other sizes, such as a
    babystep run's growing prefix, are not compared, and a final pool size
    that no earlier epoch trained leaves the loss rule out. ``epochs`` are
    the run's records, or the rows of its ``metrics.csv`` as text."""
    for record in epochs:
        require_keys(record, ("pool_size", "train_loss_mean"))
    final = epochs[-1]
    require_keys(final, ("test_auc",))
    auc, loss = float(final["test_auc"]), float(final["train_loss_mean"])
    size = int(final["pool_size"])
    same = next(t for t, record in enumerate(epochs, start=1) if int(record["pool_size"]) == size)
    reasons = []
    if auc <= COLLAPSE_AUC:
        reasons.append(f"final test_auc {auc:.4f} is at most {COLLAPSE_AUC}")
    if same < len(epochs):
        same_loss = float(epochs[same - 1]["train_loss_mean"])
        if loss > same_loss:
            reasons.append(
                f"final train_loss_mean {loss:.4f} is above epoch {same}'s {same_loss:.4f}"
            )
    return f"warning: the run did not learn: {'; '.join(reasons)}" if reasons else None


def write_run_artifacts(out: Path, resolved: dict, result: runner.MetricsLog) -> None:
    """Write every artifact of a finished run into ``out``.

    ``dfh_trace.json`` and ``extremes.json`` are built here, the one place
    that builds each: the traces from the run's epoch records, with the ids
    picked by :func:`trace_groups` under the run's seed, and the extremes
    from the DFH of the run's final test-set mirror, with the test pairs it
    selects rebuilt from the run's dataset config.
    """
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(json.dumps(resolved, indent=1))
    (out / "metrics.csv").write_text(csv_text(METRICS_COLUMNS, result.epochs))
    (out / "pool_log.csv").write_text(csv_text(POOL_LOG_COLUMNS, result.epochs))
    (out / "dfh_trace.json").write_text(dfh_trace_json(result.epochs, resolved["seed"]))
    scores = hardness.dfh_all(result.test_hardness)
    extremes = forgeries.dfh_extremes_report(result.dataset_config, forgeries.TEST_SPLIT, scores)
    (out / "extremes.json").write_text(json.dumps(extremes, indent=1))
    (out / "hardness_state.json").write_text(result.train_hardness.to_json())
    save_checkpoint(
        result.final_params,
        seed=resolved["seed"],
        epoch=resolved["total_epochs"],
        header_path=out / "checkpoint.json",
        blob_path=out / "checkpoint.bin",
    )


def cmd_train(args: argparse.Namespace) -> int:
    resolved = resolve_config(args.config, args.override)
    config = build_run_config(resolved)
    out = Path(args.out)
    _check_out_dir(out, args.force, "resolved_config.json")
    result = runner.run_training(config)
    write_run_artifacts(out, resolved, result)
    final = result.epochs[-1]
    print(f"run complete: mode={config.mode} seed={config.seed} "
          f"acc={final['test_acc']:.4f} auc={final['test_auc']:.4f}")
    print(f"artifacts in {out}")
    warning = collapse_warning(result.epochs)
    if warning:
        print(warning, file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    resolved = resolve_config(args.config, args.override)
    grid = _build(CompareGrid, _flatten(resolved, ""), "compare.")
    # Each cell is the train run of the user's config and overrides, then the
    # cell's own values; a dih cell's alpha_f is 0 whatever the others use.
    configs = []
    for mode, aug, seed in itertools.product(grid.modes, grid.augment_all, grid.seeds):
        cell = [f"mode={json.dumps(mode)}", f"augment_all={json.dumps(aug)}", f"seed={seed}"]
        cell += ["hardness.alpha_f=0"] if mode == "dih" else []
        configs.append(build_run_config(resolve_config(args.config, [*args.override, *cell])))
    out = Path(args.out)
    _check_out_dir(out, args.force, "comparison.csv")
    # No cell sets a dataset key, so every run trains on one dataset.
    dataset = forgeries.generate_dataset(configs[0].dataset)
    rows = []
    for config in configs:
        final = runner.run_training(config, dataset).epochs[-1]
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
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.csv").write_text(csv_text(COMPARISON_COLUMNS, rows))
    for entry in summarize_comparison(rows):
        print(
            f"{entry['mode']:>9} aug={str(entry['augment_all']):<5} "
            f"acc={entry['final_acc_mean']:.4f}±{entry['final_acc_std']:.4f} "
            f"auc={entry['final_auc_mean']:.4f}±{entry['final_auc_std']:.4f} "
            f"acc_hard={entry['acc_hard_mean']:.4f}±{entry['acc_hard_std']:.4f}"
        )
    print(f"wrote {out / 'comparison.csv'}")
    return 0


def cmd_inspect_dfh(args: argparse.Namespace) -> int:
    for flag, k in (("--top", args.top), ("--bottom", args.bottom)):
        if k < 0:
            raise ConfigError(f"{flag} must be non-negative, got {k}")
    run_dir = Path(args.run_dir)
    path = run_dir / "hardness_state.json"
    text = _read_text(path, "run artifact")
    try:
        state = hardness.HardnessState.from_json(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")
    resolved = resolve_config(str(run_dir / "resolved_config.json"), [])
    train = forgeries.generate_split(build_run_config(resolved).dataset, forgeries.TRAIN_SPLIT)
    scores = hardness.dfh_all(state)
    n = len(scores)
    if n != len(train):
        raise ConfigError(
            f"hardness_state.json holds {n} samples, but resolved_config.json "
            f"generates {len(train)} training samples"
        )
    if args.top > n or args.bottom > n:
        print(f"warning: k exceeds sample count {n}; clamping", file=sys.stderr)
    # A slice stops at the end of the order, which clamps each k to n.
    order = np.argsort(scores, kind="stable")
    groups = {"top": [int(i) for i in order[::-1][: args.top]],
              "bottom": [int(i) for i in order[: args.bottom]]}
    out = run_dir / "inspection"
    report = {}
    for group, ids in groups.items():
        (out / group).mkdir(parents=True, exist_ok=True)
        rows = []
        for sid in ids:
            write_pgm(train.images[sid], out / group / f"sample_{sid:05d}.pgm")
            rows.append(
                {
                    "id": sid,
                    "label": forgeries.LABEL_FAKE if train.targets[sid] else forgeries.LABEL_REAL,
                    "amplitude": float(train.amplitudes[sid]),
                    "sigma": float(train.blur_sigmas[sid]),
                    "q": float(state.prior[sid]),
                    "dih": float(state.dih[sid]),
                    "dfh": float(scores[sid]),
                }
            )
        report[group] = rows
    (out / "report.json").write_text(json.dumps(report, indent=1))
    for group, rows in report.items():
        print(f"{group}-DFH samples:")
        for row in rows:
            print(
                f"  id={row['id']:>5} {row['label']:>4} dfh={row['dfh']:.4f} "
                f"dih={row['dih']:.4f} q={row['q']:.3f} "
                f"amp={row['amplitude']:.3f} sigma={row['sigma']:.3f}"
            )
    print(f"images and report in {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    metrics_path, extremes_path = run_dir / "metrics.csv", run_dir / "extremes.json"
    lines = _read_text(metrics_path, "run artifact").rstrip().splitlines()
    if len(lines) < 2:
        raise ConfigError(f"{metrics_path}: expected a header and epoch rows")
    header = lines[0].split(",")
    epochs = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ConfigError(
                f"{metrics_path}: line {number} has {len(fields)} fields, "
                f"but the header has {len(header)}"
            )
        epochs.append(dict(zip(header, fields)))
    text = _read_text(extremes_path, "run artifact")
    try:
        extremes = json.loads(text)
        require_keys(extremes, ("top", "bottom"))
        for group in ("top", "bottom"):
            require_keys(extremes[group], forgeries.EXTREMES_KEYS, f"{group}.")
    except ValueError as exc:
        raise ConfigError(f"{extremes_path}: {exc}")
    try:
        warning = collapse_warning(epochs)
    except ValueError as exc:
        raise ConfigError(f"{metrics_path}: {exc}")
    print("final epoch metrics:")
    for key, value in epochs[-1].items():
        print(f"  {key}: {value}")
    for group in ("top", "bottom"):
        stats = extremes[group]
        print(
            f"{group}-DFH fakes: mean TAR={stats['mean_tar']:.4f} "
            f"mean SSIM={stats['mean_ssim']:.4f} (n={len(stats['ids'])})"
        )
    if warning:
        print(warning, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dffc",
        description="Curriculum-learning experiments on a synthetic forgery benchmark",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE",
            help="dotted-path config override (repeatable)",
        )

    def add_out_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing artifacts")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset and print its statistics")
    add_config_args(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one training experiment")
    add_config_args(p)
    add_out_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="run the mode-comparison grid")
    add_config_args(p)
    add_out_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("inspect-dfh", help="dump extreme-hardness samples from a run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--bottom", type=int, default=5)
    p.set_defaults(func=cmd_inspect_dfh)

    p = sub.add_parser("report", help="summarize a finished run")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("DFFC_LOG") or "error"
        if level.lower() not in ("error", "info", "debug"):
            raise ConfigError(f"DFFC_LOG must be one of error, info, debug, got {level!r}")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(message)s")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(
            f"error: out of memory ({str(exc) or 'no detail'}); the largest arrays grow with "
            "dataset.n_train, dataset.n_test, dataset.image_size and hidden_units",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
