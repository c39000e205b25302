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
paths and takes precedence over the file. Mode ``dih`` sets
``hardness.alpha_f`` to 0; an explicit non-zero value contradicts it.
``resolved_config.json`` written into each run directory reproduces the
run bit-identically.

Set DFFC_LOG=error|info|debug to control verbosity.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import logging
import os
import sys
import typing
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dffc import forgeries, hardness, runner
from dffc.errors import ConfigError, require_keys
from dffc.model import save_checkpoint

log = logging.getLogger("dffc")


@dataclass(frozen=True)
class CompareGrid:
    """The ``compare`` section: one run per (mode, augment_all, seed)."""

    modes: tuple[str, ...] = ("vanilla", "babystep", "dih", "dffc")
    augment_all: tuple[bool, ...] = (False,)
    seeds: tuple[int, ...] = (0,)


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


def _lookup(tree: dict, dotted: str) -> object:
    for part in dotted.split("."):
        tree = tree[part]
    return tree


_LEAVES = [*_leaves(runner.RunConfig), *_leaves(CompareGrid, "compare.")]

DEFAULT_CONFIG = _nest(
    (path, list(default) if isinstance(default, tuple) else default)
    for path, _, default in _LEAVES
)


_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _typed(value: object, hint: object, key: str) -> object:
    """``value`` checked against the annotation ``hint``; lists come back as tuples."""
    if typing.get_origin(hint) is tuple:
        kinds = typing.get_args(hint)
        variadic = kinds[-1] is Ellipsis
        if not isinstance(value, list | tuple) or not (variadic or len(value) == len(kinds)):
            count = "" if variadic else f"{len(kinds)} "
            raise ConfigError(f"{key}: expected a list of {count}values, got {value!r}")
        if variadic:
            kinds = kinds[:1] * len(value)
        return tuple(_typed(v, kind, f"{key}[{i}]") for i, (v, kind) in enumerate(zip(value, kinds)))
    kinds = (int, float) if hint is float else (hint,)
    # abs() <= max is False for NaN, the infinities and ints beyond float range.
    if type(value) not in kinds or (hint is float and not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key}: expected {_EXPECTED[hint]}, got {value!r}")
    return value


def _build(cls: type, resolved: dict, prefix: str = ""):
    """An instance of ``cls`` from its typed values in the resolved config."""
    return cls(**{
        name: _build(hint, resolved, path + ".") if dataclasses.is_dataclass(hint)
        else _typed(_lookup(resolved, path), hint, path)
        for name, path, hint, _ in _fields(cls, prefix)
    })


def _check_keys(user: dict, defaults: dict, path: str = "") -> list[str]:
    bad = []
    for key, value in user.items():
        here = f"{path}{key}"
        if key not in defaults:
            bad.append(here)
        elif isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object, got {value!r}")
            bad += _check_keys(value, defaults[key], here + ".")
    return bad


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_overrides(pairs: list[str]) -> dict:
    parsed = []
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        dotted, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parsed.append((dotted, value))
    return _nest(parsed)


def _apply_dih_rule(resolved: dict, explicit_alpha_f: object = None) -> None:
    """Mode ``dih`` is ``dffc`` without the quality prior: ``hardness.alpha_f``
    becomes 0, and an explicit non-zero value is an error."""
    if resolved["mode"] != "dih":
        return
    if explicit_alpha_f not in (None, 0):
        raise ConfigError(f"mode 'dih' contradicts hardness.alpha_f={explicit_alpha_f}")
    resolved["hardness"]["alpha_f"] = 0


def resolve_config(config_path: str | None, overrides: list[str]) -> dict:
    """defaults < file < overrides, with unknown-key, type and mode checks."""
    file_cfg: dict = {}
    if config_path is not None:
        try:
            file_cfg = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config root must be a JSON object")
    override_cfg = _parse_overrides(overrides)
    user = _deep_merge(file_cfg, override_cfg)
    bad = _check_keys(user, DEFAULT_CONFIG)
    if bad:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(bad))}")
    resolved = _deep_merge(DEFAULT_CONFIG, user)
    for path, hint, _ in _LEAVES:
        _typed(_lookup(resolved, path), hint, path)
    _apply_dih_rule(resolved, user.get("hardness", {}).get("alpha_f"))
    return resolved


def build_run_config(resolved: dict) -> runner.RunConfig:
    try:
        return _build(runner.RunConfig, resolved)
    except ValueError as exc:  # includes dataclass validation errors
        raise ConfigError(str(exc))


def _read_artifact(path: Path) -> str:
    try:
        return path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"missing run artifact: {path}")


def _prepare_out_dir(out_dir: Path, force: bool, marker: str) -> None:
    if (out_dir / marker).exists() and not force:
        raise ConfigError(
            f"{out_dir} already holds run artifacts; pass --force to overwrite"
        )
    out_dir.mkdir(parents=True, exist_ok=True)


def write_pgm(image: np.ndarray, path: Path) -> None:
    """8-bit binary PGM; dependency-free grayscale dump."""
    h, w = image.shape
    data = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_gen_data(args: argparse.Namespace) -> int:
    resolved = resolve_config(args.config, args.override)
    train, test = forgeries.generate_dataset(build_run_config(resolved).dataset)
    n_fake = int(train.targets.sum())
    print(f"generated {len(train)} train / {len(test)} test samples")
    print(f"class balance: {n_fake} fake / {len(train) - n_fake} real")
    counts, edges = np.histogram(train.amplitudes[1::2], bins=8)
    print("fake amplitude histogram:")
    for c, lo, hi in zip(counts, edges, edges[1:]):
        print(f"  [{lo:.3f}, {hi:.3f}): {c}")
    counts, edges = np.histogram(train.blur_sigmas, bins=8)
    print("blur sigma histogram:")
    for c, lo, hi in zip(counts, edges, edges[1:]):
        print(f"  [{lo:.3f}, {hi:.3f}): {c}")
    return 0


def write_run_artifacts(out: Path, resolved: dict, result: runner.MetricsLog) -> None:
    (out / "resolved_config.json").write_text(json.dumps(resolved, indent=1))
    (out / "metrics.csv").write_text(runner.csv_text(runner.METRICS_COLUMNS, result.rows))
    (out / "pool_log.csv").write_text(runner.csv_text(runner.POOL_LOG_COLUMNS, result.pool_rows))
    (out / "dfh_trace.json").write_text(runner.dfh_trace_json(result))
    (out / "extremes.json").write_text(json.dumps(result.extremes, indent=1))
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
    _prepare_out_dir(out, args.force, "resolved_config.json")
    result = runner.run_training(config)
    write_run_artifacts(out, resolved, result)
    final = result.rows[-1]
    print(f"run complete: mode={config.mode} seed={config.seed} "
          f"acc={final['test_acc']:.4f} auc={final['test_auc']:.4f}")
    print(f"artifacts in {out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    resolved = resolve_config(args.config, args.override)
    grid = _build(CompareGrid, resolved, "compare.")
    configs = []
    for mode in grid.modes:
        for aug in grid.augment_all:
            for seed in grid.seeds:
                variant = copy.deepcopy(resolved)
                variant.update(mode=mode, augment_all=aug, seed=seed)
                _apply_dih_rule(variant)
                configs.append(build_run_config(variant))
    out = Path(args.out)
    _prepare_out_dir(out, args.force, "comparison.csv")
    rows = runner.compare_modes(configs)
    (out / "comparison.csv").write_text(runner.csv_text(runner.COMPARISON_COLUMNS, rows))
    for entry in runner.summarize_comparison(rows):
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
    text = _read_artifact(path)
    try:
        state = hardness.HardnessState.from_json(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")
    resolved = resolve_config(str(run_dir / "resolved_config.json"), [])
    train, _ = forgeries.generate_dataset(build_run_config(resolved).dataset)
    scores = hardness.dfh_all(state)
    n = len(scores)
    if n != len(train):
        raise ConfigError(
            f"hardness_state.json holds {n} samples, but resolved_config.json "
            f"generates {len(train)} training samples"
        )
    top_k, bottom_k = args.top, args.bottom
    if top_k > n or bottom_k > n:
        print(f"warning: k exceeds sample count {n}; clamping", file=sys.stderr)
        top_k, bottom_k = min(top_k, n), min(bottom_k, n)
    order = np.argsort(scores, kind="stable")
    groups = {"top": [int(i) for i in order[::-1][:top_k]],
              "bottom": [int(i) for i in order[:bottom_k]]}
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
                    "label": (forgeries.LABEL_REAL, forgeries.LABEL_FAKE)[sid % 2],
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
    metrics = _read_artifact(metrics_path).strip().splitlines()
    if len(metrics) < 2:
        raise ConfigError(f"{metrics_path}: expected a header and epoch rows")
    text = _read_artifact(extremes_path)
    try:
        extremes = json.loads(text)
        require_keys(extremes, ("top", "bottom"))
        for group in ("top", "bottom"):
            require_keys(extremes[group], ("ids", "mean_tar", "mean_ssim"), f"{group}.")
    except ValueError as exc:
        raise ConfigError(f"{extremes_path}: {exc}")
    header = metrics[0].split(",")
    final = dict(zip(header, metrics[-1].split(",")))
    print("final epoch metrics:")
    for key, value in final.items():
        print(f"  {key}: {value}")
    for group in ("top", "bottom"):
        stats = extremes[group]
        print(
            f"{group}-DFH fakes: mean TAR={stats['mean_tar']:.4f} "
            f"mean SSIM={stats['mean_ssim']:.4f} (n={len(stats['ids'])})"
        )
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
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("DFFC_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
