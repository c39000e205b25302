"""End-to-end tests for the command-line interface.

All invocations go through ``dffc.cli.main`` in-process with a small
config so the whole module runs in seconds.  [TRIVIAL] oracles
throughout: determinism via file hashes, validation via exit codes,
artifact presence and structure.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_golden import GOLDEN_EXTREMES, SMALL

from dffc import cli, forgeries, runner
from dffc.errors import ConfigError

SMALL_OVERRIDES = [
    "--override", "dataset.n_train=60",
    "--override", "dataset.n_test=20",
    "--override", "total_epochs=6",
    "--override", "pacing.milestones=[2,3,4]",
    "--override", "pacing.easy_pool_size=10",
    "--override", "batch_size=16",
    "--override", "hidden_units=8",
]


#: Two epochs of 40/20 samples: the run the config sweep varies. Under
#: ``mode=babystep`` with ``lr.eta_max=1e30`` its first epoch's SGD, one
#: batch, ends in weights that overflow only on the test set.
TINY = [
    "dataset.n_train=40", "dataset.n_test=20", "total_epochs=2", "pacing.milestones=[1,2]",
    "pacing.easy_pool_size=5", "batch_size=16", "hidden_units=4",
]


#: SHA-256 of ``json.dumps(cli.resolve_config(None, []), indent=1)``: the layout
#: and defaults of ``resolved_config.json``, which earlier runs are reproduced from.
DEFAULT_CONFIG_SHA256 = "8735814627d83550f6bff6545cf996b06efdf993320a5d92c08b2183c5ff9fa0"


#: One value away from its default per kind of leaf: root, section, list and
#: ``compare`` values.
LEAF_VALUES = {
    "seed": 3,
    "augment_all": True,
    "dataset.n_train": 40,
    "dataset.blur_range": [0.1, 0.2],
    "hardness.gamma": 0.8,
    "pacing.milestones": [1, 2],
    "augment.rotation_range_degrees": [-5, 5],
    "compare.modes": ["dih"],
}


def _config_args(form, tmp_path):
    """The ``resolve_config`` arguments that set ``LEAF_VALUES``: in a file, as
    dotted overrides, or with one override per root key, a whole section each."""
    if form == "dotted":
        return None, [f"{path}={json.dumps(value)}" for path, value in LEAF_VALUES.items()]
    tree = {}
    for path, value in LEAF_VALUES.items():
        *parents, key = path.split(".")
        node = tree
        for part in parents:
            node = node.setdefault(part, {})
        node[key] = value
    if form == "section":
        return None, [f"{key}={json.dumps(value)}" for key, value in tree.items()]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tree))
    return str(cfg), []


class TestResolveConfig:
    @pytest.mark.parametrize("form", ["file", "dotted", "section"])
    def test_leaves_set_in_any_form_resolve_alike(self, form, tmp_path):
        expected = cli.resolve_config(None, [])
        for path, value in LEAF_VALUES.items():
            *parents, key = path.split(".")
            node = expected
            for part in parents:
                node = node[part]
            node[key] = value
        resolved = cli.resolve_config(*_config_args(form, tmp_path))
        assert json.dumps(resolved) == json.dumps(expected)

    def test_later_section_override_keeps_earlier_leaves(self):
        resolved = cli.resolve_config(None, ["dataset.n_test=20", 'dataset={"n_train": 40}'])
        assert resolved["dataset"]["n_test"] == 20
        assert resolved["dataset"]["n_train"] == 40

    def test_bad_file_section_named_under_a_dotted_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": 5}))
        code = cli.main(["gen-data", "--config", str(cfg), "--override", "dataset.n_train=40"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: dataset: expected an object"), err

    def test_dotted_key_in_a_file_is_unknown(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset.n_train": 40}))
        with pytest.raises(ConfigError, match=r"unknown config keys: dataset\.n_train$"):
            cli.resolve_config(str(cfg), [])

    def test_defaults_when_nothing_given(self):
        resolved = cli.resolve_config(None, [])
        assert cli.build_run_config(resolved) == runner.RunConfig()
        grid = cli._build(cli.CompareGrid, cli._flatten(resolved, ""), "compare.")
        assert grid == cli.CompareGrid()

    def test_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "dataset": {"n_train": 100}}))
        resolved = cli.resolve_config(str(cfg), [])
        assert resolved["seed"] == 7
        assert resolved["dataset"]["n_train"] == 100
        assert resolved["dataset"]["n_test"] == 1000  # untouched default

    def test_cli_overrides_beat_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7}))
        resolved = cli.resolve_config(str(cfg), ["seed=9"])
        assert resolved["seed"] == 9

    def test_dotted_override_paths(self):
        resolved = cli.resolve_config(None, ["lr.eta_max=0.2", "pacing.alpha_k=0.8"])
        assert resolved["lr"]["eta_max"] == 0.2
        assert resolved["pacing"]["alpha_k"] == 0.8

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            cli.resolve_config(None, ["learning_rate=0.1"])

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": {"n_trian": 10}}))
        with pytest.raises(ConfigError, match="dataset.n_trian"):
            cli.resolve_config(str(cfg), [])

    def test_dih_mode_forces_alpha_f_zero(self):
        resolved = cli.resolve_config(None, ["mode=dih"])
        assert resolved["hardness"]["alpha_f"] == 0

    def test_dih_mode_contradiction_rejected(self):
        resolved = cli.resolve_config(None, ["mode=dih", "hardness.alpha_f=0.5"])
        with pytest.raises(ConfigError, match=r"mode 'dih' needs hardness\.alpha_f = 0, got 0\.5"):
            cli.build_run_config(resolved)

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            cli.resolve_config("/nonexistent/cfg.json", [])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            cli.resolve_config(None, ["seed"])

    def test_override_without_a_key(self):
        # An empty path would name the root and set any leaf from an object.
        with pytest.raises(ConfigError, match="key=value"):
            cli.resolve_config(None, ['={"seed": 3}'])

    def test_build_run_config_surfaces_validation(self):
        resolved = cli.resolve_config(None, ["total_epochs=0"])
        with pytest.raises(ConfigError):
            cli.build_run_config(resolved)


class TestSchema:
    def test_default_config_layout_is_pinned(self):
        text = json.dumps(cli.resolve_config(None, []), indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_CONFIG_SHA256

    @pytest.mark.parametrize(
        "override, key",
        [
            ("seed=1.5", "seed"),
            ("dataset.n_train=10.0", "dataset.n_train"),
            ("total_epochs=2.5", "total_epochs"),
            ("hardness.gamma=null", "hardness.gamma"),
            ('pacing.alpha_k="0.9"', "pacing.alpha_k"),
            ("pacing.milestones=3", "pacing.milestones"),
            ("dataset.blur_range=[0,NaN]", "dataset.blur_range"),
            ("compare.seeds=[1.5]", "compare.seeds"),
            ("batch_size=true", "batch_size"),
            ("augment_all=1", "augment_all"),
            ("hardness.alpha_f=Infinity", "hardness.alpha_f"),
            ("hardness=0.5", "hardness"),
        ],
    )
    def test_bad_value_exits_two_naming_the_key(self, override, key, tmp_path, capsys):
        out = tmp_path / "x"
        code = cli.main(["train", "--override", override, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and key in errors[0], err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, overrides, field",
        [
            ("train", ["pacing.milestones=[]"], "milestones"),
            ("train", ["mode=dih", "pacing.milestones=[2,30]"], "total_epochs"),
            ("train", ["mode=babystep", "babystep.growth_factor=0.5"], "growth_factor"),
            ("compare", ["pacing.milestones=[]"], "milestones"),
            ("train", ["lr.eta_min=0"], "eta_min"),
            ("train", ["lr.eta_max=0.0001"], "eta_max"),
            ("train", ["hardness.gamma=2"], "gamma"),
            ("train", ["hardness.alpha_f=-1"], "alpha_f"),
            ("compare", ["hardness.gamma=2"], "gamma"),
            ("compare", ["compare.seeds=[]"], "compare.seeds"),
            ("compare", ["compare.modes=[]"], "compare.modes"),
            ("compare", ["compare.augment_all=[]"], "compare.augment_all"),
            # A repeated value would be one run counted as several.
            ("compare", ['compare.modes=["vanilla","vanilla"]'], "compare.modes"),
            ("compare", ["compare.augment_all=[false,false]"], "compare.augment_all"),
            ("compare", ["compare.seeds=[0,0]"], "compare.seeds"),
            ("train", ["augment.brightness_range=[-1e308,1e308]"], "brightness_range"),
            ("train", ["dataset.brightness_range=[-1e308,1e308]"], "brightness_range"),
            # A rule's error names the dotted key of the field it blames.
            ("train", ["augment.brightness_range=[1,0]"], "augment.brightness_range"),
            ("train", ["dataset.brightness_range=[1,0]"], "dataset.brightness_range"),
            ("train", ["hardness.gamma=2"], "hardness.gamma"),
            ("train", ["lr.eta_min=0"], "lr.eta_min"),
            ("train", ["pacing.alpha_k=0"], "pacing.alpha_k"),
            ("train", ["pacing.milestones=[3,2]"], "pacing.milestones"),
            ("train", ["mode=babystep", "babystep.step_length=0"], "babystep.step_length"),
            ("train", ["dataset.n_train=3"], "dataset.n_train"),
            ("train", ["augment.blur_sigma_range=[-1,1]"], "augment.blur_sigma_range"),
            # A shift of 1 or more clips every pixel of a [0, 1] image.
            ("train", ["dataset.brightness_range=[2,2]"], "dataset.brightness_range"),
            ("train", ["dataset.brightness_range=[-1,-1]"], "dataset.brightness_range"),
            ("train", ["dataset.brightness_range=[0.5,1]"], "dataset.brightness_range"),
            # The warp's int64 pixel index cannot reach a shift beyond 2**62.
            (
                "train", ["augment.translation_range_pixels=[1e19,1e19]"],
                "augment.translation_range_pixels",
            ),
            ("compare", ['compare.modes=["dffc","dfc"]'], "compare.modes"),
            # A blur sigma above the image size would build kernels of gigabytes.
            ("train", ["augment.blur_sigma_range=[1e7,1e7]"], "augment.blur_sigma_range"),
            ("train", ["dataset.blur_range=[1e7,1e7]"], "dataset.blur_range"),
            # Arrays whose byte count is beyond np.intp cannot exist.
            ("train", [f"hidden_units={2**63}"], "hidden_units"),
            ("train", [f"hidden_units={2**63 - 1}"], "hidden_units"),
            ("train", [f"dataset.image_size={2**63}"], "dataset.image_size"),
            ("train", [f"dataset.n_train={2**63}"], "dataset.n_train"),
            ("train", [f"dataset.n_test={2**63}"], "dataset.n_test"),
            ("gen-data", [f"dataset.n_test={2**63}"], "dataset.n_test"),
            # The largest loss times eta_max / eta_min overflows the hardness.
            ("train", ["lr.eta_min=5e-324"], "lr.eta_min"),
            ("train", ["lr.eta_max=1e308", "lr.eta_min=1e308"], "lr.eta_max"),
        ],
    )
    def test_schedule_of_the_mode_checked_before_out_dir(
        self, command, overrides, field, tmp_path, capsys
    ):
        out = tmp_path / "x"
        flags = [arg for override in overrides for arg in ("--override", override)]
        out_flags = [] if command == "gen-data" else ["--out", str(out)]
        assert cli.main([command, *flags, *out_flags]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and field in errors[0], err
        assert not out.exists()

    def test_schedule_of_another_mode_not_checked(self):
        for overrides in (
            ["mode=vanilla", "pacing.milestones=[]"],
            ["mode=babystep", "pacing.milestones=[]"],
            ["babystep.growth_factor=0.5"],
        ):
            cli.build_run_config(cli.resolve_config(None, overrides))

    def test_last_part_of_each_run_config_path_is_unique(self):
        # A check's error starts with it, and _build maps it to the whole path.
        names = [path.rpartition(".")[2] for _, path, _, _ in cli._fields(runner.RunConfig)]
        assert len(set(names)) == len(names)

    def test_int_accepted_for_float_field(self):
        config = cli.build_run_config(cli.resolve_config(None, ["lr.eta_max=1"]))
        assert config.eta_max == 1


class TestUnreadableConfig:
    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_config_file_named(self, kind, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"\xff{}")
        out = tmp_path / "x"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert str(cfg) in err[0]
        assert not out.exists()


#: Edge values per annotation of a ``cli._LEAVES`` leaf.
SWEEP_VALUES = {
    int: [0, 1, -1, 2**63],
    float: [0, 5e-324, 1e-300, -1, 1, 1e300],
    tuple[float, float]: [
        [0, 0], [1, 1.0000000000000002], [5, 1], [-1e300, 1e300], [0, 1e300],
        [1e-320, 1e-310], [1e308, 1e308],
    ],
    tuple[int, ...]: [[], [0], [-1], [1], [2], [3], [1, 1], [2, 1], [2**63]],
}
#: Annotations of leaves with no numeric edge to sweep.
NOT_SWEPT = (str, bool, tuple[str, ...], tuple[bool, ...])


class TestConfigSweep:
    """Every numeric leaf of the config at each edge value of its type, on
    ``TINY`` under every mode, with a ``RuntimeWarning`` raised as an error.
    A ``compare.*`` leaf is read only by ``compare``, so it runs a one-mode
    ``compare`` grid of each mode; every other leaf runs ``train``. A run
    exits 0, or exits 1 or 2 with one ``error:`` line that names the swept
    leaf. ``total_epochs=2**63`` is left out: a valid run that never ends."""

    @pytest.mark.parametrize(
        "path", [path for path, (hint, _) in cli._LEAVES.items() if hint not in NOT_SWEPT]
    )
    def test_edge_values_run_or_name_their_key(self, path, tmp_path, capsys):
        name = path.rpartition(".")[2]
        command = "compare" if path.startswith("compare.") else "train"
        failures = []
        for value in SWEEP_VALUES[cli._LEAVES[path][0]]:
            if (path, value) == ("total_epochs", 2**63):
                continue
            for mode in runner.MODES:
                if command == "compare":
                    cell = f"compare.modes={json.dumps([mode])}"
                else:
                    cell = f"mode={mode}"
                overrides = [*TINY, cell, f"{path}={json.dumps(value)}"]
                flags = [arg for override in overrides for arg in ("--override", override)]
                case = f"{command} {path}={json.dumps(value)} mode={mode}"
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        code = cli.main([command, *flags, "--out", str(tmp_path), "--force"])
                except Exception as exc:  # every exception that escapes main is a finding
                    failures.append(f"{case}: raised {exc!r}")
                    continue
                err = capsys.readouterr().err
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                if "Traceback" in err or "RuntimeWarning" in err:
                    failures.append(f"{case}: {err!r}")
                elif code != 0 and not (code in (1, 2) and len(errors) == 1 and name in errors[0]):
                    failures.append(f"{case}: exit {code}, {err!r}")
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_compare_seed_out_of_range_names_compare_seeds(self, seed, tmp_path, capsys):
        flags = [arg for override in TINY for arg in ("--override", override)]
        out = tmp_path / "cmp"
        argv = ["compare", *flags, "--override", f"compare.seeds=[{seed}]", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: compare.seeds must be in 0..2**64 - 1, got {seed}"]
        assert not out.exists()


class TestRuntime:
    def test_importing_the_cli_loads_no_scipy(self):
        # A fresh interpreter: this test process has imported scipy itself.
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys, dffc.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "[]", done.stdout


#: ``dffc gen-data``'s printout of the default dataset.
DEFAULT_GEN_DATA_PRINTOUT = """\
generated 2000 train / 1000 test samples
class balance: 1000 fake / 1000 real
fake amplitude histogram:
  [0.120, 0.130): 110
  [0.130, 0.140): 119
  [0.140, 0.150): 126
  [0.150, 0.160): 129
  [0.160, 0.170): 126
  [0.170, 0.180): 121
  [0.180, 0.190): 154
  [0.190, 0.200): 115
blur sigma histogram:
  [0.000, 0.063): 234
  [0.063, 0.125): 272
  [0.125, 0.188): 252
  [0.188, 0.250): 249
  [0.250, 0.312): 263
  [0.312, 0.375): 226
  [0.375, 0.437): 239
  [0.437, 0.500): 265
"""


class TestGenData:
    def test_printout_is_deterministic(self, capsys):
        args = ["gen-data", *SMALL_OVERRIDES]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first
        assert "generated 60 train / 20 test samples" in first
        assert "amplitude histogram" in first

    @pytest.mark.parametrize(
        "first, second, named",
        [
            pytest.param("seed=1", "seed.x=1", "seed.x", id="seed=1-seed.x=1"),
            # The section override is bad on its own, whatever follows it.
            pytest.param(
                "hardness=0.5", "hardness.gamma=0.9", "hardness: expected an object",
                id="hardness=0.5-hardness.gamma=0.9",
            ),
        ],
    )
    def test_override_under_a_non_object_names_the_key(self, first, second, named, capsys):
        code = cli.main(["gen-data", "--override", first, "--override", second])
        err = capsys.readouterr().err
        assert code == 2
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and named in errors[0], err
        assert "Traceback" not in err

    def test_default_printout_is_pinned(self, capsys):
        assert cli.main(["gen-data"]) == 0
        assert capsys.readouterr().out == DEFAULT_GEN_DATA_PRINTOUT

    def test_bins_of_a_narrow_range_print_apart(self, capsys):
        flags = ["--override", "dataset.blur_range=[0,1e-200]"]
        assert cli.main(["gen-data", *SMALL_OVERRIDES, *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        bins = lines[lines.index("blur sigma histogram:") + 1 :]
        edges = [line.partition(":")[0] for line in bins]
        assert len(edges) == 8 and len(set(edges)) == 8, bins

    @pytest.mark.parametrize(
        "key, bounds", [("dataset.blur_range", "[1,1.0000000000000002]"),
                        ("dataset.amplitude_range", "[0.1,0.10000000000000002]")],
    )
    def test_range_narrower_than_its_bins_names_the_key(self, key, bounds, capsys):
        # Draws one float apart leave no room for 8 distinct histogram bins.
        assert cli.main(["gen-data", *SMALL_OVERRIDES, "--override", f"{key}={bounds}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error: {key}:"), errors

    def test_has_no_out_option(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["gen-data", "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "r"
    code = cli.main(["train", *SMALL_OVERRIDES, "--out", str(out)])
    assert code == 0
    return out


class TestTrain:
    def test_artifacts_written(self, run_dir):
        for name in ("resolved_config.json", "metrics.csv", "pool_log.csv",
                     "dfh_trace.json", "extremes.json", "hardness_state.json",
                     "checkpoint.json", "checkpoint.bin"):
            assert (run_dir / name).exists(), name

    def test_metrics_csv_shape(self, run_dir):
        lines = (run_dir / "metrics.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 1 + 6  # header + total_epochs rows

    def test_resolved_config_reproduces_run(self, run_dir, tmp_path):
        out = tmp_path / "again"
        code = cli.main(
            ["train", "--config", str(run_dir / "resolved_config.json"),
             "--out", str(out)]
        )
        assert code == 0
        assert (out / "metrics.csv").read_bytes() == (run_dir / "metrics.csv").read_bytes()
        assert (out / "checkpoint.bin").read_bytes() == (run_dir / "checkpoint.bin").read_bytes()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "r"
        out.mkdir()
        (out / "resolved_config.json").write_text("{}")
        args = ["train", *SMALL_OVERRIDES, "--out", str(out)]
        assert cli.main(args) == 2
        assert "--force" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()
        assert cli.main([*args, "--force"]) == 0
        assert (out / "metrics.csv").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_failed_run_leaves_no_out_dir(self, command, tmp_path, monkeypatch, capsys):
        def nan_losses(probs, y):
            return np.full(len(y), np.nan)

        monkeypatch.setattr(runner, "bce_loss", nan_losses)
        out = tmp_path / "nested" / "x"
        assert cli.main([command, *SMALL_OVERRIDES, "--out", str(out)]) == 1
        assert "non-finite training loss" in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("key", ["dataset.blur_range", "augment.blur_sigma_range"])
    def test_underflowing_blur_sigma_trains_as_zero_does(self, key, tmp_path):
        # 2 * sigma**2 underflows to 0 below about 1.5e-162: such a sigma
        # blurs as sigma 0 does, where its kernel would be 0/0 at its centre.
        metrics = []
        for hi in ("1e-200", "0"):
            out = tmp_path / hi
            flags = ["--override", f"{key}=[0,{hi}]"]
            assert cli.main(["train", *SMALL_OVERRIDES, *flags, "--out", str(out)]) == 0
            metrics.append((out / "metrics.csv").read_bytes())
        assert metrics[0] == metrics[1]

    @pytest.mark.parametrize(
        "command, key",
        [
            ("gen-data", "dataset.blur_range"),
            ("train", "dataset.blur_range"),
            ("train", "augment.blur_sigma_range"),
        ],
    )
    def test_smallest_blur_sigmas_run_without_a_warning(self, command, key, tmp_path, capsys):
        # Near sigma 1.6e-162 a kernel's x**2 / (2 * sigma**2) overflows to
        # inf. The SMALL_OVERRIDES run is too small to learn, which warns.
        overrides = [
            "dataset.n_train=400", "dataset.n_test=100", "total_epochs=5",
            "pacing.milestones=[2,3,4]", "pacing.easy_pool_size=100", f"{key}=[1e-160,1e-160]",
        ]
        flags = [arg for override in overrides for arg in ("--override", override)]
        out = ["--out", str(tmp_path / "r")] if command == "train" else []
        assert cli.main([command, *flags, *out]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "overrides, code, key",
        [
            ([*SMALL, "lr.eta_min=5e-324"], 2, "lr.eta_min"),
            ([*SMALL, "lr.eta_max=1e30"], 1, "lr.eta_max"),
            # SGD ends epoch 1, and its weights overflow in the evaluation.
            ([*TINY, "mode=babystep", "lr.eta_max=1e30"], 1, "lr.eta_max"),
            # The first update's eta * grad overflows its cast to float32.
            ([*SMALL, "lr.eta_max=1e39"], 1, "lr.eta_max"),
        ],
        ids=["eta_min", "eta_max", "eta_max-in-evaluation", "eta_max-beyond-float32"],
    )
    def test_overflowing_learning_rate_names_its_key_without_a_warning(
        self, overrides, code, key, tmp_path
    ):
        # A fresh interpreter with numpy's default warnings, so a raw
        # RuntimeWarning would reach stderr instead of raising in this process.
        src = str(Path(cli.__file__).resolve().parents[1])
        flags = [arg for o in overrides for arg in ("--override", o)]
        out = tmp_path / "r"
        done = subprocess.run(
            [sys.executable, "-m", "dffc.cli", "train", *flags, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
            capture_output=True, text=True,
        )
        assert done.returncode == code, done.stderr
        errors = done.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:") and key in errors[0], errors
        assert "RuntimeWarning" not in done.stderr and "Traceback" not in done.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                [*SMALL, "lr.eta_max=1e30"],
                "epoch 1: SGD diverged in the batch from entry 32 (…); "
                "lr.eta_max = 1e+30 is too large for this run",
            ),
            (
                [*TINY, "mode=babystep", "lr.eta_max=1e30"],
                "epoch 1: the test-set evaluation diverged (…); "
                "lr.eta_max = 1e+30 is too large for this run",
            ),
            # Beyond float32's range the first update's cast overflows,
            # before any weight is written.
            (
                [*SMALL, "lr.eta_max=1e39"],
                "epoch 1: SGD diverged in the batch from entry 0 (…); "
                "lr.eta_max = 1e+39 is too large for this run",
            ),
        ],
        ids=["sgd", "evaluation", "sgd-first-batch"],
    )
    def test_divergence_message_word_for_word(self, overrides, message):
        # Word for word, but for numpy's own text inside the parentheses.
        config = cli.build_run_config(cli.resolve_config(None, overrides))
        with pytest.raises(ValueError) as info:
            runner.run_training(config)
        before, after = message.split("(…)")
        assert re.fullmatch(re.escape(before) + r"\([^()]+\)" + re.escape(after), str(info.value))

    @pytest.mark.parametrize(
        "override", ["dataset.image_size=4096", "hidden_units=100000000"], ids=["images", "weights"]
    )
    def test_running_out_of_memory_exits_one_naming_the_sizes(self, override, tmp_path):
        # The child's address space is capped at 1 GiB; the first array the
        # override sizes (250 GiB of images, 191 GiB of weights) is refused
        # outright, so nothing near the cap is ever touched.
        cap = 1 << 30

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        src = str(Path(cli.__file__).resolve().parents[1])
        out = tmp_path / "r"
        done = subprocess.run(
            [sys.executable, "-m", "dffc.cli", "train", "--override", override, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            preexec_fn=limit_address_space,
        )
        assert done.returncode == 1, done.stderr
        errors = done.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: out of memory"), errors
        keys = ("dataset.n_train", "dataset.n_test", "dataset.image_size", "hidden_units")
        assert all(key in errors[0] for key in keys), errors
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--override", "mode=bogus", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_quality_tercile_reads_nan(self, tmp_path):
        # Two test samples leave the mid tercile empty; its accuracy is nan,
        # with no RuntimeWarning (an error under this suite's filter).
        out = tmp_path / "r"
        flags = ["--override", "mode=vanilla", "--override", "dataset.n_test=2"]
        assert cli.main(["train", *SMALL_OVERRIDES, *flags, "--out", str(out)]) == 0
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        column = header.split(",").index("acc_mid")
        assert [row.split(",")[column] for row in rows] == ["nan"] * 6


#: A babystep run on ``SMALL``'s sizes whose pool grows every epoch (100,
#: 150, 225, 338 and 400 samples) and learns (test AUC 0.75). Its final
#: loss, over the whole dataset, is above epoch 1's over the easiest
#: quarter, which is no collapse.
GROWING_BABYSTEP = [
    "mode=babystep", "babystep.step_length=1", "batch_size=16", "hidden_units=32",
    "seed=0", "dataset.seed=0",
]


class TestLogLevel:
    @pytest.mark.parametrize("value", ["bogus", "warning"])
    def test_unknown_value_stops_the_command(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DFFC_LOG", value)
        out = tmp_path / "r"
        assert cli.main(["train", *SMALL_OVERRIDES, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: DFFC_LOG must be one of error, info, debug, got {value!r}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["error", "info", "debug", "INFO", ""])
    def test_accepted_values_run_the_command(self, value, run_dir, monkeypatch):
        # An empty value is the default, as if DFFC_LOG were unset.
        monkeypatch.setenv("DFFC_LOG", value)
        assert cli.main(["report", "--run-dir", str(run_dir)]) == 0


class TestCollapseWarning:
    """``SMALL`` of ``test_golden.py`` learns (dffc AUC 0.877), and so does
    ``GROWING_BABYSTEP``; with ``lr.eta_max=1e6`` it collapses (AUC 0.44,
    loss 7.03 -> 8.78)."""

    @pytest.mark.parametrize(
        "extra, warns",
        [([], False), (GROWING_BABYSTEP, False), (["lr.eta_max=1e6"], True)],
        ids=["learns", "learns-babystep-growing", "collapsed"],
    )
    def test_train_and_report_warn_only_on_a_collapsed_run(self, extra, warns, tmp_path, capsys):
        flags = [arg for override in SMALL + extra for arg in ("--override", override)]
        assert cli.main(["train", *flags, "--out", str(tmp_path)]) == 0
        train_err = capsys.readouterr().err
        assert cli.main(["report", "--run-dir", str(tmp_path)]) == 0
        report_err = capsys.readouterr().err
        for err in (train_err, report_err):
            warnings = [line for line in err.splitlines() if line.startswith("warning:")]
            assert len(warnings) == warns, err
        assert train_err == report_err

    @pytest.mark.parametrize(
        "auc, final_loss, named",
        [
            (0.6, 0.1, ["test_auc 0.6000"]),
            (0.61, 0.5, ["train_loss_mean 0.5000 is above epoch 1's 0.4000"]),
            (0.5, 0.5, ["test_auc 0.5000", "train_loss_mean 0.5000"]),
            (0.61, 0.4, []),
        ],
        ids=["auc-at-the-bound", "loss-rose", "both", "neither"],
    )
    def test_each_rule_on_hand_records(self, auc, final_loss, named):
        epochs = [
            {"test_auc": 0.9, "train_loss_mean": 0.4, "pool_size": 10},
            {"test_auc": auc, "train_loss_mean": final_loss, "pool_size": 10},
        ]
        warning = cli.collapse_warning(epochs)
        if not named:
            assert warning is None
        else:
            assert warning.startswith("warning:") and "\n" not in warning
            assert all(part in warning for part in named), warning

    def test_loss_over_a_grown_pool_is_not_compared(self):
        # A babystep run's later pools hold harder samples: a loss above
        # epoch 1's over a larger pool is no sign of collapse.
        epochs = [
            {"test_auc": 0.7, "train_loss_mean": loss, "pool_size": size}
            for loss, size in ((0.55, 100), (0.57, 150), (0.58, 225), (0.6, 400))
        ]
        assert cli.collapse_warning(epochs) is None

    def test_loss_compared_with_the_first_epoch_of_the_final_size(self):
        epochs = [
            {"test_auc": 0.9, "train_loss_mean": loss, "pool_size": size}
            for loss, size in ((0.3, 100), (0.5, 400), (0.45, 400), (0.52, 400))
        ]
        warning = cli.collapse_warning(epochs)
        assert warning == (
            "warning: the run did not learn: final train_loss_mean 0.5200 "
            "is above epoch 2's 0.5000"
        )
        epochs[-1]["train_loss_mean"] = 0.49
        assert cli.collapse_warning(epochs) is None


class TestShortRun:
    def test_run_shorter_than_the_trace_start_has_no_traces(self, tmp_path):
        assert cli.TRACE_START_EPOCH > 2
        short = ["--override", "total_epochs=2", "--override", "pacing.milestones=[2]"]
        out = tmp_path / "r"
        assert cli.main(["train", *SMALL_OVERRIDES, *short, "--out", str(out)]) == 0
        assert (out / "dfh_trace.json").read_text() == "{}"
        resolved = cli.resolve_config(str(out / "resolved_config.json"), [])
        result = runner.run_training(cli.build_run_config(resolved))
        assert cli.trace_groups(result.epochs, resolved["seed"]) == {}
        assert cli.main(["report", "--run-dir", str(out)]) == 0
        assert cli.main(["inspect-dfh", "--run-dir", str(out)]) == 0


def _edit(dotted, change):
    """An edit of a JSON document that replaces the value at ``dotted`` by
    ``change(value)``."""

    def edit(text):
        doc = json.loads(text)
        *parents, key = dotted.split(".")
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = change(node[key])
        return json.dumps(doc)

    return edit


class TestInspectAndReport:
    def test_inspect_writes_images_and_report(self, run_dir, capsys):
        code = cli.main(
            ["inspect-dfh", "--run-dir", str(run_dir), "--top", "3", "--bottom", "2"]
        )
        assert code == 0
        report = json.loads((run_dir / "inspection" / "report.json").read_text())
        assert len(report["top"]) == 3 and len(report["bottom"]) == 2
        for row in report["top"] + report["bottom"]:
            assert set(row) == {"id", "label", "amplitude", "sigma", "q", "dih", "dfh"}
        top_pgms = list((run_dir / "inspection" / "top").glob("sample_*.pgm"))
        assert len(top_pgms) == 3
        # Top group is sorted by descending DFH, bottom ascending.
        top_dfh = [r["dfh"] for r in report["top"]]
        assert top_dfh == sorted(top_dfh, reverse=True)
        assert "top-DFH samples" in capsys.readouterr().out

    def test_inspect_clamps_oversized_k(self, run_dir, capsys):
        code = cli.main(
            ["inspect-dfh", "--run-dir", str(run_dir), "--top", "999", "--bottom", "1"]
        )
        assert code == 0
        assert "clamping" in capsys.readouterr().err

    def test_inspect_zero_k_gives_empty_report(self, run_dir):
        code = cli.main(
            ["inspect-dfh", "--run-dir", str(run_dir), "--top", "0", "--bottom", "0"]
        )
        assert code == 0
        report = json.loads((run_dir / "inspection" / "report.json").read_text())
        assert report == {"top": [], "bottom": []}

    @pytest.mark.parametrize("flag", ["--top", "--bottom"])
    def test_inspect_rejects_negative_k(self, run_dir, tmp_path, flag, capsys):
        copy = _copy_run_state(run_dir, tmp_path)
        code = cli.main(["inspect-dfh", "--run-dir", str(copy), flag, "-1"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert flag in err[0] and "-1" in err[0]
        assert not (copy / "inspection").exists()

    def test_inspect_rejects_sample_count_mismatch(self, run_dir, tmp_path, capsys):
        copy = _copy_run_state(run_dir, tmp_path)
        resolved = json.loads((copy / "resolved_config.json").read_text())
        resolved["dataset"]["n_train"] = 80
        (copy / "resolved_config.json").write_text(json.dumps(resolved))
        code = cli.main(["inspect-dfh", "--run-dir", str(copy)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "60" in err[0] and "80" in err[0]
        assert not (copy / "inspection").exists()

    def test_inspect_generates_only_the_training_split(self, run_dir, monkeypatch):
        codes = []
        generate = forgeries.generate_split
        monkeypatch.setattr(
            forgeries, "generate_split", lambda cfg, code: codes.append(code) or generate(cfg, code)
        )
        assert cli.main(["inspect-dfh", "--run-dir", str(run_dir)]) == 0
        assert codes == [forgeries.TRAIN_SPLIT]

    def test_inspect_missing_run_dir(self, tmp_path, capsys):
        code = cli.main(["inspect-dfh", "--run-dir", str(tmp_path / "nope")])
        assert code == 2

    def test_report_prints_summary(self, run_dir, capsys):
        assert cli.main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "final epoch metrics" in out
        assert "top-DFH fakes" in out

    def test_report_missing_artifacts(self, tmp_path):
        assert cli.main(["report", "--run-dir", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize(
        "command, name",
        [("inspect-dfh", "hardness_state.json"), ("report", "metrics.csv")],
    )
    def test_non_utf8_artifact_named(self, run_dir, tmp_path, command, name, capsys):
        copy = _copy_run_state(run_dir, tmp_path)
        (copy / name).write_bytes(b"\xff" + (copy / name).read_bytes())
        assert cli.main([command, "--run-dir", str(copy)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert str(copy / name) in err[0]
        assert not (copy / "inspection").exists()

    @pytest.mark.parametrize(
        "command, name, edit, named",
        [
            ("inspect-dfh", "hardness_state.json", lambda text: _drop_key(text, "prior"), "'prior'"),
            ("inspect-dfh", "hardness_state.json", lambda _: "[1, 2]", "JSON object"),
            ("report", "extremes.json", lambda text: _drop_key(text, "top"), "'top'"),
            ("report", "metrics.csv", lambda _: "", "epoch rows"),
            (
                "report", "metrics.csv",
                lambda text: text.replace("test_auc", "auc", 1), "'test_auc'",
            ),
            (
                "report", "metrics.csv",
                lambda _: "epoch,eta,pool_size\n1,0.1\n", "line 2 has 2 fields",
            ),
            (
                "report", "metrics.csv",
                lambda text: "\n".join(
                    line + ",0" * (i == 2) for i, line in enumerate(text.splitlines())
                ),
                "line 3 has 11 fields",
            ),
            (
                "inspect-dfh", "hardness_state.json",
                _edit("gamma", lambda _: None), "gamma: expected",
            ),
            (
                "inspect-dfh", "hardness_state.json",
                _edit("alpha_f", lambda _: "0.5"), "alpha_f: expected",
            ),
            (
                "inspect-dfh", "hardness_state.json",
                _edit("update_count", lambda _: [None]), "update_count[0]: expected",
            ),
            (
                "inspect-dfh", "hardness_state.json",
                _edit("prior", lambda prior: [[q] for q in prior]), "prior[0]: expected",
            ),
            (
                "report", "extremes.json",
                _edit("top.mean_tar", lambda _: "x"), "top.mean_tar: expected",
            ),
            (
                "report", "extremes.json",
                _edit("bottom.mean_ssim", lambda _: None), "bottom.mean_ssim: expected",
            ),
            ("report", "extremes.json", _edit("top.ids", lambda _: 3), "top.ids: expected"),
        ],
        ids=[
            "state-without-prior", "state-not-an-object", "extremes-without-top", "empty-metrics",
            "metrics-without-test_auc", "metrics-short-row", "metrics-long-row",
            "state-null-gamma", "state-string-alpha_f", "state-null-update_count", "state-2d-prior",
            "extremes-string-mean_tar", "extremes-null-mean_ssim", "extremes-ids-not-a-list",
        ],
    )
    def test_malformed_artifact_named_without_traceback(
        self, run_dir, tmp_path, command, name, edit, named, capsys
    ):
        copy = _copy_run_state(run_dir, tmp_path)
        (copy / name).write_text(edit((copy / name).read_text()))
        assert cli.main([command, "--run-dir", str(copy)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert name in err[0] and named in err[0]
        assert not (copy / "inspection").exists()

    @pytest.mark.parametrize(
        "command, key, path, value",
        [
            pytest.param(command, key, path, value, id=f"{command}-{key}-{value}")
            for command, key, path in (
                ("train", "hardness.gamma", None),
                ("inspect-dfh", "gamma", ["gamma"]),
                ("report", "top.mean_tar", ["top", "mean_tar"]),
            )
            for value in ("null", "true", '"x"', "NaN", "Infinity")
        ]
        + [pytest.param("inspect-dfh", "dih[0]", ["dih", 0], "NaN", id="inspect-dfh-dih[0]-NaN")],
    )
    def test_config_and_artifact_values_share_one_check(
        self, run_dir, tmp_path, command, key, path, value, capsys
    ):
        """A number read from a config override, ``hardness_state.json`` or
        ``extremes.json`` (``path`` in it) is held to the same rule."""
        if command == "train":
            argv = ["train", "--override", f"{key}={value}", "--out", str(tmp_path / "x")]
        else:
            copy = _copy_run_state(run_dir, tmp_path)
            name = {"inspect-dfh": "hardness_state.json", "report": "extremes.json"}[command]
            doc = json.loads((copy / name).read_text())
            *parents, last = path
            node = doc
            for part in parents:
                node = node[part]
            node[last] = json.loads(value)
            (copy / name).write_text(json.dumps(doc))
            argv = [command, "--run-dir", str(copy)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert f"{key}: expected a finite number" in err[0], err


def _drop_key(text, key):
    doc = json.loads(text)
    del doc[key]
    return json.dumps(doc)


def _copy_run_state(run_dir, tmp_path):
    """The artifacts ``inspect-dfh`` and ``report`` read, in a fresh run directory."""
    copy = tmp_path / "run"
    copy.mkdir()
    for name in ("resolved_config.json", "hardness_state.json", "metrics.csv", "extremes.json"):
        (copy / name).write_bytes((run_dir / name).read_bytes())
    return copy


class TestExtremesReport:
    """``extremes.json`` is built, and the ids of ``dfh_trace.json`` picked,
    when a run's artifacts are written, never during training, so a compare
    cell does neither."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """The arguments of each call of the extremes report and of the trace
        picking, by the name of the function called."""
        calls = {"dfh_extremes_report": [], "trace_groups": []}
        for module, name in ((forgeries, "dfh_extremes_report"), (cli, "trace_groups")):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *args, name=name, original=original: (
                    calls[name].append(args) or original(*args)
                ),
            )
        return calls

    def test_compare_builds_none(self, calls, tmp_path):
        grid = ['compare.modes=["vanilla","dffc"]']
        flags = [arg for override in SMALL + grid for arg in ("--override", override)]
        assert cli.main(["compare", *flags, "--out", str(tmp_path)]) == 0
        assert calls == {"dfh_extremes_report": [], "trace_groups": []}

    def test_train_builds_one_with_golden_bytes(self, calls, tmp_path):
        flags = [arg for override in SMALL for arg in ("--override", override)]
        assert cli.main(["train", *flags, "--out", str(tmp_path)]) == 0
        assert [len(made) for made in calls.values()] == [1, 1]
        files = (tmp_path / name for name in ("extremes.json", "dfh_trace.json"))
        digest = hashlib.sha256(b"\0".join(path.read_bytes() for path in files)).hexdigest()
        assert digest == GOLDEN_EXTREMES


class TestCompare:
    def test_two_mode_grid(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = cli.main(
            ["compare", *SMALL_OVERRIDES,
             "--override", 'compare.modes=["vanilla","dffc"]',
             "--out", str(out)]
        )
        assert code == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "mode,augment_all,seed,final_acc,final_auc,acc_hard"
        assert len(lines) == 3
        assert lines[1].startswith("vanilla,") and lines[2].startswith("dffc,")
        printed = capsys.readouterr().out
        assert "vanilla" in printed and "dffc" in printed

    def test_dataset_generated_once(self, tmp_path, monkeypatch):
        generated = []
        generate = forgeries.generate_dataset
        monkeypatch.setattr(
            forgeries, "generate_dataset", lambda cfg: generated.append(cfg) or generate(cfg)
        )
        grid = [
            "--override", 'compare.modes=["vanilla","dffc"]', "--override", "compare.seeds=[0,1]"
        ]
        assert cli.main(["compare", *SMALL_OVERRIDES, *grid, "--out", str(tmp_path / "c")]) == 0
        assert len(generated) == 1

    def test_each_row_is_the_train_run_of_its_cell(self, tmp_path):
        # A configured alpha_f holds for every cell but the dih ones, which run at 0.
        flags = [*SMALL_OVERRIDES, "--override", "hardness.alpha_f=0.3"]
        grid = [
            "--override", 'compare.modes=["vanilla","dffc","dih"]',
            "--override", "compare.augment_all=[false,true]",
            "--override", "compare.seeds=[0,1]",
        ]
        assert cli.main(["compare", *flags, *grid, "--out", str(tmp_path / "c")]) == 0
        header, *rows = (tmp_path / "c" / "comparison.csv").read_text().splitlines()
        assert len(rows) == 12
        for i, line in enumerate(rows):
            row = dict(zip(header.split(","), line.split(",")))
            cell = [
                f"mode={row['mode']}", f"augment_all={row['augment_all'].lower()}",
                f"seed={row['seed']}", *(["hardness.alpha_f=0"] if row["mode"] == "dih" else []),
            ]
            out = tmp_path / str(i)
            overrides = [arg for override in cell for arg in ("--override", override)]
            assert cli.main(["train", *flags, *overrides, "--out", str(out)]) == 0
            metrics_header, *epochs = (out / "metrics.csv").read_text().splitlines()
            final = dict(zip(metrics_header.split(","), epochs[-1].split(",")))
            assert (row["final_acc"], row["final_auc"], row["acc_hard"]) == (
                final["test_acc"], final["test_auc"], final["acc_hard"]
            ), row

    def test_top_level_dih_mode_leaves_the_grid_alone(self, tmp_path):
        # The top-level mode is each cell's to set, so a dih default taken
        # from it must not reach the dffc cells.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "dih"}))
        grid = [*SMALL_OVERRIDES, "--override", 'compare.modes=["dffc","dih"]']
        texts = []
        for extra in ([], ["--override", "mode=dih"], ["--config", str(cfg)]):
            out = tmp_path / str(len(texts))
            assert cli.main(["compare", *grid, *extra, "--out", str(out)]) == 0
            texts.append((out / "comparison.csv").read_text())
        assert texts[1] == texts[0] and texts[2] == texts[0]
        _, dffc, dih = texts[0].splitlines()
        assert dffc.partition(",")[2] != dih.partition(",")[2]

    def test_dih_in_grid_sets_alpha_f_zero(self, tmp_path):
        # An explicit alpha_f is the dffc runs' setting, not a contradiction.
        out = tmp_path / "cmp"
        code = cli.main(
            ["compare", *SMALL_OVERRIDES,
             "--override", 'compare.modes=["dih"]',
             "--override", "hardness.alpha_f=0.3",
             "--out", str(out)]
        )
        assert code == 0
        assert (out / "comparison.csv").read_text().splitlines()[1].startswith("dih,")


    def test_summary_per_mode_and_augment_all_over_seeds(self):
        # [DERIVED] accuracies 0.5 and 0.7 have mean 0.6 and (population) std 0.1.
        rows = [
            {"mode": mode, "augment_all": False, "seed": seed,
             "final_acc": acc, "final_auc": 1.0, "acc_hard": 0.5}
            for mode, seed, acc in (("dffc", 0, 0.5), ("dih", 0, 0.6), ("dffc", 1, 0.7))
        ]
        summary = cli.summarize_comparison(rows)
        assert [(s["mode"], s["n_seeds"]) for s in summary] == [("dffc", 2), ("dih", 1)]
        assert summary[0]["final_acc_mean"] == pytest.approx(0.6)
        assert summary[0]["final_acc_std"] == pytest.approx(0.1)
        assert summary[1]["final_acc_std"] == 0.0 == summary[0]["final_auc_std"]


class TestWritePgm:
    def test_format_and_values(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])  # 2.0 must clip to 255
        path = tmp_path / "img.pgm"
        cli.write_pgm(img, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 128, 255, 255]
