"""End-to-end tests for the command-line interface.

All invocations go through ``dffc.cli.main`` in-process with a small
config so the whole module runs in seconds.  [TRIVIAL] oracles
throughout: determinism via file hashes, validation via exit codes,
artifact presence and structure.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from dffc import cli
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


#: SHA-256 of ``json.dumps(cli.DEFAULT_CONFIG, indent=1)``: the layout and
#: defaults of ``resolved_config.json``, which earlier runs are reproduced from.
DEFAULT_CONFIG_SHA256 = "8735814627d83550f6bff6545cf996b06efdf993320a5d92c08b2183c5ff9fa0"


class TestResolveConfig:
    def test_defaults_when_nothing_given(self):
        resolved = cli.resolve_config(None, [])
        assert resolved == cli.DEFAULT_CONFIG

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
        with pytest.raises(ConfigError, match="contradicts"):
            cli.resolve_config(None, ["mode=dih", "hardness.alpha_f=0.5"])

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            cli.resolve_config("/nonexistent/cfg.json", [])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            cli.resolve_config(None, ["seed"])

    def test_build_run_config_surfaces_validation(self):
        resolved = cli.resolve_config(None, ["total_epochs=0"])
        with pytest.raises(ConfigError):
            cli.build_run_config(resolved)


class TestSchema:
    def test_default_config_layout_is_pinned(self):
        text = json.dumps(cli.DEFAULT_CONFIG, indent=1)
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
        ],
    )
    def test_schedule_of_the_mode_checked_before_out_dir(
        self, command, overrides, field, tmp_path, capsys
    ):
        out = tmp_path / "x"
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert cli.main([command, *flags, "--out", str(out)]) == 2
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

    def test_int_accepted_for_float_field(self):
        config = cli.build_run_config(cli.resolve_config(None, ["lr.eta_max=1"]))
        assert config.eta_max == 1


class TestGenData:
    def test_printout_is_deterministic(self, capsys):
        args = ["gen-data", *SMALL_OVERRIDES]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first
        assert "generated 60 train / 20 test samples" in first
        assert "amplitude histogram" in first

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

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--override", "mode=bogus", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


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
        "command, name, edit, named",
        [
            ("inspect-dfh", "hardness_state.json", lambda text: _drop_key(text, "prior"), "'prior'"),
            ("inspect-dfh", "hardness_state.json", lambda _: "[1, 2]", "JSON object"),
            ("report", "extremes.json", lambda text: _drop_key(text, "top"), "'top'"),
            ("report", "metrics.csv", lambda _: "", "epoch rows"),
        ],
        ids=["state-without-prior", "state-not-an-object", "extremes-without-top", "empty-metrics"],
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


class TestWritePgm:
    def test_format_and_values(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])  # 2.0 must clip to 255
        path = tmp_path / "img.pgm"
        cli.write_pgm(img, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 128, 255, 255]
