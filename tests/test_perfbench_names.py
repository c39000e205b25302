"""The names of the package that the benchmark in ``perfbench/`` calls.

``perfbench/bench.py`` wraps functions by module and name and builds its
runs through the CLI's config functions, so a rename in ``src/`` breaks
only the benchmark. This imports ``bench.py`` (it writes nothing at import)
and checks that every name it relies on still resolves.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from dffc import runner

BENCH_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_bench", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(bench):
    missing = [f"{module.__name__}.{attr}" for module, attr in bench.TRACED
               if not callable(getattr(module, attr, None))]
    assert not missing


@pytest.mark.parametrize("name", ["resolve_config", "build_run_config", "write_run_artifacts"])
def test_cli_functions_resolve(bench, name):
    assert callable(getattr(bench.cli, name, None))


def test_warm_up_config_fields_resolve(bench):
    # The fields bench.warm_up replaces to shrink a workload's config.
    config = bench.cli.build_run_config(bench.cli.resolve_config(None, ["mode=dffc"]))
    small = dataclasses.replace(
        config,
        dataset=dataclasses.replace(config.dataset, n_train=40, n_test=20),
        total_epochs=3,
        milestones=(1, 2),
        easy_pool_size=5,
    )
    assert isinstance(small, runner.RunConfig)


def test_every_workload_config_resolves_and_builds(bench):
    # bench.setup resolves and builds each workload's config this way.
    for workload in bench.WORKLOADS:
        overrides = bench.run_overrides(workload, 0)
        config = bench.cli.build_run_config(bench.cli.resolve_config(None, overrides))
        assert (config.seed, config.dataset.seed) == (0, 0), workload
