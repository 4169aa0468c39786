"""Repeatability and sanity tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs real passes of the workloads (about a minute in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_package()


def one_pass(workload, seed, where, tracer=None):
    os.makedirs(where, exist_ok=True)
    plan = workloads.WORKLOADS[workload](seed, str(where), str(where / "out"))
    return plan, run.run_pass(CLI, plan, tracer)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def seed0(request, tmp_path_factory):
    """Two untraced passes and one traced pass at seed 0, in fresh directories."""
    base = tmp_path_factory.mktemp(request.param)
    tracer = run.tracing.Tracer(counters=run.COUNTERS)
    plan, first = one_pass(request.param, 0, base / "a")
    _, second = one_pass(request.param, 0, base / "b")
    _, traced = one_pass(request.param, 0, base / "c", tracer)
    return request.param, plan, first, second, traced, tracer


def test_same_seed_repeats_exactly(seed0):
    workload, _, first, second, _, _ = seed0
    assert first["failures"] == [] and second["failures"] == []
    assert first["fingerprint"] == second["fingerprint"]
    assert first["fingerprint"] == run.pinned_fingerprint(workload, 0)
    exact = ("tasks", "output_bytes", "sample_bytes", "bytes_read")
    assert [first["counts"][k] for k in exact] == [second["counts"][k] for k in exact]
    assert first["ops"] == second["ops"] > 0


def test_traced_pass_is_complete_and_changes_nothing(seed0):
    _, plan, first, _, traced, tracer = seed0
    assert traced["failures"] == []
    assert traced["fingerprint"] == first["fingerprint"]
    layers = run.layer_metrics(tracer, traced["counts"])
    assert layers["samplers.calls"] == plan.sa_calls
    assert layers["samplers.spin_updates"] == plan.spin_updates
    assert layers["rng.streams"] > 0 and layers["ising.energies_rows"] > 0
    # every wrapper was taken out again
    from anneal_rbm import cli, rng, samplers
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(rng.stream, "__wrapped__")
    assert not hasattr(samplers.NoiseModel.perturb, "__wrapped__")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_passes_checks_with_other_fingerprint(workload, tmp_path):
    _, result = one_pass(workload, 1, tmp_path)
    assert result["failures"] == []
    assert result["fingerprint"] != run.pinned_fingerprint(workload, 0)


def test_checks_catch_a_wrong_solution_energy(tmp_path):
    plan, result = one_pass("pipeline_m16", 2, tmp_path)
    assert result["failures"] == []
    path = tmp_path / "out" / "solution_rbm.json"
    solution = json.loads(path.read_text())
    solution["energy"] -= 2.0
    path.write_text(json.dumps(solution))
    failures = plan.check(plan).failures
    assert any("recomputes" in f for f in failures)


def test_refuses_to_run_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "pipeline_m16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
