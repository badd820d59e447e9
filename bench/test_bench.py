"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Each workload runs at minimal size (``--seconds 0``: one deck) with
tracing off and on, and must print every metric that ``BENCHMARK.json``
names, with its unit.  A deliberately perturbed reference must turn the
affected operation into a counted failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import ghzdyn.sweep  # noqa: E402
import harness  # noqa: E402
import twins  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd, check=False)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in {**expected, "ops": "count", "ops_failed": "count"}.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _bench(str(tmp_path), "--workload", "state-sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _one_of_each() -> list[workloads.Op]:
    rng = np.random.default_rng(0)
    return [
        workloads.request("gqd-sweep", ("x",), 0.3, 2, 1),
        workloads.request("state-sweep", workloads.CHANNELS, 0.3, 3, 1, workloads.STATE_MEASURES),
        workloads.evolve(3, twins.random_density(3, rng), "iso", 0.2),
        workloads.bipartite(0.4),
        workloads.tau_generator(twins.random_pure(4, rng)),
    ]


def _shifted(fn):
    return lambda *args: fn(*args) + 1e-6


def test_unperturbed_operations_pass(tmp_path):
    run = harness.Run(str(tmp_path))
    for op in _one_of_each():
        run.do(op, "loop")
    assert run.failed() == 0


@pytest.mark.parametrize("module, name, index", [
    (ghzdyn.sweep, "analytic_gqd", 0),  # the CSV's analytic column is the gqd twin
    (twins, "spectrum_entropy", 1),
    (twins, "exact_pauli_flow", 2),
    (twins, "werner_discord", 3),
    (twins, "pure_concurrence", 4),
])
def test_perturbed_reference_is_counted_in_ops_failed(monkeypatch, tmp_path, module, name, index):
    monkeypatch.setattr(module, name, _shifted(getattr(module, name)))
    run = harness.Run(str(tmp_path))
    for op in _one_of_each():
        run.do(op, "loop")
    assert run.failed() == 1
    assert not run.records[index].outcome.ok
