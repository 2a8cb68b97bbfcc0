"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json prints with its unit, that
the correctness gate rejects perturbed outputs, and that the benchmark fails
without a result where the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import workloads  # noqa: E402
from mfglab.harness import parse_config, run_experiment  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert f"{name} " in proc.stdout and metric["unit"] in proc.stdout


def _run(name: str, size: str, out: Path) -> dict:
    cfg = workloads.config(name, workloads.DEFAULT_SEED, size)
    code = run_experiment(parse_config(json.dumps(cfg)), out).exit_code
    assert workloads.check(name, cfg, out, code, size) == []
    return cfg


def _perturb(path: Path, key: str, change) -> None:
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines):
        name, value = line.split(",")
        if name == key:
            lines[k] = f"{name},{change(float(value))!r}"
    path.write_text("\n".join(lines) + "\n")


def test_gate_rejects_perturbed_pinned_value(tmp_path):
    cfg = _run("game_system", "full", tmp_path)
    _perturb(tmp_path / "summary.csv", "cost_game", lambda v: v + 1e-5)
    problems = workloads.check("game_system", cfg, tmp_path, 0, "full")
    assert any("cost_game" in p for p in problems), problems


@pytest.mark.parametrize("name, key, change, expect", [
    ("nash", "residual", lambda v: 1e-3, "residual"),
    ("nash", "converged", lambda v: 0, "converged"),
    ("particles", "16", lambda v: v / 100, "decrease"),
    ("game_system", "converged", lambda v: 0, "converged"),
])
def test_gate_rejects_broken_invariants(tmp_path, name, key, change, expect):
    cfg = _run(name, "tiny", tmp_path)
    _perturb(tmp_path / "summary.csv", key, change)
    problems = workloads.check(name, cfg, tmp_path, 0, "tiny")
    assert any(expect in p for p in problems), problems


def test_gate_rejects_density_without_unit_mass(tmp_path):
    cfg = _run("game_system", "tiny", tmp_path)
    path = tmp_path / "density_mfg.csv"
    lines = path.read_text().splitlines()
    t, x, m = lines[5].split(",")
    lines[5] = f"{t},{x},{float(m) * (1 + 1e-9)!r}"
    path.write_text("\n".join(lines) + "\n")
    problems = workloads.check("game_system", cfg, tmp_path, 0, "tiny")
    assert any("mass" in p for p in problems), problems


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "nash", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
