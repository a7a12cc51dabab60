"""Smoke-size and planted-fault tests for the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".terms", ".pairs", "_bytes", ".terms_in", ".derivatives",
                  ".terms_scanned", ".peak_terms", ".model_violations", "_frac")


def bench(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                       capture_output=True, text=True, timeout=170)
    return p


def smoke(workload, trace, seed=1):
    p = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
              "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    lines, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    for m in spec:
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("fail_frac 0.0 ratio") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["run-stream", "certify"])
def test_traced_counts_repeat_for_a_seed(workload):
    first = smoke(workload, 1, seed=7)[1]["metrics"]
    second = smoke(workload, 1, seed=7)[1]["metrics"]
    counts = [n for n in first if n.endswith(COUNT_SUFFIXES) and n != "trace.overhead_frac"
              and n != "trace.bench_self_frac" and n != "cli.inproc_frac"]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify", "--seed",
                        "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=170)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


# -- planted faults: the oracles are not vacuous ----------------------------------------

def _run_in_process(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, tmp_path / name, smoke=True)
    _, attempted, failed, _ = run.run_untraced(wl, 0.0, smoke=True)
    return failed / attempted


def test_clean_run_has_no_failures(tmp_path):
    assert _run_in_process("run-stream", tmp_path) == 0


def test_flipped_run_bit_is_caught(tmp_path, monkeypatch):
    from diffcomp import engine
    real = engine.run_vector
    monkeypatch.setattr(engine, "run_vector",
                        lambda dc, b: dataclasses.replace(real(dc, b), bit=1 - real(dc, b).bit))
    assert _run_in_process("run-stream", tmp_path) > 0


def test_perturbed_inverse_is_caught(tmp_path, monkeypatch):
    from diffcomp import engine
    real = engine.inverse_via_gradient

    def perturbed(m):
        inv = real(m)
        inv[0][0] += 1
        return inv
    monkeypatch.setattr(engine, "inverse_via_gradient", perturbed)
    assert _run_in_process("certify", tmp_path) > 0


def test_expecting_accept_for_a_rejected_certificate_is_caught(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "EXIT_REJECT", workloads.EXIT_OK)
    assert _run_in_process("cli-session", tmp_path) > 0


def test_oracle_cyclotomic_coordinates():
    assert oracles.cyclotomic(12) == [1, 0, -1, 0, 1]
    assert oracles.omega_power(6, 2) == (-1, 1)  # w^2 = w - 1 when w^2 - w + 1 = 0
    assert oracles.omega_power(4, 3) == (0, -1)
