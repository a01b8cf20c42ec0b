"""Tiny-size test of the benchmark.

Every workload, untraced and traced, prints every metric BENCHMARK.json
names with its unit; each workload's correctness gate rejects a perturbed
reference; and the benchmark refuses to run without the mhdstab sources.

    python3 -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_prints_every_named_metric(workload, trace, kind):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert f"  {name} = " in out.stdout and isinstance(
            result["metrics"][name]["value"], float)
    assert "  failed_frac = " in out.stdout


def test_shock_gate_rejects_perturbed_reference():
    wl = workloads.ShockStudy()
    inp = wl.generate(3, tiny=True)
    study = wl.run(inp).output
    refs = {repr(r.B_mag): r.min_abs_D for r in study.rows}
    assert wl.check(inp, study, refs) == []
    refs["0.0"] += 1e-9
    assert any("reference" in p for p in wl.check(inp, study, refs))


def test_boundary_gate_rejects_perturbed_minimum(tmp_path):
    wl = workloads.BoundaryScan(tmp_path)
    inp = wl.generate(3, tiny=True)
    code, text = wl.run(inp).output
    assert code == 0 and wl.check(inp, (code, text)) == []
    summary = json.loads(text)
    summary["min_abs_D"] += 1e-9
    assert any("re-evaluated" in p for p in wl.check(inp, (code, json.dumps(summary))))
    assert wl.check(inp, (1, None)) == ["mhdstab scan exited 1"]


def test_classify_gate_rejects_wrong_design():
    wl = workloads.ClassifySweep()
    inp = wl.generate(3, tiny=True)
    records = wl.run(inp).output
    assert wl.check(inp, records) == []
    points = list(inp["points"])
    i = next(i for i, p in enumerate(points) if p.case == "c")
    points[i] = dataclasses.replace(points[i], glancing=not points[i].glancing)
    assert wl.check({"points": points}, records) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", "shock_study", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
