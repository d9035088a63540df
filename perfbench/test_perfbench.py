"""The benchmark's own tests, on shrunken workloads.

Run from the repository root:
    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pipelines
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    pipelines.LoopKernel: {"rounds": 2},
    pipelines.ToolchainImage: {"blocks": 8, "mem_size": 0x8000},
    pipelines.TracedMmio: {"iterations": 16},
}


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    for cls, size in SMALL.items():
        monkeypatch.setattr(cls, "size", size)


def _run_twice(cls, tmp_path: Path, seed: int):
    bench = cls(seed, tmp_path)
    checks = pipelines.Checks()
    bench.once(checks)
    figures = [bench.verify(bench.run(), checks) for _ in range(2)]
    assert checks.failed == 0, checks.failures
    return figures, bench.digests


@pytest.mark.parametrize("cls", list(SMALL), ids=lambda c: c.__name__)
def test_counts_and_digests_repeat_across_processes(cls, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    figures_a, digests_a = _run_twice(cls, tmp_path / "a", seed=5)
    figures_b, digests_b = _run_twice(cls, tmp_path / "b", seed=5)
    assert figures_a[0] == figures_a[1] == figures_b[0]
    assert digests_a == digests_b
    assert {"golden_demo", "golden_timing", "golden_pacer"} <= digests_a.keys()


def test_seed_changes_inputs_not_cost():
    a = pipelines.workgen.toolchain_image(1, blocks=8)
    b = pipelines.workgen.toolchain_image(2, blocks=8)
    assert a.source != b.source
    assert (a.cycles, a.retired) == (b.cycles, b.retired)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_match_spec(trace, section, capsys):
    rc = run.main(["--workload", "traced_mmio", "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    result = _last_json(capsys.readouterr().out)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["gate.mismatch_share"] == 0
        assert metrics["core.trace_render_s"] > 0 and metrics["harness.dispatch_s"] > 0
        assert metrics["harness.mmio_accesses"] == 2 * 16 + 1


def test_traced_layers_follow_workload_design(capsys):
    shares = {}
    for workload in ("loop_kernel", "toolchain_image"):
        assert run.main(["--workload", workload, "--seed", "4", "--seconds", "0",
                         "--trace", "1"]) == 0
        m = {k: v["value"] for k, v in _last_json(capsys.readouterr().out)["metrics"].items()}
        assert m["core.trace_render_s"] == 0 and m["harness.dispatch_s"] == 0
        shares[workload] = m
    assert shares["loop_kernel"]["isa.decode_reuse"] > 0.9
    assert shares["toolchain_image"]["isa.decode_reuse"] < 0.2
    assert shares["toolchain_image"]["asm.self_share"] > shares["loop_kernel"]["asm.self_share"]


def test_spec_follows_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert set(names[:len(SPEC["workloads"])]) == set(pipelines.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop_kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
