"""Tests of the benchmark itself: smoke runs print every metric with its unit,
broken outputs mark the run failed, and a checkout without src/ is refused."""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["loop-50x3-faults", "loop-1000x19-clean", "pipeline-default"]


def smoke(workload: str, trace: int, out_dir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--smoke", "--out-dir", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [(w, 0) for w in WORKLOADS] + [("loop-50x3-faults", 1), ("pipeline-default", 1)],
)
def test_smoke_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = smoke(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    if trace and workload.startswith("loop"):
        assert result["metrics"]["trace.tick_accounted_ratio"]["value"] == pytest.approx(1.0)


def test_program_missing_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run

    return run


def test_over_granted_plan_fails_every_tick(bench, monkeypatch, tmp_path):
    from rantwin import twin_engine

    allocate = twin_engine.allocate_prbs

    def over_grant(reports, cells, params, weights=None):
        plan = allocate(reports, cells, params, weights)
        first = min(plan.grants)
        grants = {**plan.grants, first: plan.grants[first] + cells[0].total_prbs + 1}
        return replace(plan, grants=grants)

    monkeypatch.setattr(twin_engine, "allocate_prbs", over_grant)
    result = bench.run("loop-50x3-faults", 0, 0, False, smoke=True, out_root=tmp_path)
    assert result["correct"] is False
    assert result["failed"] >= 5  # every one of the smoke episode's ticks


def test_short_episode_fails(bench, monkeypatch, tmp_path):
    from rantwin import ric

    closed_loop_run = ric.closed_loop_run

    def one_tick_short(config, model, stats, schedule):
        short = replace(config, n_ticks=config.n_ticks - 1)
        kept = [f for f in schedule if f.onset_tick <= short.n_ticks]
        return closed_loop_run(short, model, stats, kept)

    monkeypatch.setattr(ric, "closed_loop_run", one_tick_short)
    result = bench.run("loop-50x3-faults", 0, 0, False, smoke=True, out_root=tmp_path)
    assert result["correct"] is False
    assert result["failed"] == 1  # the episode, not its ticks


def test_self_time_is_span_minus_children(bench):
    from probes import Probes, SpanTable

    probes = Probes("ric.closed_loop_run", traced=True)
    probes.tracing = True
    probes.call("outer", lambda: [probes.call("inner", time.sleep, 0.01) for _ in range(2)])
    table = SpanTable(probes)
    outer, inner = table.per_call("outer")[0], table.per_call("inner")
    assert len(inner) == 2 and inner.min() >= 10.0
    assert table.per_call("outer", own=True)[0] == pytest.approx(outer - inner.sum())
