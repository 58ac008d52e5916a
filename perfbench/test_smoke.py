"""Smoke test of the benchmark at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload: run.Workload) -> run.Workload:
    groups = tuple(dataclasses.replace(g, n=min(g.n, 5), count=1) for g in workload.groups)
    return dataclasses.replace(workload, groups=groups)


def measure(tmp_path: Path, workload: run.Workload, seed: int = 3, trace: bool = False):
    return run.measure(workload, seed, 0, trace, tmp_path / f"work-{seed}-{trace}",
                       tmp_path / "trace.tsv.gz" if trace else None)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_with_its_unit(tmp_path, name, trace):
    report = measure(tmp_path, tiny(run.WORKLOADS[name]), trace=trace)
    assert report["errors"] == []
    assert report["failed"] == 0 and report["attempted"] >= 2 * report["cases"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert units == declared
    assert set(report["metrics"]) == set(declared)
    assert all(math.isfinite(v) for v in report["metrics"].values())
    if not trace:
        assert all(report["metrics"][k] > 0 for k in declared)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_self_times_within_traced_total(tmp_path, name):
    report = measure(tmp_path, tiny(run.WORKLOADS[name]), trace=True)
    assert report["trace_total_s"] and report["spans"] > 0
    for self_sum, total in zip(report["trace_self_sum_s"], report["trace_total_s"]):
        assert 0 < self_sum <= total + 1e-9
    with gzip.open(tmp_path / "trace.tsv.gz", "rt") as fh:
        header = fh.readline().split()
        rows = sum(1 for _ in fh)
    assert header == ["run", "span", "parent", "name", "start_s", "end_s"]
    assert rows == report["spans"]


def test_same_seed_same_outputs_other_seed_other_inputs(tmp_path):
    workload = tiny(run.WORKLOADS["hinted-replay"])
    first = measure(tmp_path, workload, seed=5)
    again = measure(tmp_path, workload, seed=5)
    other = measure(tmp_path, workload, seed=6)
    assert first["digest"] == again["digest"] != other["digest"]
    for key in ("makespan_ratio_lb", "makespan_ratio_graham"):
        assert first["metrics"][key] == again["metrics"][key]


def test_failed_runs_are_counted_and_reported(tmp_path):
    group = run.Group("random-dag", 5, 2, 1, run.DEEP + ("--horizon", "16", "--budget", "1"))
    report = measure(tmp_path, run.Workload(groups=(group,), tail_pct=50))
    assert report["failed"] == report["attempted"] >= 2
    assert any("exit 2" in err for err in report["errors"])


def test_command_prints_result_json_last(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, "deep-enum", tiny(run.WORKLOADS["deep-enum"]))
    code = run.main(["--workload", "deep-enum", "--seed", "2", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "deep-enum", "--seed", "1", "--seconds", "1"])
    assert code != 0 and capsys.readouterr().out == ""
