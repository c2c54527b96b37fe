"""Tier-1 checks of the perf harness itself, on ``--quick`` sizes, in-process."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import re

import pytest

from benchmarks.perf import __main__ as cli
from benchmarks.perf import compare, harness, probe, spec
from repro.cluster.cluster import SimulatedCluster
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import GRID5000
from repro.sim.parallel.runner import ForkedShards, LocalShards
from repro.sim.parallel.shard import ShardRuntime
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

WRAPPED = [
    (SimulatedCluster, "__init__"), (WorkloadExecutor, "load"), (WorkloadExecutor, "run"),
    (ShardRuntime, "__init__"), (LocalShards, "dispatch"), (ForkedShards, "dispatch"),
]


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    """Every workload once untraced and (single engine) once traced, quick sizes."""
    traces = tmp_path_factory.mktemp("traces")
    before = [owner.__dict__[name] for owner, name in WRAPPED]
    ledger = {}
    for full in spec.WORKLOADS:
        workload = full.sized(quick=True)
        seed = spec.input_seeds(spec.DEFAULT_SEED)[0]
        traced = None
        if not workload.sharded:
            traced = probe.measure(
                workload, seed, trace_out=str(traces / f"{workload.name}.json")
            )
        ledger[workload.name] = harness.summarise(
            workload, [probe.measure(workload, seed)], traced
        )
    after = [owner.__dict__[name] for owner, name in WRAPPED]
    return {"ledger": ledger, "before": before, "after": after, "traces": traces}


def test_manifest_meets_the_contract_and_is_the_committed_file():
    manifest = spec.manifest()
    committed = os.path.join(harness.REPO_ROOT, "BENCHMARK.json")
    with open(committed, encoding="utf-8") as handle:
        assert json.load(handle) == manifest
    assert sorted(manifest) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert len(manifest["workloads"]) == 5
    assert len(manifest["end_to_end"]) == 8 and len(manifest["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(set(names)) == len(names) and all(NAME.fullmatch(name) for name in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {metric["name"]: metric["bound"] for metric in manifest["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])


def test_every_row_reports_every_metric_and_passes_its_checks(rows):
    assert list(rows["ledger"]) == [w.name for w in spec.WORKLOADS]
    for name, row in rows["ledger"].items():
        assert row["checks"] == [], name
        assert row["failed"] == 0 and row["attempted"] == spec.workload(name).quick[1]
        assert set(row["end_to_end"]) == {m.name for m in spec.END_TO_END}
        assert set(row["per_layer"]) == {m.name for m in spec.PER_LAYER}
        assert all(cell["median"] > 0 for cell in row["end_to_end"].values()), name


def test_layer_shares_sum_to_one_and_separate_the_workloads(rows):
    ledger = rows["ledger"]
    for name, row in ledger.items():
        shares = sum(row["per_layer"][f"{layer}.self_share"] for layer in spec.LAYERS)
        if spec.workload(name).sharded:
            assert shares == 0  # untraced: forked workers are out of the profiler's sight
        else:
            assert shares == pytest.approx(1.0, abs=0.02)
            assert row["per_layer"]["trace.overhead_ratio"] > 1.0
    # At quick sizes the monitor ticks a handful of times; that control's share is the
    # largest on paper_harmony_lan is held at full size, against the recorded ledger.
    control = {name: row["per_layer"]["control.self_share"] for name, row in ledger.items()}
    assert control["paper_harmony_lan"] > 5 * control["scale100_quorum"]
    for name, row in ledger.items():
        assert (row["per_layer"]["control.ticks"] > 0) == (name == "paper_harmony_lan")
        background = sum(row["per_layer"][metric] for metric in (
            "repair.sessions_completed", "faults.events_applied", "network.transfers_completed"))
        assert (background > 0) == (name == "geo_faults_wan")
    assert ledger["scale1000_sharded"]["per_layer"]["parallel.window_rounds"] > 0
    assert ledger["scale1000_wide"]["per_layer"]["parallel.window_rounds"] == 0


def test_trace_file_lists_spans_heaviest_first(rows):
    with open(rows["traces"] / "scale100_quorum.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    self_times = [span["self_s"] for span in trace["spans"]]
    assert self_times == sorted(self_times, reverse=True)
    assert sum(self_times) == pytest.approx(trace["profiled_s"])
    assert trace["profiled_s"] <= trace["traced_wall_s"]
    assert {"layer", "file", "line", "function", "calls", "self_s", "cum_s"} <= set(trace["spans"][0])


def test_wrapped_callables_are_the_originals_again(rows):
    assert rows["before"] == rows["after"]
    originals = [owner.__dict__[name] for owner, name in WRAPPED]
    with pytest.raises(RuntimeError):
        with probe.PhaseSpans().installed():
            assert [owner.__dict__[name] for owner, name in WRAPPED] != originals
            raise RuntimeError("a run that dies must not leak its wrappers")
    assert [owner.__dict__[name] for owner, name in WRAPPED] == originals


def test_run_span_excludes_the_load_it_nests():
    spans = probe.PhaseSpans()
    with spans.installed():
        run_experiment(GRID5000, WORKLOAD_A.scaled(record_count=300, operation_count=300),
                       "quorum", 4, seed=1)
    # run() loaded by itself: all of the load lies inside the run span ...
    assert 0 < spans.load_s == spans.load_in_run_s < spans.run_cum_s
    # ... and none of it is counted as run time.
    assert spans.run_self_s == pytest.approx(spans.run_cum_s - spans.load_s)


def test_a_breached_check_fails_the_row_and_the_command(monkeypatch, tmp_path, capsys):
    workload = spec.workload("scale100_quorum").sized(quick=True)
    honest = probe.measure(workload, spec.input_seeds(spec.DEFAULT_SEED)[0])
    assert harness.summarise(workload, [honest, honest])["checks"] == []

    def breached(**changes):
        report = copy.deepcopy(honest)
        report["layers"].update(changes.pop("layers", {}))
        report.update(changes)
        return report

    drifted = harness.summarise(workload, [honest, breached(digest="0" * 64)])
    assert "two different sim_digests" in drifted["checks"][0]
    stale = breached(layers={"staleness.stale_reads": 1})
    assert "R + W > N" in harness.summarise(workload, [stale])["checks"][0]
    lossy = harness.summarise(workload, [breached(layers={"workload.ops_failed": 2})])
    assert lossy["failed"] == 2 and "2 of 400 ops failed" in lossy["checks"][0]

    arguments = ["--quick", "--workload", workload.name, "--out", str(tmp_path / "ledger.json")]
    monkeypatch.setattr(harness, "run_child", lambda *a, **k: stale)
    assert cli.main(arguments) == 1
    assert "CHECK FAILED" in capsys.readouterr().out
    monkeypatch.setattr(harness, "run_child", lambda *a, **k: honest)
    assert cli.main(arguments) == 0
    printed = capsys.readouterr().out
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert f"   {metric.name} " in printed and f" {metric.unit} " in printed
    with open(tmp_path / "ledger.json", encoding="utf-8") as handle:
        provenance = json.load(handle)["provenance"]
    assert {"commit", "python", "platform", "nproc", "seed", "run_seconds", "total_wall_s"} <= set(
        provenance)
    assert provenance["repetitions"] == {workload.name: 1}  # --quick: one repetition


def test_one_scheduler_fills_the_seconds_round_robin_and_cycles_the_inputs(monkeypatch):
    clock = [0.0]
    made = []

    def fake_child(workload, input_seed, *, quick=False, trace_out=None):
        clock[0] += 4.0 if workload == "a" else 8.0
        made.append((workload, input_seed))
        return {}

    monkeypatch.setattr(harness, "run_child", fake_child)
    monkeypatch.setattr(harness, "perf_counter", lambda: clock[0])
    a, b = (dataclasses.replace(spec.WORKLOADS[0], name=name) for name in "ab")
    reports = harness.measure([a, b], 7, 15, at_least=3)
    # a: 16 s lands nearer 15 s than 12 s does; b owes its third input though 16 s are spent.
    assert (len(reports["a"]), len(reports["b"])) == (4, 3)
    assert made == [("a", 112), ("b", 112), ("a", 113), ("b", 113), ("a", 114), ("b", 114), ("a", 112)]
    assert len(harness.measure([a], 7, 0.0, at_least=1)["a"]) == 1


def test_recorded_ledger_separates_the_workloads_as_designed():
    """ISSUE 11's acceptance criteria on the traced tables, at full size."""
    with open(os.path.join(os.path.dirname(__file__), "recorded", "ledger.json"),
              encoding="utf-8") as handle:
        recorded = json.load(handle)["workloads"]
    layer = {name: row["per_layer"] for name, row in recorded.items()}
    assert all(row["failed"] == 0 and row["checks"] == [] for row in recorded.values())
    control = {name: table["control.self_share"] for name, table in layer.items()}
    assert max(control, key=control.get) == "paper_harmony_lan"
    assert control["scale100_quorum"] < 0.001
    for name, table in layer.items():
        background = [table["repair.sessions_completed"], table["faults.events_applied"],
                      table["network.transfers_completed"]]
        assert all(background) if name == "geo_faults_wan" else not any(background)
    op_path = sum(layer["scale100_quorum"][f"{part}.self_share"]
                  for part in ("sim", "network", "coordinator", "node"))
    assert op_path > 0.6
    wide = recorded["scale1000_wide"]["end_to_end"]
    assert wide["setup_s"]["median"] >= 0.3 * wide["wall_s"]["median"]


def _ledger(wall_values, p99=10.0):
    cells = {metric.name: harness.spread([1.0, 1.0, 1.0]) for metric in spec.END_TO_END}
    cells["wall_s"] = harness.spread(wall_values)
    cells["sim_read_p99_ms"] = harness.spread([p99])
    return {"workloads": {"w": {
        "end_to_end": cells, "per_layer": {metric.name: 0 for metric in spec.PER_LAYER},
        "sim_digest": "d",
    }}}


def test_compare_tells_regression_from_noise_from_no_change():
    bound = next(m.bound for m in spec.END_TO_END if m.name == "wall_s")

    def verdict(a, b, metric="wall_s"):
        rows = compare.compare(a, b)
        return next(row["verdict"] for row in rows if row["metric"] == metric)

    base = _ledger([10.0, 10.1, 9.9])
    assert verdict(base, _ledger([v * (1 + 1.5 * bound) for v in (10.0, 10.1, 9.9)])) == "REGRESSED"
    assert verdict(base, _ledger([v * (1 + 0.5 * bound) for v in (10.0, 10.1, 9.9)])) == "unchanged"
    assert verdict(base, _ledger([v * (1 - 1.5 * bound) for v in (10.0, 10.1, 9.9)])) == "improved"
    # B's own repetitions spread wider than the bound: it cannot be called either way.
    assert verdict(base, _ledger([8.0, 10.0, 14.0])) == "unresolved"
    assert verdict(base, base, "sim_read_p99_ms") == "identical"
    assert verdict(base, _ledger([10.0, 10.1, 9.9], p99=10.001), "sim_read_p99_ms") == "CHANGED"
    changed_count = copy.deepcopy(base)
    changed_count["workloads"]["w"]["per_layer"]["sim.events"] = 1
    assert verdict(base, changed_count, "digest and counts") == "CHANGED"
    changed_digest = copy.deepcopy(base)
    changed_digest["workloads"]["w"]["sim_digest"] = "e"
    assert verdict(base, changed_digest, "digest and counts") == "CHANGED"
    assert verdict(base, base, "digest and counts") == "identical"
