"""Unit tests for the op-lifecycle tracer (JSONL spans, attachment hooks)."""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.cluster.antientropy import AntiEntropyService
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.membership import MembershipManager
from repro.control.policies import make_policy
from repro.faults.schedule import FaultInjector, FaultSchedule
from repro.obs import tracer as tracer_module
from repro.obs.tracer import TraceEvent, Tracer
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A

from tests.staleness.test_auditor import read_result


class _Clock:
    """Minimal engine stand-in: the tracer only reads ``now``."""

    def __init__(self) -> None:
        self.now = 0.0


def small_cluster(seed: int = 7) -> SimulatedCluster:
    return SimulatedCluster(ClusterConfig(n_nodes=4, replication_factor=3, seed=seed))


class TestEmitters:
    def test_emit_stamps_virtual_time(self):
        clock = _Clock()
        tracer = Tracer(clock)
        tracer.emit("custom", a=1)
        clock.now = 2.5
        tracer.emit("custom", a=2)
        assert [e.time for e in tracer.events] == [0.0, 2.5]
        assert len(tracer) == 2

    def test_op_issue_and_retry_fields(self):
        tracer = Tracer(_Clock())
        tracer.op_issue("read", "k1", thread=3)
        tracer.op_retry(
            "read", "k1", ConsistencyLevel.QUORUM, ConsistencyLevel.ONE, attempt=1
        )
        issue, retry = tracer.events
        assert issue.kind == "op.issue"
        assert issue.fields == {"op": "read", "key": "k1", "thread": 3}
        assert retry.fields["from_level"] == ConsistencyLevel.QUORUM.value
        assert retry.fields["to_level"] == ConsistencyLevel.ONE.value

    def test_op_complete_flags_only_set_when_true(self):
        tracer = Tracer(_Clock())
        result = read_result("k", 1.0, 0, started_at=2.0)
        tracer.op_complete(result, request_id=9)
        fields = tracer.events[0].fields
        assert fields["request_id"] == 9
        assert fields["latency"] == result.completed_at - result.started_at
        # Clean completion: outcome flags are omitted, not recorded as False.
        assert "timed_out" not in fields
        assert "unavailable" not in fields

    def test_fault_and_repair_and_hint_events(self):
        tracer = Tracer(_Clock())
        tracer.fault("isolate dc rennes")
        tracer.repair_session(("n1", "n2"), ranges_diffed=4, pair_bytes=1024)
        tracer.hints_stored("n1", 2)
        tracer.hint_replay("n1", "n3", 2)
        assert tracer.counts_by_kind() == {
            "fault": 1,
            "hint.replay": 1,
            "hint.stored": 1,
            "repair.session": 1,
        }
        assert tracer.events[1].fields["pair"] == "n1|n2"


class TestExport:
    def test_to_jsonl_is_sorted_keys_one_line_per_event(self):
        tracer = Tracer(_Clock())
        tracer.op_issue("write", "a")
        tracer.fault("boom")
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 2
        for line, event in zip(lines, tracer.events):
            assert line == json.dumps(event.as_dict(), sort_keys=True)
            parsed = json.loads(line)
            assert parsed["t"] == event.time
            assert parsed["kind"] == event.kind

    def test_dump_jsonl_round_trips(self, tmp_path):
        tracer = Tracer(_Clock())
        tracer.op_issue("read", "k")
        path = tmp_path / "trace.jsonl"
        assert tracer.dump_jsonl(str(path)) == 1
        assert path.read_text() == tracer.to_jsonl()

    def test_as_dict_merges_fields_after_time_and_kind(self):
        event = TraceEvent(1.5, "fault", {"description": "x"})
        assert event.as_dict() == {"t": 1.5, "kind": "fault", "description": "x"}


class TestAttachment:
    def test_attach_cluster_late_binds_engine_and_flips_coordinators(self):
        cluster = small_cluster()
        tracer = Tracer()  # no engine yet: the runner builds the cluster later
        assert tracer.attach_cluster(cluster) is tracer
        assert cluster.tracer is tracer
        assert cluster.fabric.tracer is tracer
        assert all(
            coordinator.tracer is tracer
            for coordinator in cluster.coordinators.values()
        )
        cluster.engine.run_until(0.5)
        tracer.emit("custom")
        assert tracer.events[0].time == cluster.engine.now

    def test_attach_cluster_is_the_one_attach_point(self):
        assert [name for name in dir(Tracer) if name.startswith("attach")] == [
            "attach_cluster"
        ]

    def test_hook_sites_built_on_the_cluster_take_its_tracer(self):
        cluster = SimulatedCluster(
            ClusterConfig(n_nodes=4, datacenters=2, replication_factor=2, seed=7)
        )
        untraced = WorkloadExecutor(cluster, WORKLOAD_A, make_policy("eventual"))
        assert untraced.tracer is None and untraced.plane.tracer is None
        tracer = Tracer().attach_cluster(cluster)
        executor = WorkloadExecutor(cluster, WORKLOAD_A, make_policy("eventual"))
        sites = [
            executor,
            executor.plane,
            FaultInjector(cluster, FaultSchedule([])),
            AntiEntropyService(cluster),
            MembershipManager(cluster),
        ]
        assert [site.tracer for site in sites] == [tracer] * len(sites)

    def test_traced_run_records_full_op_lifecycle(self):
        cluster = small_cluster()
        tracer = Tracer().attach_cluster(cluster)
        workload = WORKLOAD_A.scaled(record_count=20, operation_count=60)
        executor = WorkloadExecutor(
            cluster, workload, make_policy("eventual"), threads=4
        )
        executor.load()
        tracer.events.clear()  # look at the run phase only
        executor.run()
        counts = tracer.counts_by_kind()
        assert counts["op.issue"] == 60
        assert counts["op.complete"] >= 60  # load-phase-free, includes retries
        assert counts["op.fanout"] >= 60

    def test_same_seed_traces_are_byte_identical(self):
        traces = []
        for _ in range(2):
            cluster = small_cluster(seed=13)
            tracer = Tracer().attach_cluster(cluster)
            workload = WORKLOAD_A.scaled(record_count=20, operation_count=60)
            executor = WorkloadExecutor(
                cluster, workload, make_policy("eventual"), threads=4
            )
            executor.load()
            executor.run()
            traces.append(tracer.to_jsonl())
        assert traces[0] == traces[1]


def _docstring_kinds() -> list:
    """The kind column of the schema table in ``repro/obs/tracer.py``."""
    lines = tracer_module.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("====")]
    width = len(lines[rules[0]].split()[0])
    rows = lines[rules[1] + 1 : rules[2]]
    return [kind for row in rows for kind in re.findall(r"``([^`]+)``", row[:width])]


def _docs_kinds() -> list:
    """The kind column of the table in ``docs/observability.md``."""
    docs = Path(__file__).parents[2] / "docs" / "observability.md"
    section = docs.read_text(encoding="utf-8").split("| kind | emitted when |\n", 1)[1]
    kinds = []
    for row in section.splitlines()[1:]:
        if not row.startswith("|"):
            break
        kinds += re.findall(r"`([^`]+)`", row.split("|")[1])
    return kinds


def test_the_docs_list_the_kinds_of_the_tracer_schema():
    kinds = _docstring_kinds()
    assert {"op.issue", "transfer.background", "bootstrap.*", "decommission.*"} <= set(kinds)
    assert _docs_kinds() == kinds
