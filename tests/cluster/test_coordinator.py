"""Unit tests for the coordinator read/write paths.

These tests drive the coordinator through the :class:`SimulatedCluster`
facade (which wires the dispatchers) but inspect coordinator-level behaviour:
acknowledgement counting, read repair, blocking repair at level ALL, hinted
handoff, timeouts.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster import coordinator as coordinator_module
from repro.cluster.coordinator import CoordinatorConfig
from repro.cluster.node import NodeConfig
from repro.network.fabric import MessageKind
from repro.network.latency import ConstantLatency


def make_cluster(**overrides) -> SimulatedCluster:
    defaults = dict(
        n_nodes=5,
        replication_factor=3,
        seed=21,
        intra_rack_latency=ConstantLatency(0.0002),
        inter_rack_latency=ConstantLatency(0.0004),
        node=NodeConfig(
            concurrency=4,
            read_service_time=0.001,
            write_service_time=0.0008,
            service_time_cv=0.2,
        ),
    )
    defaults.update(overrides)
    return SimulatedCluster(ClusterConfig(**defaults))


class TestWritePath:
    def test_write_one_acknowledges_after_single_replica(self):
        cluster = make_cluster()
        result = cluster.write_sync("alpha", "v1", ConsistencyLevel.ONE)
        assert result.op_type == "write"
        assert result.blocked_for == 1
        assert len(result.responded) >= 1
        assert not result.timed_out

    def test_write_all_waits_for_every_replica(self):
        cluster = make_cluster()
        result = cluster.write_sync("alpha", "v1", ConsistencyLevel.ALL)
        assert result.blocked_for == 3
        assert len(result.responded) == 3

    def test_write_eventually_reaches_all_replicas(self):
        cluster = make_cluster()
        cluster.write_sync("alpha", "v1", ConsistencyLevel.ONE)
        cluster.settle()
        cells = cluster.replica_cells("alpha")
        assert all(cell is not None for cell in cells.values())
        assert cluster.is_consistent("alpha")

    def test_write_latency_grows_with_consistency_level(self):
        one = make_cluster(seed=1).write_sync("k", "v", ConsistencyLevel.ONE)
        all_ = make_cluster(seed=1).write_sync("k", "v", ConsistencyLevel.ALL)
        assert all_.latency >= one.latency

    def test_write_timestamps_are_monotone_per_coordinator(self):
        cluster = make_cluster()
        first = cluster.write_sync("k", "v1", ConsistencyLevel.ONE)
        second = cluster.write_sync("k", "v2", ConsistencyLevel.ONE)
        assert (second.cell.timestamp, second.cell.value_id) > (
            first.cell.timestamp,
            first.cell.value_id,
        )


class TestReadPath:
    def test_read_returns_latest_written_value(self):
        cluster = make_cluster()
        cluster.write_sync("beta", "v1", ConsistencyLevel.ALL)
        cluster.write_sync("beta", "v2", ConsistencyLevel.ALL)
        result = cluster.read_sync("beta", ConsistencyLevel.ONE)
        assert result.cell is not None
        assert result.cell.value == "v2"

    def test_read_missing_key_returns_none(self):
        cluster = make_cluster()
        result = cluster.read_sync("missing", ConsistencyLevel.QUORUM)
        assert result.cell is None

    def test_read_one_contacts_single_replica(self):
        cluster = make_cluster()
        cluster.config.coordinator = CoordinatorConfig(read_repair_chance=0.0)
        cluster.write_sync("gamma", "v", ConsistencyLevel.ALL)
        result = cluster.read_sync("gamma", ConsistencyLevel.ONE)
        assert result.blocked_for == 1

    def test_read_with_level_any_is_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.read_sync("x", ConsistencyLevel.ANY)

    def test_quorum_read_sees_quorum_write(self):
        cluster = make_cluster()
        cluster.write_sync("delta", "v1", ConsistencyLevel.QUORUM)
        result = cluster.read_sync("delta", ConsistencyLevel.QUORUM)
        assert result.cell.value == "v1"

    def test_read_latency_grows_with_consistency_level(self):
        cluster_one = make_cluster(seed=5)
        cluster_one.write_sync("k", "v", ConsistencyLevel.ALL)
        one = cluster_one.read_sync("k", ConsistencyLevel.ONE)

        cluster_all = make_cluster(seed=5)
        cluster_all.write_sync("k", "v", ConsistencyLevel.ALL)
        all_ = cluster_all.read_sync("k", ConsistencyLevel.ALL)
        assert all_.latency >= one.latency


class TestReadRepair:
    def test_stale_replica_is_repaired_after_quorum_read(self):
        cluster = make_cluster()
        # Take one replica down so it misses the write entirely.
        replicas = cluster.replicas_for("epsilon")
        cluster.take_down(replicas[-1])
        cluster.write_sync("epsilon", "v1", ConsistencyLevel.ONE)
        cluster.settle()
        cluster.bring_up(replicas[-1], replay_hints=False)
        assert cluster.node(replicas[-1]).peek("epsilon") is None

        # A QUORUM read that happens to contact the stale replica triggers an
        # asynchronous repair; an ALL read definitely does (blocking repair).
        cluster.read_sync("epsilon", ConsistencyLevel.ALL)
        cluster.settle()
        assert cluster.node(replicas[-1]).peek("epsilon") is not None
        assert cluster.is_consistent("epsilon")

    def test_blocking_repair_makes_all_reads_slower_when_replicas_diverge(self):
        cluster = make_cluster()
        replicas = cluster.replicas_for("zeta")
        cluster.take_down(replicas[-1])
        cluster.write_sync("zeta", "v1", ConsistencyLevel.ONE)
        cluster.settle()
        cluster.bring_up(replicas[-1], replay_hints=False)
        # Divergent replica set: the ALL read must repair before returning.
        divergent = cluster.read_sync("zeta", ConsistencyLevel.ALL)

        consistent_cluster = make_cluster(seed=99)
        consistent_cluster.write_sync("zeta", "v1", ConsistencyLevel.ALL)
        consistent_cluster.settle()
        consistent = consistent_cluster.read_sync("zeta", ConsistencyLevel.ALL)
        assert divergent.latency > consistent.latency
        assert divergent.cell.value == "v1"

    def test_each_delivered_repair_write_counts_once(self):
        # The coordinator and the replica at one address share one set of
        # counters: the repair is counted where it is applied, not also
        # where it is sent.
        cluster = make_cluster()
        replicas = cluster.replicas_for("iota")
        cluster.take_down(replicas[-1])
        cluster.write_sync("iota", "v1", ConsistencyLevel.ONE)
        cluster.settle()
        cluster.bring_up(replicas[-1], replay_hints=False)
        fabric = cluster.fabric
        send = fabric.send
        repair_writes = []

        def counting_send(src, dst, kind, payload, **kwargs):
            if kind == MessageKind.REPAIR_WRITE:
                repair_writes.append(dst)
            return send(src, dst, kind, payload, **kwargs)

        fabric.send = counting_send
        cluster.read_sync("iota", ConsistencyLevel.ALL)  # blocking repair
        cluster.settle()
        assert replicas[-1] in repair_writes
        assert cluster.stats.total("read_repairs") == len(repair_writes)


class TestHintedHandoff:
    def test_unreachable_replica_gets_a_hint_and_converges_on_recovery(self):
        cluster = make_cluster()
        key = "eta"
        replicas = cluster.replicas_for(key)
        down = replicas[-1]
        cluster.take_down(down)
        cluster.write_sync(key, "v1", ConsistencyLevel.ONE)
        # Let the write timeout pass so the missing ack becomes a hint.
        cluster.engine.run_until(cluster.engine.now + 3.0)
        total_hints = sum(c.hints.stored for c in cluster.coordinators.values())
        assert total_hints >= 1
        assert cluster.node(down).peek(key) is None

        replayed = cluster.bring_up(down, replay_hints=True)
        assert replayed >= 1
        cluster.settle()
        assert cluster.node(down).peek(key) is not None

    def test_a_hint_replay_is_not_a_read_repair(self):
        cluster = make_cluster()
        key = "kappa"
        down = cluster.replicas_for(key)[-1]
        cluster.take_down(down)
        cluster.write_sync(key, "v1", ConsistencyLevel.ONE)
        cluster.engine.run_until(cluster.engine.now + 3.0)
        assert cluster.bring_up(down, replay_hints=True) >= 1
        cluster.settle()
        assert cluster.node(down).peek(key) is not None
        assert cluster.stats.total("hints_replayed") >= 1
        assert cluster.stats.total("read_repairs") == 0

    def test_write_is_rejected_unavailable_when_too_few_replicas_are_up(self, monkeypatch):
        # The failure detector knows every replica is down, so the
        # coordinator rejects up front (UnavailableException semantics)
        # instead of burning the write timeout; no hint is stored because
        # the mutation never happened anywhere.
        monkeypatch.setattr(coordinator_module, "WRITE_TIMEOUT", 0.05)
        cluster = make_cluster()
        key = "theta"
        for replica in cluster.replicas_for(key):
            cluster.take_down(replica)
        result = cluster.write_sync(key, "v1", ConsistencyLevel.ALL)
        assert result.unavailable
        assert not result.timed_out
        assert result.cell is None
        total_hints = sum(c.hints.stored for c in cluster.coordinators.values())
        assert total_hints == 0


class TestReadTimeout:
    def test_read_is_rejected_unavailable_when_all_replicas_are_down(self, monkeypatch):
        monkeypatch.setattr(coordinator_module, "READ_TIMEOUT", 0.05)
        cluster = make_cluster()
        key = "iota"
        cluster.write_sync(key, "v1", ConsistencyLevel.ONE)
        cluster.settle()
        for replica in cluster.replicas_for(key):
            cluster.take_down(replica)
        result = cluster.read_sync(key, ConsistencyLevel.ALL)
        assert result.unavailable
        assert result.cell is None

    def test_read_times_out_when_replicas_die_mid_flight(self, monkeypatch):
        # The fail-fast precheck only covers failures known at issue time; a
        # replica that dies while the request is in flight still surfaces as
        # a timeout (the real UnavailableException/TimedOut asymmetry).
        monkeypatch.setattr(coordinator_module, "READ_TIMEOUT", 0.05)
        cluster = make_cluster()
        key = "iota2"
        cluster.write_sync(key, "v1", ConsistencyLevel.ONE)
        cluster.settle()
        box = []
        cluster.read(key, ConsistencyLevel.ALL, box.append)
        for replica in cluster.replicas_for(key):
            cluster.nodes[replica].go_down()  # bypass the failure detector
        cluster._run_until(lambda: bool(box))
        assert box[0].timed_out
        assert not box[0].unavailable


class TestCoordinatorConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CoordinatorConfig(read_repair_chance=1.5)
