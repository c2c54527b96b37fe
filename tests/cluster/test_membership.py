"""Unit and property tests for elastic membership transitions.

Covers the Cassandra 1.0-era operational contract reproduced by
:mod:`repro.cluster.membership`: pending-range writes (the joiner absorbs
writes before it ever serves reads), fabric-streamed range transfer with
source-crash failover and partition pausing, clean aborts, deterministic
token assignment, and the placement-cache invalidation that keeps every
coordinator routing by the current ring across a topology change.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster import membership as membership_module
from repro.cluster.membership import MembershipManager
from repro.network.fabric import MessageKind

QUORUM = ConsistencyLevel.QUORUM


def make_cluster(**overrides) -> SimulatedCluster:
    defaults = dict(n_nodes=5, replication_factor=3, seed=11, spares_per_dc=1)
    defaults.update(overrides)
    return SimulatedCluster(ClusterConfig(**defaults))


def seed_data(cluster: SimulatedCluster, count: int = 32) -> None:
    for i in range(count):
        cluster.write_sync(f"key{i}", f"v{i}", QUORUM)
    cluster.settle()


def drive_to_completion(cluster: SimulatedCluster, manager: MembershipManager,
                        budget: float = 30.0) -> None:
    """Run the engine until no transition is active (bounded)."""
    engine = cluster.engine
    deadline = engine.now + budget
    while manager.has_active and engine.now < deadline:
        engine.run_until(engine.now + 0.5)
    assert not manager.has_active, (
        f"transitions still active after {budget}s: {manager.active_transitions()}"
    )


class TestAdmission:
    def test_bootstrap_rejects_existing_member(self):
        cluster = make_cluster()
        manager = MembershipManager(cluster)
        with pytest.raises(ValueError, match="already a ring member"):
            manager.begin_bootstrap(cluster.members[0])

    def test_bootstrap_rejects_unknown_node(self):
        cluster = make_cluster()
        manager = MembershipManager(cluster)
        with pytest.raises(ValueError, match="unknown node"):
            manager.begin_bootstrap("nowhere")

    def test_double_transition_rejected(self):
        cluster = make_cluster()
        manager = MembershipManager(cluster)
        manager.begin_bootstrap(cluster.spares[0])
        with pytest.raises(ValueError, match="active transition"):
            manager.begin_bootstrap(cluster.spares[0])
        manager.stop()

    def test_decommission_rejects_non_member(self):
        cluster = make_cluster()
        manager = MembershipManager(cluster)
        with pytest.raises(ValueError, match="not a ring member"):
            manager.begin_decommission(cluster.spares[0])

    def test_decommission_never_shrinks_below_rf(self):
        cluster = make_cluster(n_nodes=3, spares_per_dc=0)
        manager = MembershipManager(cluster)
        with pytest.raises(ValueError, match="below the replication factor"):
            manager.begin_decommission(cluster.members[0])


class TestBootstrap:
    def test_happy_path_streams_then_cuts_over(self):
        cluster = make_cluster()
        seed_data(cluster)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        epoch = cluster.membership_epoch
        transition = manager.begin_bootstrap(spare)
        drive_to_completion(cluster, manager)
        manager.stop()
        cluster.settle()

        assert transition.state == "done"
        assert transition.streamed_cells > 0
        assert spare in cluster.members
        assert spare not in cluster.spares
        assert cluster.membership_epoch == epoch + 1
        # The joiner holds genuine replica copies of everything it now owns.
        for i in range(32):
            key = f"key{i}"
            if spare in cluster.replicas_for(key):
                cell = cluster.nodes[spare].peek(key)
                assert cell is not None, f"{key} missing on the joiner after cutover"

    def test_pending_writes_reach_the_joiner_before_cutover(self):
        cluster = make_cluster()
        seed_data(cluster)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        manager.begin_bootstrap(spare)
        pending_keys = [f"key{i}" for i in range(32) if spare in manager.pending_for(f"key{i}")]
        assert pending_keys, "the joiner owns no ranges -- widen the keyspace"
        key = pending_keys[0]
        result = cluster.write_sync(key, "written-while-pending", QUORUM)
        assert not result.unavailable and not result.timed_out
        cluster.engine.run_until(cluster.engine.now + 1.0)
        cell = cluster.nodes[spare].peek(key)
        assert cell is not None and cell.value == "written-while-pending"
        manager.stop()

    def test_reads_never_contact_a_pending_target(self):
        cluster = make_cluster()
        seed_data(cluster)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        manager.begin_bootstrap(spare)
        for i in range(32):
            result = cluster.read_sync(f"key{i}", QUORUM)
            assert spare not in result.responded
        assert manager.pending_read_violations == 0
        manager.stop()

    def test_source_crash_fails_over_to_another_replica(self, monkeypatch):
        monkeypatch.setattr(membership_module, "CHUNK_CELLS", 2)
        monkeypatch.setattr(membership_module, "CHUNK_TIMEOUT", 1.0)
        cluster = make_cluster(n_nodes=6, spares_per_dc=1,
                               seed=23)
        seed_data(cluster)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        manager.begin_bootstrap(spare)
        # Crash one replica of an affected key right after streaming begins:
        # the watchdog re-queues its chunk and the pump picks a live source.
        pending_keys = [f"key{i}" for i in range(32) if manager.pending_for(f"key{i}")]
        victim = cluster.replicas_for(pending_keys[0])[0]
        cluster.engine.run_until(cluster.engine.now + 0.3)
        cluster.take_down(victim)
        drive_to_completion(cluster, manager)
        cluster.bring_up(victim)
        manager.stop()
        cluster.settle()
        assert manager.history[-1].state == "done"
        assert spare in cluster.members

    def test_down_joiner_pauses_instead_of_corrupting(self):
        cluster = make_cluster()
        seed_data(cluster)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        transition = manager.begin_bootstrap(spare)
        cluster.take_down(spare)
        cluster.engine.run_until(cluster.engine.now + 2.0)
        assert transition.active and transition.paused
        cluster.bring_up(spare)
        drive_to_completion(cluster, manager)
        manager.stop()
        assert transition.state == "done"
        assert spare in cluster.members

    def test_abort_rolls_back_pending_state(self):
        cluster = make_cluster()
        seed_data(cluster)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        epoch = cluster.membership_epoch
        manager.begin_bootstrap(spare)
        cluster.engine.run_until(cluster.engine.now + 0.6)
        assert manager.abort(spare) is True
        assert manager.abort(spare) is False  # nothing left to abort
        manager.stop()
        cluster.settle()
        assert spare not in cluster.members
        assert cluster.membership_epoch == epoch  # ring never flipped
        for i in range(32):
            assert manager.pending_for(f"key{i}") == ()
        # Post-abort writes carry no pending surcharge and reads still work.
        result = cluster.write_sync("post-abort", "x", QUORUM)
        assert not result.unavailable and not result.timed_out
        assert cluster.read_sync("post-abort", QUORUM).cell.value == "x"


class TestDecommission:
    def test_happy_path_moves_data_and_leaves(self):
        cluster = make_cluster(n_nodes=5)
        seed_data(cluster)
        manager = MembershipManager(cluster)
        leaving = cluster.members[-1]
        epoch = cluster.membership_epoch
        transition = manager.begin_decommission(leaving)
        drive_to_completion(cluster, manager)
        manager.stop()
        cluster.settle()

        assert transition.state == "done"
        assert leaving not in cluster.members
        assert leaving in cluster.spares  # stays provisioned, can re-join
        assert cluster.membership_epoch == epoch + 1
        # Every key is still durable and QUORUM-readable at its new placement.
        for i in range(32):
            result = cluster.read_sync(f"key{i}", QUORUM)
            assert not result.unavailable and not result.timed_out
            assert result.cell is not None and result.cell.value == f"v{i}"
            assert leaving not in cluster.replicas_for(f"key{i}")


class TestTokenDeterminism:
    """Token assignment is a pure function of (members, partitioner, vnodes)."""

    def test_same_seed_joins_give_identical_placement(self):
        placements = []
        for _ in range(2):
            cluster = make_cluster(seed=77)
            seed_data(cluster, count=16)
            manager = MembershipManager(cluster)
            manager.begin_bootstrap(cluster.spares[0])
            drive_to_completion(cluster, manager)
            manager.stop()
            cluster.settle()
            placements.append(
                [tuple(map(str, cluster.replicas_for(f"probe{i}"))) for i in range(200)]
            )
        assert placements[0] == placements[1]

    def test_join_then_leave_restores_the_original_ring(self):
        cluster = make_cluster(seed=5)
        seed_data(cluster, count=16)
        before = [tuple(map(str, cluster.replicas_for(f"probe{i}"))) for i in range(200)]
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        manager.begin_bootstrap(spare)
        drive_to_completion(cluster, manager)
        manager.begin_decommission(spare)
        drive_to_completion(cluster, manager)
        manager.stop()
        cluster.settle()
        after = [tuple(map(str, cluster.replicas_for(f"probe{i}"))) for i in range(200)]
        assert before == after

    def test_target_ring_matches_the_post_cutover_ring(self):
        cluster = make_cluster(seed=9)
        seed_data(cluster, count=16)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        manager.begin_bootstrap(spare)
        predicted = {}
        for i in range(100):
            key = f"probe{i}"
            current = set(cluster.replicas_for(key))
            predicted[key] = current | set(manager.pending_for(key))
        drive_to_completion(cluster, manager)
        manager.stop()
        for key, targets in predicted.items():
            assert set(cluster.replicas_for(key)) <= targets


class TestCacheInvalidation:
    """Regression: PR-2/PR-5 placement caches must not survive a ring flip."""

    def test_route_cache_cannot_go_stale_across_a_join(self, monkeypatch):
        """After a join cutover every coordinator routes by the new placement:
        its reads contact only new replicas and its writes fan out to exactly
        them.  The placement is recomputed from the new ring, not read back
        through any cache, so a cache that outlived the flip shows here."""
        cluster = make_cluster(seed=13)
        seed_data(cluster)
        keys = [f"key{i}" for i in range(32)]
        # Route every key through every coordinator, warming whatever the
        # cluster and the coordinators cache on the way.
        for address in cluster.members:
            for key in keys:
                cluster.read_sync(key, QUORUM, coordinator=address)
                cluster.write_sync(key, "warm", QUORUM, coordinator=address)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        manager.begin_bootstrap(spare)
        drive_to_completion(cluster, manager)
        manager.stop()
        cluster.settle()
        placement = {key: tuple(cluster.strategy.replicas(cluster.ring, key)) for key in keys}
        assert any(spare in replicas for replicas in placement.values()), (
            "the join moved no sampled key -- the case tests nothing"
        )

        sent = []
        send = cluster.fabric.send

        def recording_send(src, dst, kind, payload, **kwargs):
            sent.append((src, dst, kind))
            return send(src, dst, kind, payload, **kwargs)

        monkeypatch.setattr(cluster.fabric, "send", recording_send)
        for address in cluster.members:
            for key in keys:
                # Requests leave inside the call, before the engine runs.
                sent.clear()
                cluster.read(key, QUORUM, coordinator=address)
                contacted = {dst for src, dst, kind in sent if kind == MessageKind.READ_REQUEST}
                assert contacted and contacted <= set(placement[key]), (address, key)
                sent.clear()
                cluster.write(key, "after", QUORUM, coordinator=address)
                fanout = [dst for src, dst, kind in sent if kind == MessageKind.WRITE_REQUEST]
                assert sorted(fanout) == sorted(placement[key]), (address, key)
                cluster.settle()

    def test_cluster_replica_cache_invalidated_on_cutover(self):
        cluster = make_cluster(seed=13)
        seed_data(cluster, count=16)
        before = {f"key{i}": cluster.replicas_for(f"key{i}") for i in range(16)}
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]
        manager.begin_bootstrap(spare)
        moved = [k for k in before if spare in manager.pending_for(k)]
        assert moved, "join moved no sampled key -- widen the sample"
        drive_to_completion(cluster, manager)
        manager.stop()
        for key in moved:
            now = cluster.replicas_for(key)
            assert spare in now
            assert now != before[key]
