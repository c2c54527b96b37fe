"""Dirty-range (incremental) anti-entropy: O(changed) hashing and wire bytes.

The contract under test:

* a write dirties exactly the touched keys; the next cache refresh re-hashes
  only those keys (``cache_stats["keys_rehashed"]``);
* a clean steady-state session hashes nothing and exchanges zero leaves
  (request-only wire cost);
* incremental sessions stream the same repair traffic a full-keyspace
  session would (the divergence signal the schedule policy consumes is
  unchanged);
* markers fall back to a full exchange when they cannot be trusted
  (liveness change, fabric partition epoch change).
"""

from __future__ import annotations

import pytest

from repro.cluster.antientropy import (
    REQUEST_SIZE_BYTES,
    TREE_DEPTH,
    AntiEntropyConfig,
    AntiEntropyService,
)
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.network.latency import ConstantLatency


def build_cluster(seed: int = 5) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=6,
            datacenters=2,
            racks_per_dc=1,
            replication_factors={"dc1": 2, "dc2": 1},
            inter_dc_latency=ConstantLatency(0.004),
            seed=seed,
        )
    )


def load(cluster: SimulatedCluster, n_keys: int = 20) -> list:
    keys = [f"key{i}" for i in range(n_keys)]
    for key in keys:
        cluster.write(key, f"v:{key}", ConsistencyLevel.ALL)
    cluster.settle()
    return keys


def run_sessions(cluster: SimulatedCluster, service: AntiEntropyService, n: int) -> None:
    interval = service.config.interval
    cluster.engine.run_until(cluster.engine.now + n * interval + interval / 2)


class TestDirtyTracking:
    def test_nothing_is_flagged_before_the_first_drain(self):
        cluster = build_cluster()
        load(cluster, 4)
        node = cluster.nodes[cluster.addresses[0]]
        # The first refresh rebuilds from every key, so the load flags none.
        assert node.storage.stats.writes > 0
        assert not node.storage.dirty_keys
        assert node.storage.drain_dirty() == set()
        # From the first drain on, a write flags its key and a drain resets.
        cluster.write_sync("key0", "again", ConsistencyLevel.ALL)
        assert node.storage.dirty_keys == {"key0"}
        assert node.storage.drain_dirty() == {"key0"}
        assert node.storage.dirty_keys == set()

    def test_write_rehashes_only_touched_keys(self):
        cluster = build_cluster()
        keys = load(cluster, 20)
        service = AntiEntropyService(cluster, AntiEntropyConfig(interval=1.0))
        service.start()
        run_sessions(cluster, service, 2)
        # First refresh is the full rebuild: every key hashed once per DC.
        baseline = dict(service.cache_stats["dc1"])
        assert baseline["keys_rehashed"] >= len(keys)
        assert baseline["full_rebuilds"] == 1
        # One write -> the next refreshes re-hash exactly that one key.
        cluster.write_sync(keys[3], "updated", ConsistencyLevel.ALL)
        run_sessions(cluster, service, 2)
        service.stop()
        after = service.cache_stats["dc1"]
        assert after["full_rebuilds"] == 1  # never rebuilt again
        assert after["keys_rehashed"] == baseline["keys_rehashed"] + 1

    def test_clean_steady_state_hashes_nothing_and_ships_no_leaves(self):
        cluster = build_cluster()
        load(cluster, 15)
        service = AntiEntropyService(cluster, AntiEntropyConfig(interval=1.0))
        service.start()
        run_sessions(cluster, service, 2)
        pair = service.pairs[0]
        stats = service.stats[pair]
        hashed_before = service.cache_stats["dc1"]["keys_rehashed"]
        leaves_before = stats.leaves_exchanged
        bytes_before = stats.bytes_sent
        started_before = stats.sessions_started
        run_sessions(cluster, service, 3)
        service.stop()
        started = stats.sessions_started - started_before
        assert started >= 2
        # Nothing changed: no key re-hashed, no leaf digest crossed the WAN,
        # each started session cost exactly the request bytes (the last one
        # may still be in flight when the service stops).
        assert service.cache_stats["dc1"]["keys_rehashed"] == hashed_before
        assert stats.leaves_exchanged == leaves_before
        assert stats.bytes_sent - bytes_before == started * REQUEST_SIZE_BYTES
        assert stats.ranges_diffed == 0

    def test_full_mode_rehashes_every_session(self):
        cluster = build_cluster()
        load(cluster, 15)
        service = AntiEntropyService(
            cluster, AntiEntropyConfig(interval=1.0, incremental=False)
        )
        service.start()
        run_sessions(cluster, service, 3)
        service.stop()
        stats = service.stats[service.pairs[0]]
        n_leaves = 1 << TREE_DEPTH
        # The baseline ships the whole leaf vector every session.
        assert stats.leaves_exchanged == stats.sessions_completed * n_leaves


class TestIncrementalRepairsDivergence:
    def _diverge(self, cluster: SimulatedCluster, key: str):
        """Write a newer cell onto dc1's replicas only (dc2 left behind)."""
        replicas = cluster.replicas_for(key)
        newest = None
        for address in replicas:
            cell = cluster.nodes[address].peek(key)
            if cell is not None and cell.is_newer_than(newest):
                newest = cell
        from repro.cluster.storage import Cell

        bumped = Cell(
            timestamp=newest.timestamp + 5.0,
            value_id=newest.value_id + 1000,
            key=key,
            value="diverged",
            size_bytes=newest.size_bytes,
        )
        for address in replicas:
            if cluster.topology.datacenter_of(address) == "dc1":
                cluster.nodes[address].storage.apply(bumped)
        return bumped

    def test_incremental_session_streams_the_divergent_key(self):
        cluster = build_cluster()
        keys = load(cluster, 12)
        service = AntiEntropyService(cluster, AntiEntropyConfig(interval=1.0))
        service.start()
        run_sessions(cluster, service, 2)  # converge markers
        bumped = self._diverge(cluster, keys[7])
        run_sessions(cluster, service, 3)
        service.stop()
        cluster.settle()
        # Every replica (both DCs) now stores the bumped version.
        for address in cluster.replicas_for(keys[7]):
            cell = cluster.nodes[address].peek(keys[7])
            assert (cell.timestamp, cell.value_id) == (bumped.timestamp, bumped.value_id)
        stats = service.stats[service.pairs[0]]
        assert stats.cells_streamed >= 1
        assert stats.ranges_diffed >= 1

    def test_partition_epoch_change_forces_full_resync(self):
        cluster = build_cluster()
        load(cluster, 10)
        service = AntiEntropyService(cluster, AntiEntropyConfig(interval=1.0))
        service.start()
        run_sessions(cluster, service, 2)
        pair = service.pairs[0]
        full_before = service.stats[pair].full_sessions
        cluster.partition_datacenters("dc1", "dc2")
        run_sessions(cluster, service, 2)  # sessions stall during the cut
        cluster.heal_datacenters("dc1", "dc2")
        run_sessions(cluster, service, 3)
        service.stop()
        # The first post-heal session cannot trust its markers.
        assert service.stats[pair].full_sessions > full_before

    def test_node_bounce_forces_cache_rebuild(self):
        cluster = build_cluster()
        load(cluster, 10)
        service = AntiEntropyService(cluster, AntiEntropyConfig(interval=1.0))
        service.start()
        run_sessions(cluster, service, 2)
        rebuilds_before = service.cache_stats["dc1"]["full_rebuilds"]
        victim = cluster.addresses_in("dc1")[0]
        cluster.take_down(victim)
        run_sessions(cluster, service, 2)
        cluster.bring_up(victim)
        run_sessions(cluster, service, 2)
        service.stop()
        # Down and up are two liveness changes: at least two rebuilds.
        assert service.cache_stats["dc1"]["full_rebuilds"] >= rebuilds_before + 2

    def test_incremental_and_full_stream_the_same_repair(self):
        """Same divergence -> same streamed cells under either mode."""
        streamed = {}
        for incremental in (True, False):
            cluster = build_cluster(seed=9)
            keys = load(cluster, 12)
            service = AntiEntropyService(
                cluster, AntiEntropyConfig(interval=1.0, incremental=incremental)
            )
            service.start()
            run_sessions(cluster, service, 2)
            self._diverge(cluster, keys[4])
            run_sessions(cluster, service, 3)
            service.stop()
            cluster.settle()
            streamed[incremental] = sum(
                s.cells_streamed for s in service.stats.values()
            )
            assert cluster.is_consistent(keys[4])
        assert streamed[True] == streamed[False]


class TestLossyFabric:
    def test_in_session_message_loss_invalidates_markers(self):
        """Message loss *during* a session must force the next one to full.

        A dropped REPAIR_STREAM means divergence escaped the session; sync
        markers advanced over the loss would hide that leaf forever, so a
        drop counter that grew between session start and completion
        invalidates them.  (Loss *between* sessions needs no special
        handling: a dropped replication write leaves the applying replicas'
        dirty flags behind, so the changed leaf is exchanged anyway.)
        """
        cluster = build_cluster()
        load(cluster, 10)
        service = AntiEntropyService(cluster, AntiEntropyConfig(interval=1.0))
        service.start()
        run_sessions(cluster, service, 2)
        pair = service.pairs[0]
        full_before = service.stats[pair].full_sessions
        # The next session starts at the next whole-interval tick; land the
        # simulated loss while its tree exchange is still in flight.
        engine = cluster.engine
        next_tick = float(int(engine.now) + 1)

        def bump() -> None:
            cluster.fabric.stats.dropped += 1

        engine.at(next_tick + 0.002, bump)
        run_sessions(cluster, service, 3)
        service.stop()
        assert service.stats[pair].full_sessions > full_before

    def test_lossy_fabric_still_converges_divergence(self):
        """With WAN packet loss, repair keeps re-detecting until the streams
        land -- the old full-keyspace self-healing property."""
        cluster = build_cluster(seed=13)
        cluster.fabric.set_pair_loss("dc1", "dc2", 0.3)
        keys = load_lossy(cluster, 8)
        service = AntiEntropyService(cluster, AntiEntropyConfig(interval=1.0))
        service.start()
        diverger = TestIncrementalRepairsDivergence()
        bumped = diverger._diverge(cluster, keys[2])
        run_sessions(cluster, service, 20)
        service.stop()
        cluster.settle()
        for address in cluster.replicas_for(keys[2]):
            cell = cluster.nodes[address].peek(keys[2])
            assert (cell.timestamp, cell.value_id) == (bumped.timestamp, bumped.value_id)


def load_lossy(cluster: SimulatedCluster, n_keys: int) -> list:
    """Load under a lossy fabric: apply cells directly so every replica
    starts converged regardless of drops."""
    from repro.cluster.storage import Cell

    keys = [f"key{i}" for i in range(n_keys)]
    for i, key in enumerate(keys):
        cell = Cell(timestamp=1.0 + i, value_id=i, key=key, value=f"v:{key}", size_bytes=64)
        for address in cluster.replicas_for(key):
            cluster.nodes[address].storage.apply(cell)
    return keys
