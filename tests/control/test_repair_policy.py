"""Adaptive anti-entropy scheduling: tighten under divergence, relax when clean.

The satellite acceptance test: with a write-skewed DC pair the repair
interval tightens while sessions keep finding differing Merkle leaves, and
relaxes back toward the maximum once leaf diffs return to zero -- with a
same-seed determinism regression alongside.
"""

from __future__ import annotations

import pytest

from repro.cluster import antientropy as antientropy_module
from repro.cluster.antientropy import AntiEntropyConfig
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane
from repro.control import policies as policies_module
from repro.control.policies import RepairControlConfig, RepairSchedulePolicy


def two_dc_cluster(seed: int = 3) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=8,
            datacenters=2,
            racks_per_dc=2,
            seed=seed,
            replication_factors={"dc1": 2, "dc2": 2},
        )
    )


PAIR = ("dc1", "dc2")


@pytest.fixture
def doubling_relax(monkeypatch):
    """Relax by x2 (1 -> 2 -> 4 -> 8 s) over 32-leaf Merkle trees."""
    monkeypatch.setattr(policies_module, "RELAX_FACTOR", 2.0)
    monkeypatch.setattr(antientropy_module, "TREE_DEPTH", 5)


def controlled_service(cluster, *, interval=1.0, config=None):
    service = cluster.start_anti_entropy(AntiEntropyConfig(interval=interval))
    plane = ControlPlane(cluster, interval=interval)
    policy = plane.add(
        RepairSchedulePolicy(
            service,
            config
            or RepairControlConfig(min_interval=interval, max_interval=8.0),
        )
    )
    plane.start()
    return service, plane, policy


def write_skew(cluster, keys, value):
    """Diverge the pair: write one side under a partition, heal without hints."""
    cluster.partition_datacenters("dc1", "dc2", mode="drop")
    for key in keys:
        result = cluster.write_sync(key, value, ConsistencyLevel.LOCAL_QUORUM, datacenter="dc1")
        assert not result.unavailable
    cluster.engine.run_until(cluster.engine.now + 2.0)
    cluster.heal_datacenters("dc1", "dc2", replay_hints=False)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            RepairControlConfig(min_interval=0)
        with pytest.raises(ValueError):
            RepairControlConfig(min_interval=10, max_interval=5)
        with pytest.raises(ValueError):
            RepairControlConfig(wan_budget_bytes_per_s=0)


class TestServicePairIntervals:
    def test_set_and_get_normalize_order(self):
        cluster = two_dc_cluster()
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        assert service.pair_interval(PAIR) == 1.0
        service.set_pair_interval(("dc2", "dc1"), 3.5)
        assert service.pair_interval(PAIR) == 3.5
        with pytest.raises(ValueError):
            service.set_pair_interval(("dc1", "nope"), 2.0)
        with pytest.raises(ValueError):
            service.set_pair_interval(PAIR, 0.0)
        service.stop()

    def test_relaxed_interval_skips_sessions(self):
        cluster = two_dc_cluster()
        for i in range(10):
            cluster.write_sync(f"k{i}", "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        service.set_pair_interval(PAIR, 4.0)
        cluster.engine.run_until(cluster.engine.now + 8.5)
        service.stop()
        cluster.settle()
        # Base ticks fire every second, but the pair only runs every 4 s:
        # sessions at t=1 (nothing prior), t=5, ... instead of 8.
        assert service.stats[PAIR].sessions_started == 2


class TestAdaptiveScheduling:
    @pytest.mark.usefixtures("doubling_relax")
    def test_interval_tightens_under_divergence_then_relaxes_clean(self):
        cluster = two_dc_cluster(seed=7)
        keys = [f"k{i}" for i in range(40)]
        for key in keys:
            cluster.write_sync(key, "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        service, plane, policy = controlled_service(
            cluster,
            interval=1.0,
            config=RepairControlConfig(min_interval=1.0, max_interval=8.0),
        )
        # Steady state first: clean sessions relax the cadence to the cap.
        cluster.engine.run_until(cluster.engine.now + 10.0)
        relaxed = service.pair_interval(PAIR)
        assert relaxed == 8.0

        # Write-skew the pair: divergence must tighten the cadence back down.
        write_skew(cluster, keys, "v1")
        tightened = []
        for _ in range(40):
            cluster.engine.run_until(cluster.engine.now + 1.0)
            tightened.append(service.pair_interval(PAIR))
        # The diverging session halved the cadence (one Merkle session fully
        # converges the pair, so sustained divergence -- and the floor -- only
        # happens when writes outpace repair; see TestControlLaw below).
        assert min(tightened) == relaxed * 0.5

        # Once the diffs are streamed and leaves agree again, relax back up.
        assert service.pair_interval(PAIR) == 8.0
        assert all(cluster.is_consistent(key) for key in keys)

        kinds = {d.kind for d in plane.decisions}
        assert kinds == {"repair_interval"}
        scopes = {d.scope for d in plane.decisions}
        assert scopes == {"pair:dc1|dc2"}
        plane.stop()
        service.stop()

    @pytest.mark.usefixtures("doubling_relax")
    def test_wan_budget_blocks_tightening(self):
        """The repair_bytes cost term: over budget, divergence must not tighten."""
        cluster = two_dc_cluster(seed=9)
        keys = [f"k{i}" for i in range(40)]
        for key in keys:
            cluster.write_sync(key, "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
        cluster.settle()
        # A budget of 1 byte/s is always exceeded by any completed session.
        service, plane, policy = controlled_service(
            cluster,
            interval=1.0,
            config=RepairControlConfig(
                min_interval=1.0,
                max_interval=8.0,
                wan_budget_bytes_per_s=1.0,
            ),
        )
        write_skew(cluster, keys, "v1")
        baseline = service.pair_interval(PAIR)
        cluster.engine.run_until(cluster.engine.now + 12.0)
        # Despite heavy divergence, the interval only ever moved up.
        assert service.pair_interval(PAIR) >= baseline
        plane.stop()
        service.stop()

    @pytest.mark.usefixtures("doubling_relax")
    def test_floor_reached_under_sustained_divergence(self):
        """The control law itself: writes outpacing repair pin the cadence
        at ``min_interval``; a clean streak relaxes it back to the cap.

        Driven against a stub service so divergence can persist across
        sessions (a real Merkle session converges the pair in one shot).
        """

        class StubStats:
            def __init__(self):
                self.sessions_completed = 0
                self.ranges_diffed = 0
                self.bytes_sent = 0

        class StubService:
            def __init__(self):
                self.pairs = [PAIR]
                self.stats = {PAIR: StubStats()}
                self._interval = {PAIR: 8.0}

            def pair_interval(self, pair):
                return self._interval[pair]

            def set_pair_interval(self, pair, value):
                self._interval[pair] = value

        cluster = two_dc_cluster(seed=13)
        service = StubService()
        plane = ControlPlane(cluster, interval=1.0)
        plane.add(RepairSchedulePolicy(
            service,
            RepairControlConfig(min_interval=1.0, max_interval=8.0),
        ))
        stats = service.stats[PAIR]
        for _ in range(6):  # every tick: one more session, still diverging
            stats.sessions_completed += 1
            stats.ranges_diffed += 4
            stats.bytes_sent += 1000
            plane.tick()
        assert service.pair_interval(PAIR) == 1.0  # floored, not below
        for _ in range(6):  # clean streak: sessions complete with zero diffs
            stats.sessions_completed += 1
            plane.tick()
        assert service.pair_interval(PAIR) == 8.0  # capped, not above
        assert all(d.kind == "repair_interval" for d in plane.decisions)

    def test_no_completed_session_means_no_decision(self):
        cluster = two_dc_cluster(seed=5)
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=5.0))
        plane = ControlPlane(cluster, interval=1.0)
        plane.add(RepairSchedulePolicy(service))
        plane.start()
        # Four control ticks before the first repair session even starts.
        cluster.engine.run_until(cluster.engine.now + 4.5)
        assert plane.decisions == []
        plane.stop()
        service.stop()

    def test_runner_rejects_adaptive_repair_without_service(self):
        """A scenario that asks for adaptive repair but configures no
        anti-entropy service must fail loudly, not silently run static."""
        from repro.experiments.runner import run_experiment
        from repro.experiments.scenarios import GRID5000_3SITES
        from repro.workload.workloads import WORKLOAD_A

        broken = GRID5000_3SITES.with_overrides(
            name="broken", adaptive_repair=RepairControlConfig()
        )
        with pytest.raises(ValueError, match="adaptive_repair"):
            run_experiment(broken, WORKLOAD_A.scaled(record_count=5, operation_count=10),
                           "local_one", 1, seed=1)

    def test_repair_only_plane_builds_no_monitor(self):
        cluster = two_dc_cluster(seed=17)
        service = cluster.start_anti_entropy(AntiEntropyConfig(interval=1.0))
        plane = ControlPlane(cluster, interval=1.0)
        plane.add(RepairSchedulePolicy(service))
        plane.start()
        cluster.engine.run_until(cluster.engine.now + 3.5)
        plane.stop()
        service.stop()
        assert plane._monitor is None  # sampling-free plane: no monitor built

    @pytest.mark.usefixtures("doubling_relax")
    def test_same_seed_runs_identical(self):
        def run():
            cluster = two_dc_cluster(seed=11)
            keys = [f"k{i}" for i in range(25)]
            for key in keys:
                cluster.write_sync(key, "v0", ConsistencyLevel.EACH_QUORUM, datacenter="dc1")
            cluster.settle()
            service, plane, _policy = controlled_service(cluster, interval=1.0)
            write_skew(cluster, keys, "v1")
            cluster.engine.run_until(cluster.engine.now + 20.0)
            plane.stop()
            service.stop()
            cluster.settle()
            return (
                {pair: stats.as_dict() for pair, stats in service.stats.items()},
                [(d.time, d.scope, d.value) for d in plane.decisions],
                service.pair_interval(PAIR),
                cluster.engine.events_processed,
                cluster.fabric.stats.sent,
            )

        assert run() == run()
