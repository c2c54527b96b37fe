"""Unit tests for the per-datacenter read-level control loop and geo policies."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.monitor import MonitoringSample
from repro.control.plane import ControlPlane, site_agnostic_level
from repro.control.policies import GeoReadPolicy, HarmonyConfig, make_policy

from tests.control.conftest import build_geo_cluster, build_wan_topology


@pytest.fixture
def geo_cluster() -> SimulatedCluster:
    """The per-pair WAN mesh with {3, 2, 2} replicas per site."""
    return build_geo_cluster()


def make_sample(dc, read_rate, write_rate, tp, now=0.0):
    return MonitoringSample(
        time=now,
        read_rate=read_rate,
        write_rate=write_rate,
        raw_read_rate=read_rate,
        raw_write_rate=write_rate,
        network_latency=tp,
        propagation_time=tp,
        window=1.0,
        datacenter=dc,
    )


def make_control(cluster, config=None, tolerated_stale_rates=None):
    """A GeoReadPolicy bound to its own plane (validation runs at add())."""
    config = config or HarmonyConfig()
    plane = ControlPlane(cluster, config)
    control = plane.add(GeoReadPolicy(config, tolerated_stale_rates=tolerated_stale_rates))
    return plane, control


class TestConstruction:
    def test_requires_network_topology_strategy(self):
        plain = SimulatedCluster(ClusterConfig(n_nodes=6, replication_factor=3, seed=1))
        with pytest.raises(ValueError, match="NetworkTopologyStrategy"):
            make_control(plain)

    def test_rejects_unknown_datacenter_override(self, geo_cluster):
        with pytest.raises(ValueError, match="unknown datacenter"):
            make_control(geo_cluster, tolerated_stale_rates={"nowhere": 0.2})

    def test_rejects_out_of_range_asr(self, geo_cluster):
        with pytest.raises(ValueError, match="must be in"):
            make_control(geo_cluster, tolerated_stale_rates={"alpha": 1.5})

    def test_default_asr_fills_missing_sites(self, geo_cluster):
        _, control = make_control(
            geo_cluster,
            HarmonyConfig(tolerated_stale_rate=0.4),
            tolerated_stale_rates={"alpha": 0.1},
        )
        assert control.tolerated_stale_rates == {
            "alpha": 0.1,
            "beta": 0.4,
            "gamma": 0.4,
        }

    def test_one_scope_per_replica_holding_site(self, geo_cluster):
        _, control = make_control(geo_cluster)
        assert control.estimator.factors == {"alpha": 3, "beta": 2, "gamma": 2}

    def test_initial_levels_are_local_one(self, geo_cluster):
        _, control = make_control(geo_cluster)
        for dc in geo_cluster.datacenter_names:
            assert control.current_level[dc] is ConsistencyLevel.LOCAL_ONE


class TestDecisions:
    def test_idle_site_stays_local_one(self, geo_cluster):
        _, control = make_control(geo_cluster)
        decision = control.decide("beta", make_sample("beta", 0.0, 0.0, 0.005))
        assert decision.value is ConsistencyLevel.LOCAL_ONE
        assert decision.replicas == 1

    def test_hot_site_escalates_while_idle_site_does_not(self, geo_cluster):
        """The tentpole behaviour: sites decide independently."""
        _, control = make_control(
            geo_cluster, HarmonyConfig(tolerated_stale_rate=0.05)
        )
        hot = control.decide("alpha", make_sample("alpha", 500.0, 400.0, 0.008))
        idle = control.decide("beta", make_sample("beta", 1.0, 0.001, 0.0002))
        assert hot.replicas > 1
        assert hot.value in (
            ConsistencyLevel.LOCAL_QUORUM,
            ConsistencyLevel.ALL,
        )
        assert idle.value is ConsistencyLevel.LOCAL_ONE
        # The decisions are stored per site and do not clobber each other.
        assert control.current_level["alpha"] is hot.value
        assert control.current_level["beta"] is ConsistencyLevel.LOCAL_ONE

    def test_per_site_tolerance_drives_the_decision(self, geo_cluster):
        _, control = make_control(
            geo_cluster,
            HarmonyConfig(tolerated_stale_rate=0.4),
            tolerated_stale_rates={"alpha": 0.01, "beta": 0.99},
        )
        sample_kwargs = dict(read_rate=300.0, write_rate=250.0, tp=0.008)
        strict = control.decide("alpha", make_sample("alpha", **sample_kwargs))
        lenient = control.decide("beta", make_sample("beta", **sample_kwargs))
        assert strict.replicas > lenient.replicas
        assert lenient.value is ConsistencyLevel.LOCAL_ONE

    def test_decisions_recorded_per_site(self, geo_cluster):
        _, control = make_control(geo_cluster)
        decisions = [
            control.decide("alpha", make_sample("alpha", 10.0, 5.0, 0.001)),
            control.decide("alpha", make_sample("alpha", 10.0, 5.0, 0.001, now=1.0)),
            control.decide("beta", make_sample("beta", 10.0, 5.0, 0.001)),
        ]
        per_site = [d for d in decisions if d.scope == "dc:alpha"]
        assert len(per_site) == 2
        assert len([d for d in decisions if d.scope == "dc:beta"]) == 1
        assert control.current_level["alpha"] is decisions[1].value
        assert control.current_level["beta"] is decisions[2].value
        assert control.plane.decisions == []  # manual decisions bypass the log

    def test_each_tick_logs_one_decision_per_replica_holding_site(self, geo_cluster):
        plane, control = make_control(geo_cluster, HarmonyConfig(monitoring_interval=0.1))
        plane.start()
        geo_cluster.engine.run_until(0.25)
        plane.stop()
        sites = [f"dc:{dc}" for dc in control.estimator.factors]
        assert plane.ticks == 2
        assert [d.scope for d in plane.decisions] == sites * 2
        # Each site's estimate comes from that site's own sample.
        assert all(d.sample.datacenter == d.scope[3:] for d in plane.decisions)
        # Per-site decisions carry no cluster-scope estimate.
        assert len(plane.estimate_series) == 0

    def test_unknown_site_rejected(self, geo_cluster):
        _, control = make_control(geo_cluster)
        with pytest.raises(ValueError, match="no replicas"):
            control.decide("nowhere", make_sample("nowhere", 1.0, 1.0, 0.001))


class TestPeriodicLoop:
    def test_tick_samples_every_site(self, geo_cluster):
        plane, _ = make_control(geo_cluster, HarmonyConfig(monitoring_interval=0.1))
        plane.monitor.prime()
        geo_cluster.engine.run_until(0.5)
        decisions = plane.tick()
        assert {d.scope for d in decisions} == {"dc:alpha", "dc:beta", "dc:gamma"}

    def test_start_stop(self, geo_cluster):
        plane, _ = make_control(geo_cluster, HarmonyConfig(monitoring_interval=0.1))
        plane.start()
        geo_cluster.engine.run_until(0.55)
        plane.stop()
        assert len([d for d in plane.decisions if d.scope == "dc:alpha"]) >= 4
        taken = len(plane.decisions)
        geo_cluster.engine.run_until(1.5)
        assert len(plane.decisions) == taken


class TestPolicies:
    def test_static_geo_policy_levels(self):
        policy = make_policy("each_quorum")
        assert policy.read_level("anywhere") is ConsistencyLevel.EACH_QUORUM
        assert policy.write_level("anywhere") is ConsistencyLevel.LOCAL_ONE

    def test_unpinned_read_level_is_strictest_site_decision(self, geo_cluster):
        """Clients without a datacenter follow the most demanding site.

        LOCAL_* decisions are degraded to their global equivalents because
        an unpinned client's coordinator may live in a replica-less site.
        """
        policy = control = GeoReadPolicy(HarmonyConfig(tolerated_stale_rate=0.05))
        ControlPlane(geo_cluster).add(policy)
        control.decide("alpha", make_sample("alpha", 500.0, 400.0, 0.008))
        control.decide("beta", make_sample("beta", 1.0, 0.001, 0.0002))
        assert control.current_level["beta"] is ConsistencyLevel.LOCAL_ONE
        assert policy.read_level() is site_agnostic_level(control.current_level["alpha"])
        assert policy.read_level() not in (
            ConsistencyLevel.ONE,
            ConsistencyLevel.LOCAL_ONE,
        )
        assert not policy.read_level().is_datacenter_aware or (
            policy.read_level() is ConsistencyLevel.EACH_QUORUM
        )

    def test_unpinned_levels_never_local(self, geo_cluster):
        """Unpinned clients must get levels valid at any coordinator."""
        static = make_policy("local_quorum")
        assert static.read_level() is ConsistencyLevel.QUORUM
        assert static.write_level() is ConsistencyLevel.ONE
        # Pinned lookups keep the DC-aware pair.
        assert static.read_level("alpha") is ConsistencyLevel.LOCAL_QUORUM
        assert static.write_level("alpha") is ConsistencyLevel.LOCAL_ONE
        harmony = GeoReadPolicy()
        assert harmony.write_level() is ConsistencyLevel.ONE
        assert harmony.write_level("alpha") is ConsistencyLevel.LOCAL_ONE

    def test_unpinned_run_survives_replica_less_datacenter(self):
        """The crash scenario: a site with no replicas coordinates unpinned ops."""
        from repro.cluster.cluster import ClusterConfig, SimulatedCluster
        from repro.staleness.auditor import StalenessAuditor
        from repro.workload.executor import WorkloadExecutor
        from repro.workload.workloads import WORKLOAD_A

        cluster = SimulatedCluster(
            ClusterConfig(
                topology=build_wan_topology(),
                replication_factors={"alpha": 3},  # beta/gamma hold nothing
                seed=2,
            )
        )
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=30, operation_count=200),
            make_policy("local_quorum"),  # LOCAL_QUORUM/LOCAL_ONE, unpinned
            threads=3,
            auditor=StalenessAuditor(),
        )
        metrics = executor.run()  # must not raise at beta/gamma coordinators
        assert metrics.counters.total == 200
        assert set(metrics.consistency_level_usage) == {"QUORUM"}

    def test_pinned_run_survives_replica_less_datacenter(self):
        """Clients pinned to a replica-less site degrade LOCAL_* levels too."""
        from repro.cluster.cluster import ClusterConfig, SimulatedCluster
        from repro.staleness.auditor import StalenessAuditor
        from repro.workload.executor import WorkloadExecutor
        from repro.workload.workloads import WORKLOAD_A

        cluster = SimulatedCluster(
            ClusterConfig(
                topology=build_wan_topology(),
                replication_factors={"alpha": 3, "beta": 2},  # gamma holds nothing
                seed=3,
            )
        )
        for policy in (
            make_policy("local_quorum"),
            GeoReadPolicy(HarmonyConfig(monitoring_interval=0.05)),
        ):
            executor = WorkloadExecutor(
                cluster,
                WORKLOAD_A.scaled(record_count=30, operation_count=150),
                policy,
                threads=3,
                auditor=StalenessAuditor(),
                datacenters=["alpha", "beta", "gamma"],  # gamma pinned too
            )
            metrics = executor.run()  # gamma's writes/reads must not raise
            assert metrics.counters.total == 150

    def test_geo_harmony_policy_attach_detach(self, geo_cluster):
        policy = GeoReadPolicy(
            HarmonyConfig(monitoring_interval=0.1), tolerated_stale_rates={"alpha": 0.2}
        )
        assert policy.read_level("alpha") is ConsistencyLevel.LOCAL_ONE
        plane = ControlPlane(geo_cluster)
        plane.add(policy)
        assert plane.interval == 0.1
        plane.start()
        geo_cluster.engine.run_until(0.35)
        assert len(plane.decisions) > 0
        assert policy.read_level("alpha") is policy.current_level["alpha"]
        plane.stop()


class TestPerDatacenterMonitoring:
    def test_read_rates_local_write_rates_global(self, geo_cluster):
        """Reads are attributed to the issuing site; writes are cluster-wide.

        Every write replicates into every datacenter, so a read-only site is
        exactly as exposed to staleness as the site coordinating the writes
        -- its model must see the global write rate, not its own (zero) one.
        """
        from repro.control.monitor import ClusterMonitor

        monitor = ClusterMonitor(geo_cluster)
        monitor.prime()
        # Writes only through alpha's coordinators, reads only through beta's.
        for i in range(30):
            geo_cluster.write_sync(f"k{i}", i, ConsistencyLevel.LOCAL_ONE, datacenter="alpha")
        for i in range(10):
            geo_cluster.read_sync(f"k{i}", ConsistencyLevel.LOCAL_ONE, datacenter="beta")
        geo_cluster.engine.run_until(geo_cluster.engine.now + 1.0)
        samples = monitor.sample_per_datacenter()
        # Read intensity stays per-site...
        assert samples["beta"].raw_read_rate > 0
        assert samples["alpha"].raw_read_rate == 0.0
        assert samples["gamma"].raw_read_rate == 0.0
        # ...while every site sees the same (global) write pressure.
        assert samples["alpha"].raw_write_rate > 0
        assert samples["beta"].raw_write_rate == samples["alpha"].raw_write_rate
        assert samples["gamma"].raw_write_rate == samples["alpha"].raw_write_rate
        assert samples["alpha"].datacenter == "alpha"

    def test_per_dc_latency_reflects_wan_distance(self, geo_cluster, monkeypatch):
        from repro.control import monitor as monitor_module
        from repro.control.monitor import ClusterMonitor

        monkeypatch.setattr(monitor_module, "LATENCY_PROBES_PER_SAMPLE", 64)
        monitor = ClusterMonitor(geo_cluster)
        # Probes into any one site mix LAN (from its own nodes) and WAN (from
        # the other eight nodes): the mean must sit strictly between the two.
        latency = monitor.measure_network_latency(datacenter="gamma")
        assert 0.0002 < latency < 0.008

    def test_unknown_datacenter_rejected(self, geo_cluster):
        from repro.control.monitor import ClusterMonitor

        monitor = ClusterMonitor(geo_cluster)
        with pytest.raises(ValueError, match="unknown datacenter"):
            monitor.sample_datacenter("nowhere")
