"""Unit tests for the joint per-DC read/write adaptation policy."""

from __future__ import annotations

import pytest

from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import ControlPlane
from repro.control.policies import GeoReadWritePolicy, HarmonyConfig, make_policy

from tests.control.conftest import make_sample


def bound_policy(cluster, asr=0.05, overrides=None) -> GeoReadWritePolicy:
    plane = ControlPlane(cluster, HarmonyConfig(tolerated_stale_rate=asr))
    policy = GeoReadWritePolicy(
        HarmonyConfig(tolerated_stale_rate=asr), tolerated_stale_rates=overrides
    )
    plane.add(policy)
    return policy


class TestSearch:
    def test_idle_site_stays_at_one_one(self, geo_cluster):
        policy = bound_policy(geo_cluster)
        x, w = policy.search("alpha", make_sample(0.0, 0.0, 0.005, datacenter="alpha"))
        assert (x, w) == (1, 1)

    def test_tolerant_site_stays_at_one_one(self, geo_cluster):
        policy = bound_policy(geo_cluster, asr=1.0)
        x, w = policy.search("alpha", make_sample(5000.0, 5000.0, 0.01, datacenter="alpha"))
        assert (x, w) == (1, 1)

    def test_read_heavy_site_escalates_writes_not_reads(self, geo_cluster):
        """The tentpole behaviour: rare writes absorb the consistency burden."""
        policy = bound_policy(geo_cluster, asr=0.05)
        sample = make_sample(950.0, 50.0, 0.008, datacenter="alpha")
        x, w = policy.search("alpha", sample)
        assert x == 1  # the hot read path stays at LOCAL_ONE
        assert w > 1  # the cold write path pays the quorum

    def test_write_heavy_site_keeps_read_led_behaviour(self, geo_cluster):
        policy = bound_policy(geo_cluster, asr=0.05)
        sample = make_sample(50.0, 950.0, 0.008, datacenter="alpha")
        x, w = policy.search("alpha", sample)
        assert w == 1  # the hot write path stays at LOCAL_ONE
        assert x > 1  # the cold read path pays the quorum

    def test_chosen_pair_is_feasible(self, geo_cluster):
        policy = bound_policy(geo_cluster, asr=0.1)
        sample = make_sample(400.0, 300.0, 0.006, datacenter="alpha")
        x, w = policy.search("alpha", sample)
        estimator = policy.estimator
        assert (
            estimator.stale_probability_rw(sample, read_replicas=x, write_replicas=w, scope="alpha")
            <= 0.1
        )

    def test_unknown_site_rejected(self, geo_cluster):
        policy = bound_policy(geo_cluster)
        with pytest.raises(ValueError, match="no replicas"):
            policy.search("nowhere", make_sample(1.0, 1.0, 0.001))


class TestDecisions:
    def test_decide_emits_read_and_write_records(self, geo_cluster):
        policy = bound_policy(geo_cluster, asr=0.05)
        sample = make_sample(950.0, 50.0, 0.008, datacenter="alpha")
        read_d, write_d = policy.decide("alpha", sample)
        assert read_d.kind == "read_level" and write_d.kind == "write_level"
        assert read_d.scope == "dc:alpha" == write_d.scope
        assert read_d.value is ConsistencyLevel.LOCAL_ONE
        assert write_d.value is ConsistencyLevel.LOCAL_QUORUM
        assert policy.current_level["alpha"] is ConsistencyLevel.LOCAL_ONE
        assert policy.current_write_level["alpha"] is ConsistencyLevel.LOCAL_QUORUM
        assert (read_d.replicas, write_d.replicas) == (1, 2)
        assert read_d.estimate is write_d.estimate and read_d.sample is sample
        assert read_d.achieved_staleness == write_d.achieved_staleness <= 0.05

    def test_the_plane_log_holds_every_sites_write_trajectory(self, geo_cluster):
        policy = bound_policy(geo_cluster, asr=0.05)
        plane = policy.plane
        plane.tick()
        plane.tick()
        writes = [d for d in plane.decisions if d.kind == "write_level"]
        # One read and one write record per replica-holding site per tick.
        sites = ["dc:alpha", "dc:beta", "dc:gamma"]
        assert [d.scope for d in writes] == sites * 2
        assert len(plane.decisions) == 2 * len(writes)
        last = {d.scope: d for d in writes[-3:]}
        for dc in ("alpha", "beta", "gamma"):
            assert policy.current_write_level[dc] is last[f"dc:{dc}"].value

    def test_per_site_tolerances_respected(self, geo_cluster):
        policy = bound_policy(geo_cluster, asr=0.4, overrides={"alpha": 0.005, "beta": 0.99})
        strict = policy.search("alpha", make_sample(300.0, 250.0, 0.008, datacenter="alpha"))
        lenient = policy.search("beta", make_sample(300.0, 250.0, 0.008, datacenter="beta"))
        assert sum(strict) > sum(lenient)
        assert lenient == (1, 1)  # 99% tolerance covers the estimate outright

    def test_requires_network_topology_strategy(self, plain_cluster):
        plane = ControlPlane(plain_cluster)
        with pytest.raises(ValueError, match="NetworkTopologyStrategy"):
            plane.add(GeoReadWritePolicy())


class TestExecutorPolicyWrapper:
    def test_rw_policy_attach_and_levels(self, geo_cluster):
        policy = GeoReadWritePolicy(HarmonyConfig(monitoring_interval=0.05))
        assert policy.read_level("alpha") is ConsistencyLevel.LOCAL_ONE
        assert policy.write_level("alpha") is ConsistencyLevel.LOCAL_ONE
        plane = ControlPlane(geo_cluster)
        plane.add(policy)
        plane.start()
        geo_cluster.engine.run_until(0.2)
        assert plane.decision_counts["geo-harmony-rw.read_level"] >= 3
        assert plane.decision_counts["geo-harmony-rw.write_level"] >= 3
        # Unpinned clients must never receive LOCAL_* levels.
        assert not policy.read_level().is_datacenter_aware or (
            policy.read_level() is ConsistencyLevel.EACH_QUORUM
        )
        assert not policy.write_level().is_datacenter_aware or (
            policy.write_level() is ConsistencyLevel.EACH_QUORUM
        )
        plane.stop()

    def test_make_policy_builds_rw_from_scenario(self):
        from repro.experiments.scenarios import GRID5000_3SITES

        policy = make_policy("geo-harmony-rw", GRID5000_3SITES)
        assert policy.tolerated_stale_rates == GRID5000_3SITES.harmony_stale_rates_by_dc
        assert policy.label.startswith("geo-harmony-rw-") and policy.name == "geo-harmony-rw"
