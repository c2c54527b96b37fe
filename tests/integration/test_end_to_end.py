"""End-to-end integration tests: the full Harmony pipeline on one cluster.

These tests run the whole stack -- cluster, workload executor, monitoring,
controller, auditor -- the way the public API documents it, and check the
behavioural guarantees the paper claims for Harmony:

* the measured stale-read rate stays at or below the application's tolerated
  rate (plus a small noise margin appropriate for short simulated runs);
* the controller actually adapts (it uses more than one consistency level
  when the load justifies it);
* performance sits between the static eventual and strong baselines.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.node import NodeConfig
from repro.control.policies import HarmonyConfig, HarmonyReadPolicy, make_policy
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B


def build_cluster(seed: int) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=8,
            replication_factor=5,
            racks_per_dc=2,
            datacenters=2,
            seed=seed,
            node=NodeConfig(
                concurrency=8,
                read_service_time=0.002,
                write_service_time=0.0015,
                service_time_cv=0.4,
            ),
        )
    )


def run_policy(policy, seed=1, threads=16, workload=WORKLOAD_A, operations=1200):
    cluster = build_cluster(seed)
    auditor = StalenessAuditor()
    executor = WorkloadExecutor(
        cluster,
        workload.scaled(record_count=200, operation_count=operations),
        policy,
        threads=threads,
        auditor=auditor,
    )
    return executor.run()


def harmony(asr: float) -> HarmonyReadPolicy:
    return HarmonyReadPolicy(HarmonyConfig(tolerated_stale_rate=asr, monitoring_interval=0.02))


class TestHarmonyGuarantees:
    @pytest.mark.parametrize("asr", [0.1, 0.3, 0.6])
    def test_measured_stale_rate_respects_the_tolerance(self, asr):
        metrics = run_policy(harmony(asr))
        assert metrics.staleness.stale_rate() <= asr + 0.1

    def test_controller_adapts_levels_under_load(self):
        metrics = run_policy(harmony(0.1), threads=24)
        # More than one consistency level used during the run -- the
        # controller is genuinely adaptive, not a static setting.
        assert len(metrics.consistency_level_usage) >= 2
        assert len(metrics.estimate_series) >= 3

    def test_quiet_workload_stays_on_eventual_consistency(self):
        metrics = run_policy(harmony(0.4), threads=1, workload=WORKLOAD_B, operations=400)
        assert set(metrics.consistency_level_usage) == {"ONE"}

    def test_estimates_are_higher_for_update_heavy_workloads(self):
        heavy = run_policy(harmony(1.0), threads=16, workload=WORKLOAD_A)
        light = run_policy(harmony(1.0), threads=16, workload=WORKLOAD_B)
        assert heavy.estimate_series.mean() > light.estimate_series.mean()


class TestPolicyOrdering:
    """Harmony sits between the two static baselines on every axis."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            "eventual": run_policy(make_policy("eventual"), threads=20),
            "strong": run_policy(make_policy("strong"), threads=20),
            "harmony": run_policy(harmony(0.2), threads=20),
        }

    def test_staleness_ordering(self, results):
        assert results["strong"].staleness.stale_reads == 0
        assert results["harmony"].staleness.stale_reads <= results[
            "eventual"
        ].staleness.stale_reads

    def test_throughput_ordering(self, results):
        assert results["eventual"].ops_per_second() >= results["harmony"].ops_per_second()
        assert results["harmony"].ops_per_second() >= 0.8 * results["strong"].ops_per_second()

    def test_latency_ordering(self, results):
        assert (
            results["eventual"].read_latency.p99()
            <= results["harmony"].read_latency.p99() * 1.5
        )
        assert results["harmony"].read_latency.p99() <= results["strong"].read_latency.p99() * 1.5

    def test_every_policy_completed_the_budget(self, results):
        for metrics in results.values():
            assert metrics.counters.total == 1200


class TestPublicApiQuickstart:
    def test_readme_quickstart_flow(self):
        """The exact flow documented in the package docstring / README."""
        from repro import (
            ClusterConfig,
            SimulatedCluster,
            StalenessAuditor,
            WORKLOAD_A,
            WorkloadExecutor,
            make_policy,
        )

        cluster = SimulatedCluster(ClusterConfig(n_nodes=6, replication_factor=3, seed=7))
        auditor = StalenessAuditor()
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_A.scaled(record_count=200, operation_count=2000),
            make_policy("harmony-20%"),
            threads=8,
            auditor=auditor,
        )
        metrics = executor.run()
        assert metrics.counters.total == 2000
        assert metrics.staleness.stale_rate() <= 0.2 + 0.1
