"""Retry policies: backoff schedules, downgrade ladder, outage behaviour.

Includes the acceptance test of the Unavailable-aware client work: under a
full-DC outage, ``EACH_QUORUM`` traffic with the downgrade policy is served
via ``LOCAL_QUORUM`` with **zero** Unavailable surfaced to the workload, and
the downgrade counter accounts for every absorbed rejection.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control import retry as retry_module
from repro.control.plane import LevelPolicy
from repro.control.retry import DowngradeRetryPolicy, RetryPolicy, backoff_delay
from repro.experiments.scenarios import GRID5000_3SITES
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A


class TestBackoffDelay:
    def test_default_reproduces_fixed_50ms(self):
        assert backoff_delay(0) == 0.05

    def test_exponential_growth_capped(self, monkeypatch):
        monkeypatch.setattr(retry_module, "BACKOFF_MAX_DELAY", 0.3)
        assert backoff_delay(0) == 0.05
        assert backoff_delay(1) == 0.1
        assert backoff_delay(2) == 0.2
        assert backoff_delay(3) == 0.3  # capped
        assert backoff_delay(10) == 0.3


class TestPolicies:
    def test_default_policy_never_retries(self):
        decision = RetryPolicy().on_unavailable(ConsistencyLevel.EACH_QUORUM, 0)
        assert not decision.retry
        assert decision.backoff == 0.05

    def test_downgrade_ladder_default(self):
        policy = DowngradeRetryPolicy()
        decision = policy.on_unavailable(ConsistencyLevel.EACH_QUORUM, 0)
        assert decision.retry
        assert decision.level is ConsistencyLevel.LOCAL_QUORUM

    def test_unlisted_level_retries_unchanged(self):
        policy = DowngradeRetryPolicy()
        decision = policy.on_unavailable(ConsistencyLevel.QUORUM, 0)
        assert decision.retry and decision.level is None

    def test_max_retries_surfaces_failure(self):
        policy = DowngradeRetryPolicy(max_retries=2)
        assert policy.on_unavailable(ConsistencyLevel.EACH_QUORUM, 1).retry
        assert not policy.on_unavailable(ConsistencyLevel.EACH_QUORUM, 2).retry

    def test_identity_ladder_rejected(self):
        with pytest.raises(ValueError):
            DowngradeRetryPolicy({ConsistencyLevel.QUORUM: ConsistencyLevel.QUORUM})


def outage_executor(retry_policy, *, seed=5, operation_count=300):
    """EACH_QUORUM traffic from Rennes/Nancy fleets while Sophia is down."""
    cluster = SimulatedCluster(GRID5000_3SITES.cluster_config(seed=seed))
    policy = LevelPolicy(ConsistencyLevel.EACH_QUORUM, ConsistencyLevel.EACH_QUORUM)
    executor = WorkloadExecutor(
        cluster,
        WORKLOAD_A.scaled(record_count=50, operation_count=operation_count),
        policy,
        threads=4,
        auditor=StalenessAuditor(),
        retry_policy=retry_policy,
        datacenters=["rennes", "nancy"],
    )
    executor.load()
    cluster.take_down_datacenter("sophia")
    return cluster, executor


class TestDowngradeUnderDatacenterOutage:
    def test_each_quorum_served_via_local_quorum_with_zero_unavailable(self):
        cluster, executor = outage_executor(DowngradeRetryPolicy())
        metrics = executor.run()
        # Nothing surfaced to the workload as Unavailable...
        assert metrics.counters.unavailable == 0
        assert metrics.counters.total == 300
        # ...because every operation's EACH_QUORUM rejection was absorbed by
        # exactly one downgrade retry, and the meter accounts for all of them.
        assert metrics.counters.retries == 300
        assert metrics.counters.downgrades == 300
        assert metrics.downgrade_usage == {"EACH_QUORUM->LOCAL_QUORUM": 300}
        # The reads that executed were served at the downgraded level.
        assert set(metrics.consistency_level_usage) == {"LOCAL_QUORUM"}
        assert "downgrades" in metrics.summary()

    def test_without_downgrade_policy_everything_is_unavailable(self):
        cluster, executor = outage_executor(None, operation_count=120)
        metrics = executor.run()
        assert metrics.counters.unavailable == 120
        assert metrics.counters.retries == 0
        assert metrics.counters.downgrades == 0
        assert metrics.downgrade_usage == {}

    def test_downgraded_run_is_deterministic(self):
        def run():
            cluster, executor = outage_executor(DowngradeRetryPolicy(), operation_count=150)
            metrics = executor.run()
            return (
                metrics.summary(),
                metrics.downgrade_usage,
                cluster.engine.events_processed,
                cluster.fabric.stats.sent,
            )

        assert run() == run()


class TestDefaultPathPreservesBehaviour:
    def test_no_retry_policy_consumes_no_retry_randomness(self):
        cluster, executor = outage_executor(None, operation_count=40)
        executor.run()
        assert not any(name.startswith("workload.retry.") for name in cluster.streams.names())
