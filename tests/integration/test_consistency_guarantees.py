"""Integration tests: consistency guarantees of the simulated store.

The quorum-intersection rule ``R + W > N`` is used as an oracle: any
configuration satisfying it must never produce a stale read, whatever the
workload, thread count or seed.  Conversely partial quorums are allowed to
produce stale reads (and under a write-heavy workload they eventually do).
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel, is_strongly_consistent
from repro.cluster.node import NodeConfig
from repro.control.plane import LevelPolicy
from repro.control.policies import make_policy
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A


def build_cluster(seed: int, rf: int = 3, n_nodes: int = 6) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(
            n_nodes=n_nodes,
            replication_factor=rf,
            seed=seed,
            node=NodeConfig(
                concurrency=6,
                read_service_time=0.0015,
                write_service_time=0.001,
                service_time_cv=0.4,
            ),
        )
    )


def run(policy: LevelPolicy, seed: int = 0, threads: int = 8, rf: int = 3):
    cluster = build_cluster(seed, rf=rf)
    auditor = StalenessAuditor()
    executor = WorkloadExecutor(
        cluster,
        WORKLOAD_A.scaled(record_count=100, operation_count=800),
        policy,
        threads=threads,
        auditor=auditor,
    )
    metrics = executor.run()
    return cluster, metrics, auditor


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strong_reads_are_never_stale(seed):
    _, metrics, auditor = run(make_policy("strong"), seed=seed)
    assert metrics.staleness is auditor.stats
    assert metrics.staleness.judged_reads > 0
    assert metrics.staleness.stale_reads == 0


@pytest.mark.parametrize(
    "read,write",
    [
        (ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM),
        (ConsistencyLevel.ALL, ConsistencyLevel.ONE),
        (ConsistencyLevel.ONE, ConsistencyLevel.ALL),
        (ConsistencyLevel.TWO, ConsistencyLevel.TWO),
    ],
)
def test_quorum_intersection_implies_zero_staleness(read, write):
    assert is_strongly_consistent(read, write, 3)
    policy = LevelPolicy(read, write, name=f"{read.value}+{write.value}")
    _, metrics, _ = run(policy, seed=3)
    assert metrics.staleness.stale_reads == 0


def test_eventual_consistency_produces_stale_reads_under_heavy_updates():
    """With a write-heavy workload, many threads and partial quorums, at
    least some reads observe stale data (this is the premise of the paper)."""
    stale_total = 0
    for seed in (0, 1, 2, 3):
        _, metrics, _ = run(make_policy("eventual"), seed=seed, threads=16)
        stale_total += metrics.staleness.stale_reads
    assert stale_total > 0


def test_eventual_consistency_converges_after_the_run():
    cluster, _, _ = run(make_policy("eventual"), seed=5)
    cluster.settle()
    # After background propagation and read repair drain, replicas agree.
    for i in range(100):
        assert cluster.is_consistent(f"user{i}")


def test_all_writes_are_durable_at_every_replica_after_settle():
    cluster, metrics, auditor = run(make_policy("eventual"), seed=6)
    cluster.settle()
    for i in range(100):
        key = f"user{i}"
        newest = cluster.newest_cell(key)
        assert newest is not None
        for replica, cell in cluster.replica_cells(key).items():
            assert cell is not None, f"replica {replica} lost {key}"
            assert (cell.timestamp, cell.value_id) == (newest.timestamp, newest.value_id)


def test_read_your_own_write_with_quorum_levels():
    cluster = build_cluster(seed=9)
    for i in range(50):
        key = f"rw{i}"
        cluster.write_sync(key, f"value{i}", ConsistencyLevel.QUORUM)
        result = cluster.read_sync(key, ConsistencyLevel.QUORUM)
        assert result.cell is not None
        assert result.cell.value == f"value{i}"


def test_monotonic_reads_with_strong_consistency():
    """Successive ALL reads never observe time going backwards."""
    cluster = build_cluster(seed=10)
    last_version = None
    for i in range(30):
        cluster.write_sync("counter", i, ConsistencyLevel.ONE)
        result = cluster.read_sync("counter", ConsistencyLevel.ALL)
        version = (result.cell.timestamp, result.cell.value_id)
        if last_version is not None:
            assert version >= last_version
        last_version = version
