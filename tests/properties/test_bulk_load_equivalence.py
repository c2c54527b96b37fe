"""Differential properties: the bulk load ≡ the simulated-load oracle.

``WorkloadExecutor.load`` places every initial record straight into its
replicas (no engine event, message or random draw).  Whatever it leaves
behind must equal what the old simulated load (``load_oracle``: every record
written at CL ONE through the round-robin coordinator at t = 0, then the
cluster settled) left behind, over random scenario x replication factor x
record count x seed -- LAN ``OldNetworkTopologyStrategy``, geo
``NetworkTopologyStrategy`` and the fifo ``SCALE_100`` ring:

* every replica's newest cell per key (timestamp, value id, value, size);
* per node: ``dirty_keys``, ``writes_applied``, ``coordinator_writes`` and
  the storage engine's ``StorageStats``;
* the auditor's newest acknowledged version per key;
* each coordinator's value-id counter and the round-robin position.

One difference is by design: the bulk load dates its versions one float step
before the load instant (the oracle's write timestamp), so that a write at the
run's first instant is strictly newer than every loaded record.  And a read
issued at the run's first instant is judged against the load.
"""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.policies import make_policy
from repro.experiments.scenarios import GRID5000, GRID5000_3SITES, SCALE_100
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A

from tests.properties import load_oracle


@st.composite
def load_cases(draw):
    """A (cluster config, record count): LAN, geo per-DC or fifo SCALE_100."""
    seed = draw(st.integers(0, 10_000))
    records = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["lan", "geo", "fifo"]))
    if kind == "lan":
        n_nodes = draw(st.integers(3, 20))
        rf = draw(st.integers(1, min(5, n_nodes)))
        config = GRID5000.with_overrides(replication_factor=rf).cluster_config(
            seed=seed, n_nodes=n_nodes
        )
    elif kind == "geo":
        factors = {dc: draw(st.integers(0, 3)) for dc in GRID5000_3SITES.datacenter_names}
        assume(any(factors.values()))
        config = replace(GRID5000_3SITES.cluster_config(seed=seed), replication_factors=factors)
    else:
        rf = draw(st.integers(1, 5))
        config = replace(SCALE_100.cluster_config(seed=seed), replication_factor=rf)
    return config, records


def loaded(config: ClusterConfig, records: int, load) -> tuple:
    cluster = SimulatedCluster(config)
    auditor = StalenessAuditor()
    workload = WORKLOAD_A.scaled(record_count=records, operation_count=1)
    executor = WorkloadExecutor(cluster, workload, make_policy("eventual"), auditor=auditor)
    load(executor)
    return cluster, auditor, executor.workload.load_keys()


def state(cluster: SimulatedCluster, auditor: StalenessAuditor, keys) -> dict:
    """Everything the load is held to, read off one loaded cluster."""
    cells = {}
    for address, node in cluster.nodes.items():
        for key in keys:
            cell = node.peek(key)
            if cell is not None:
                cells[address, key] = (cell.timestamp, cell.value_id, cell.value, cell.size_bytes)
    return {
        "cells": cells,
        "nodes": {
            address: (
                node.storage.dirty_keys,
                node.counters.writes_applied,
                node.counters.coordinator_writes,
                node.storage.stats,
            )
            for address, node in cluster.nodes.items()
        },
        "acknowledged": {key: auditor.newest_acknowledged(key) for key in keys},
        # Reading a counter or a cycle's position consumes it: last, once.
        "next_value_ids": {
            address: next(coordinator._value_ids)
            for address, coordinator in cluster.coordinators.items()
        },
        "round_robin": [
            cluster._pick_coordinator(None).address for _ in range(len(cluster.members) + 1)
        ],
    }


def dated_before(oracle: dict) -> dict:
    """``oracle`` with every load version one float step earlier."""
    def earlier(version):
        return None if version is None else (math.nextafter(version[0], -math.inf),) + version[1:]

    return {
        **oracle,
        "cells": {where: earlier(cell) for where, cell in oracle["cells"].items()},
        "acknowledged": {key: earlier(v) for key, v in oracle["acknowledged"].items()},
    }


@given(case=load_cases())
@settings(max_examples=30, deadline=None)
def test_bulk_load_equals_the_simulated_load(case):
    config, records = case
    bulk = loaded(config, records, WorkloadExecutor.load)
    oracle = loaded(config, records, load_oracle.simulated_load)
    bulk_cluster = bulk[0]
    # The bulk load costs no simulated anything.
    assert bulk_cluster.engine.now == 0.0 and bulk_cluster.engine.events_processed == 0
    assert bulk_cluster.fabric.stats.sent == 0
    assert state(*bulk) == dated_before(state(*oracle))


@given(case=load_cases())
@settings(max_examples=15, deadline=None)
def test_a_read_at_the_first_instant_is_judged_fresh(case):
    config, records = case
    cluster, auditor, keys = loaded(config, records, WorkloadExecutor.load)
    results = []
    for key in keys:  # every read issued before the engine runs: t = 0
        cluster.read(key, ConsistencyLevel.ONE, results.append)
    cluster.engine.run()
    assert len(results) == len(keys)
    for result in results:
        assert result.started_at == 0.0
        assert auditor.judge(result.key, result) is False  # never None: the load counts
