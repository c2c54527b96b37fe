"""One control plane per run, carrying everything.

The executor owns the run's single ``ControlPlane``; the level policy it is
handed is registered there, and every other control policy of the run -- the
repair scheduler, the scale-out policy -- is added beside it.  One
parametrised test drives every level-policy family through the executor on
the elastic three-site platform (a ``MembershipManager`` installed,
anti-entropy running) with **both** other policies on the plane: the
combination a review once caught only by reading the code.  What it holds for
every family: the policies share the plane in registration order; the level
policy (or, for static levels, the repair base cadence) sets the tick period;
the one decision log reaches the run metrics; and the levels clients are
handed come from the level policy's own decisions, whatever else is logged.
"""

from __future__ import annotations

import pytest

from repro.cluster.antientropy import AntiEntropyConfig
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.membership import MembershipManager
from repro.control.plane import LevelPolicy
from repro.control.policies import (
    RepairControlConfig,
    RepairSchedulePolicy,
    ScaleOutConfig,
    ScaleOutPolicy,
    make_policy,
)
from repro.experiments.scenarios import GRID5000_3SITES_ELASTIC as SCENARIO
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A

INTERVAL = 0.1  # the adaptive level policies' tick period
REPAIR_INTERVAL = 1.0


#: family -> decision-record name: every name ``make_policy`` knows.  The
#: last six are static levels, which never tick.
FAMILIES = {
    "harmony-0.2": "harmony",
    "threshold-0.3": "threshold",
    "geo-harmony": "geo-harmony",
    "geo-harmony-rw": "geo-harmony-rw",
    "eventual": "eventual",
    "strong": "strong",
    "quorum": "quorum",
    "local_one": "static-geo(LOCAL_ONE/LOCAL_ONE)",
    "local_quorum": "static-geo(LOCAL_QUORUM/LOCAL_ONE)",
    "each_quorum": "static-geo(EACH_QUORUM/LOCAL_ONE)",
}


def run_on_one_plane(family: str):
    cluster = SimulatedCluster(SCENARIO.cluster_config(seed=5))
    manager = MembershipManager(cluster)
    policy = make_policy(family, SCENARIO, monitoring_interval=INTERVAL)
    executor = WorkloadExecutor(
        cluster,
        WORKLOAD_A.scaled(record_count=60, operation_count=900),
        policy,
        threads=6,
        auditor=StalenessAuditor(),
        think_time=0.02,
        datacenters=SCENARIO.datacenter_names,
    )
    executor.load()
    manager.start()
    service = cluster.start_anti_entropy(AntiEntropyConfig(interval=REPAIR_INTERVAL))
    plane = executor.plane
    # The scheduler starts mid-range, so every completed session moves it:
    # a diverging one tightens, a clean one relaxes.  (With the floor at the
    # start interval, a run whose sessions all diverge has nothing to decide.)
    plane.add(
        RepairSchedulePolicy(
            service, RepairControlConfig(min_interval=REPAIR_INTERVAL / 2, max_interval=8.0)
        )
    )
    plane.add(ScaleOutPolicy(ScaleOutConfig(sustain_ticks=2, cooldown=1.0)))
    issued = []  # every read level the executor's clients were handed
    read_level = policy.read_level
    policy.read_level = lambda datacenter=None: issued.append(read_level(datacenter)) or issued[-1]
    try:
        metrics = executor.run()
    finally:
        service.stop()
        manager.stop()
    return policy, plane, metrics, issued


@pytest.mark.parametrize("family", list(FAMILIES))
def test_one_plane_carries_everything(family):
    record_name = FAMILIES[family]
    policy, plane, metrics, issued = run_on_one_plane(family)
    static = policy.interval is None
    assert metrics.counters.total == 900 and not plane.running

    # One plane: the level policy first, then everything added beside it.
    assert plane.policies[0] is policy and policy.plane is plane
    assert [p.name for p in plane.policies] == [record_name, "repair-schedule", "scale_out"]
    # The level policy sets the tick period; static levels leave it to the
    # next policy that declares one (the repair base cadence).
    assert plane.interval == (REPAIR_INTERVAL if static else INTERVAL)
    assert plane.ticks >= 3

    # One decision log, one counter export, and it reaches the run metrics.
    assert metrics.control_decisions == plane.decision_counts
    by_policy = {}
    for decision in plane.decisions:
        by_policy.setdefault(decision.policy, []).append(decision)
    assert set(by_policy) <= {record_name, "repair-schedule", "scale_out"}
    assert all(d.kind == "repair_interval" for d in by_policy.get("repair-schedule", ()))
    assert by_policy.get("repair-schedule"), "the repair scheduler never decided"
    own = by_policy.get(record_name, [])
    if static:
        assert own == []  # a static level has nothing to decide, and does no harm
    else:
        assert own, f"{family} never decided on the shared plane"

    # Every read level a client was handed is one this policy decided (or
    # the level it starts from), never something another policy logged.
    decided = {d.value for d in own if d.kind == "read_level"}
    starting = {ConsistencyLevel.ONE, ConsistencyLevel.LOCAL_ONE}
    if static:
        # The fixed level at each client's site (the class's method: the
        # instance's own one records ``issued``).
        starting = {LevelPolicy.read_level(policy, dc) for dc in SCENARIO.datacenter_names}
    assert issued and set(issued) <= decided | starting
    assert set(metrics.consistency_level_usage) == {level.value for level in set(issued)}
