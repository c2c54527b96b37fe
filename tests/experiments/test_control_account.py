"""One control account per run: the plane's decision log.

Every view of what the run's policies decided is derived from
``ControlPlane.decisions``: the run metrics' per-``policy.kind`` counts and
cluster-wide estimate series and the tracer's ``control.decision`` events.
The oracle below recomputes each view from the log on its own and holds the
run to it, for every adaptive level-policy family and for the adaptive
repair scheduler sharing a plane with them.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import EC2_MULTIREGION, GRID5000, GRID5000_3SITES_ADAPTIVE
from repro.obs.tracer import Tracer
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B

LAN = dict(
    workload=WORKLOAD_A.scaled(record_count=60, operation_count=1200),
    threads=24,
    monitoring_interval=0.02,
)
WAN = dict(
    workload=WORKLOAD_B.scaled(record_count=60, operation_count=1800),
    threads=12,
    think_time=0.05,
)

#: case -> (scenario, policy spec, run shape).  The geo families run on the
#: adaptive-repair platform, so their logs interleave the repair scheduler's
#: records; ``adaptive-repair`` is that scheduler beside a static level
#: policy.
CASES = {
    "harmony-20%": (GRID5000, "harmony-20%", LAN),
    "threshold-0.3": (GRID5000, "threshold-0.3", LAN),
    "geo-harmony": (GRID5000_3SITES_ADAPTIVE, "geo-harmony", WAN),
    "geo-harmony-rw": (GRID5000_3SITES_ADAPTIVE, "geo-harmony-rw", WAN),
    "adaptive-repair": (GRID5000_3SITES_ADAPTIVE, "each_quorum", WAN),
}


def traced_run(case: str):
    scenario, spec, shape = CASES[case]
    if shape is not LAN:  # clients pinned to sites, as geo deployments run
        shape = {**shape, "datacenters": scenario.datacenter_names}
    tracer = Tracer()
    result = run_experiment(scenario, policy=spec, seed=3, tracer=tracer, **shape)
    return result, tracer


@pytest.mark.parametrize("case", list(CASES))
def test_the_control_account_is_the_decision_log(case):
    result, tracer = traced_run(case)
    metrics, log = result.metrics, result.control_plane.decisions
    assert log, f"{case} logged no decision"

    # 1. The counts are a recount of the log, keys in first-decision order.
    recount = {}
    for decision in log:
        key = f"{decision.policy}.{decision.kind}"
        recount[key] = recount.get(key, 0) + 1
    assert metrics.control_decisions == recount
    assert list(metrics.control_decisions) == list(recount)

    # 2. The estimate series is the log's cluster-scope estimates.
    cluster_estimates = [
        (d.time, d.estimate.probability)
        for d in log
        if d.scope == "cluster" and d.estimate is not None
    ]
    assert list(metrics.estimate_series) == cluster_estimates
    if case == "harmony-20%":
        assert len(cluster_estimates) == len(log)  # every decision estimates

    # 3. The tracer's control events are the log, one for one.
    events = [e for e in tracer.events if e.kind == "control.decision"]
    assert len(events) == len(log)
    for event, decision in zip(events, log):
        expected = {
            "policy": decision.policy,
            "scope": decision.scope,
            "decision": decision.kind,
            "value": getattr(decision.value, "value", decision.value),
        }
        if decision.replicas is not None:
            expected["replicas"] = decision.replicas
        if decision.estimate is not None:
            expected["estimate"] = decision.estimate.probability
        assert (event.time, event.fields) == (decision.time, expected)
