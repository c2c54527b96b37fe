"""Regression guard: observability must not perturb the simulation.

The tracer's contract is *zero cost when off and zero simulated cost when
on*: every hook is an identity check inside a callback that already runs,
so a traced run schedules exactly the same engine events, sends exactly the
same fabric messages, and produces a byte-identical summary to an untraced
run of the same seed.  A change that sneaks a per-operation event or a
random draw into a hook site breaks this equality long before any
wall-clock benchmark would notice.

The series recorder is the deliberate exception (it owns a periodic engine
process), which is why it lives behind a separate opt-in; its guard is that
the op-path budgets of tests/integration/test_op_budget.py still hold with
tracing enabled.
"""

from __future__ import annotations

import json

from repro.cluster.cluster import SimulatedCluster
from repro.control.policies import make_policy
from repro.experiments.scenarios import SCALE_100
from repro.obs.tracer import Tracer
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A

from tests.integration.test_op_budget import MAX_EVENTS_PER_OP, MAX_MESSAGES_PER_OP

SEED = 11
RECORDS = 120
OPS = 600
THREADS = 20


def run_once(traced: bool):
    cluster = SimulatedCluster(SCALE_100.cluster_config(seed=SEED))
    tracer = Tracer().attach_cluster(cluster) if traced else None
    workload = WORKLOAD_A.scaled(record_count=RECORDS, operation_count=OPS)
    executor = WorkloadExecutor(
        cluster,
        workload,
        make_policy("quorum"),
        threads=THREADS,
        auditor=StalenessAuditor(),
        tracer=tracer,
    )
    executor.load()
    events_before = cluster.engine.events_processed
    messages_before = cluster.fabric.stats.sent
    metrics = executor.run()
    return {
        "events": cluster.engine.events_processed - events_before,
        "messages": cluster.fabric.stats.sent - messages_before,
        "summary": json.dumps(metrics.summary(), sort_keys=True),
        "trace_events": len(tracer) if tracer is not None else 0,
    }


class TestTracingIsFree:
    def test_traced_run_is_event_identical_to_untraced(self):
        untraced = run_once(traced=False)
        traced = run_once(traced=True)
        assert traced["events"] == untraced["events"], (
            "tracing scheduled extra engine events -- a hook site is no "
            "longer a pure callback"
        )
        assert traced["messages"] == untraced["messages"]
        assert traced["summary"] == untraced["summary"]
        # The trace itself is non-trivial: the equality above is not
        # vacuously comparing two untraced runs.
        assert traced["trace_events"] >= 2 * OPS  # at least issue + complete

    def test_traced_run_stays_inside_the_op_budgets(self):
        traced = run_once(traced=True)
        assert traced["events"] / OPS <= MAX_EVENTS_PER_OP
        assert traced["messages"] / OPS <= MAX_MESSAGES_PER_OP
