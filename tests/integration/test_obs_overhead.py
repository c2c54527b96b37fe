"""Regression guard: observability must not perturb the simulation.

The tracer's contract is *zero cost when off and zero simulated cost when
on*: every hook is an identity check inside a callback that already runs,
so a traced run schedules exactly the same engine events, sends exactly the
same fabric messages, and produces a byte-identical summary to an untraced
run of the same seed.  A change that sneaks a per-operation event or a
random draw into a hook site breaks this equality long before any
wall-clock benchmark would notice.

The runner-driven cases hold the hook sites the runner's cluster hands the
tracer to: the fault injector and the membership manager it builds mid-run
(an elastic bootstrap), and the fault injector, anti-entropy service and
fair-share transfers of a finite-WAN outage.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.cluster import SimulatedCluster
from repro.control.policies import make_policy
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import GRID5000_3SITES_ELASTIC, GRID5000_3SITES_WAN, SCALE_100
from repro.faults.schedule import FaultSchedule, NodeBootstrap
from repro.obs.tracer import Tracer
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A, WORKLOAD_B

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


def elastic_bootstrap_run(**options):
    """A ``GRID5000_3SITES_ELASTIC`` run that bootstraps the first spare at
    t = 0.5 s; the injector builds the membership manager mid-run."""
    scenario = GRID5000_3SITES_ELASTIC
    spare = SimulatedCluster(scenario.cluster_config(seed=3)).spares[0]
    return run_experiment(
        scenario.with_overrides(
            fault_schedule=FaultSchedule([NodeBootstrap(at=0.5, node=spare)])
        ),
        WORKLOAD_B.scaled(record_count=100, operation_count=1500),
        "local_one",
        12,
        seed=3,
        datacenters=scenario.datacenter_names,
        think_time=0.02,  # stretches the run past the bootstrap's cutover
        **options,
    )


def geo_wan_run(**options):
    """The perf ledger's quick ``geo_faults_wan`` shape: a WAN isolation and
    heal, anti-entropy and fair-share transfers on a 4 MB/s WAN."""
    return run_experiment(
        GRID5000_3SITES_WAN,
        WORKLOAD_B.scaled(record_count=100, operation_count=800),
        "local_one",
        12,
        seed=20260730,
        datacenters=GRID5000_3SITES_WAN.datacenter_names,
        think_time=83.0 * 12 / 800,
        **options,
    )


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


@pytest.mark.parametrize(
    "run, kinds",
    [
        (elastic_bootstrap_run, {"fault", "bootstrap.start", "bootstrap.cutover"}),
        (geo_wan_run, {"fault", "repair.session", "transfer.start", "hint.stored"}),
    ],
    ids=["elastic_bootstrap", "geo_wan"],
)
def test_traced_runner_run_is_identical_to_untraced(run, kinds):
    outcomes = []
    for tracer in (None, Tracer()):
        clusters = []
        result = run(tracer=tracer, cluster_hook=clusters.append)
        (cluster,) = clusters
        outcomes.append(
            (
                cluster.engine.events_processed,
                cluster.fabric.stats.sent,
                json.dumps(result.summary(), sort_keys=True),
                result.injector.log,
            )
        )
    assert outcomes[1] == outcomes[0]
    # The traced run went through the hook sites the runner hands on.
    assert kinds <= set(tracer.counts_by_kind())
