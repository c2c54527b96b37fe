"""Acceptance: workload under topology change loses nothing, ever.

The pinned invariant (same style as ``test_op_budget.py``): every write
acknowledged to a client during a membership transition must remain
durable and QUORUM-readable after the dust settles -- through a concurrent
bootstrap + decommission, through a streaming-source crash mid-transfer,
and through a WAN partition overlapping the join window.  Reads must never
touch a pending-range node, and same-seed runs must stay byte-identical
with the membership machinery active.

Verification reuses the chaos :class:`~repro.chaos.invariants.InvariantChecker`
against a :class:`~repro.faults.timeline.FaultTimeline` ground truth -- the
exact suite the chaos search trusts, so a violation here and a violation
there mean the same thing.
"""

from __future__ import annotations

import hashlib
import json

from repro.chaos.invariants import InvariantChecker
from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster import membership as membership_module
from repro.cluster.membership import MembershipManager
from repro.experiments.scenarios import ScenarioRegistry
from repro.faults.timeline import FaultTimeline

QUORUM = ConsistencyLevel.QUORUM
KEYS = 40
OP_GAP = 0.03
RUN_SPAN = 14.0


def _drive(cluster, timeline, manager, *, bootstrap_node, decommission_node,
           fault_hook=None):
    """Seed data, then run a QUORUM workload across a join + leave.

    ``fault_hook(cluster, engine, t0)`` may schedule extra fault events
    (crashes, partitions) against the run's start time ``t0``.  Returns
    ``(heal_time, end_time)`` for the invariant checker's windows.
    """
    engine = cluster.engine
    for i in range(KEYS):
        result = cluster.write_sync(f"key{i}", f"seed{i}", QUORUM)
        timeline.observe_write(result)
    cluster.settle()

    state = {"i": 0}

    def issue() -> None:
        i = state["i"]
        state["i"] += 1
        key = f"key{i % KEYS}"
        if i % 3 == 0:
            cluster.write(
                key, f"v{i}", QUORUM, lambda result: timeline.observe_write(result)
            )
        else:
            cluster.read(
                key,
                QUORUM,
                lambda result, k=key: (
                    None if result.unavailable else timeline.judge(k, result)
                ),
            )
        if state["i"] * OP_GAP < RUN_SPAN:
            engine.schedule(OP_GAP, issue)

    t0 = engine.now
    engine.schedule(OP_GAP, issue)
    engine.schedule(2.0, lambda: manager.begin_bootstrap(bootstrap_node))
    if decommission_node is not None:
        engine.schedule(2.5, lambda: manager.begin_decommission(decommission_node))
    heal_time = t0
    if fault_hook is not None:
        heal_time = fault_hook(cluster, engine, t0)
    engine.run_until(t0 + RUN_SPAN + 1.0)
    end_time = engine.now

    deadline = engine.now + 40.0
    while manager.has_active and engine.now < deadline:
        engine.run_until(engine.now + 0.5)
    assert not manager.has_active, (
        f"transitions never converged: {manager.active_transitions()}"
    )
    manager.stop()
    cluster.settle()
    cluster.flush_hints()
    cluster.settle()
    return max(heal_time, t0), end_time


def _check(cluster, timeline, heal_time, end_time) -> None:
    checker = InvariantChecker(post_heal_grace=2.0)
    violations = checker.check(
        cluster=cluster, timeline=timeline, heal_time=heal_time, end_time=end_time
    )
    assert violations == [], [str(v) for v in violations]
    assert cluster.membership.pending_read_violations == 0


def _elastic_cluster(seed: int) -> SimulatedCluster:
    return SimulatedCluster(
        ClusterConfig(n_nodes=5, replication_factor=3, seed=seed, spares_per_dc=1)
    )


class TestWorkloadUnderTopologyChange:
    def test_concurrent_join_and_leave_lose_nothing(self):
        cluster = _elastic_cluster(seed=101)
        timeline = FaultTimeline()
        timeline.attach(cluster)
        manager = MembershipManager(cluster)
        heal, end = _drive(
            cluster,
            timeline,
            manager,
            bootstrap_node=cluster.spares[0],
            decommission_node=cluster.members[-1],
        )
        assert [t.state for t in manager.history] == ["done", "done"]
        assert timeline.stats.judged_reads > 100  # the run actually exercised reads
        _check(cluster, timeline, heal, end)

    def test_streaming_source_crash_mid_transfer(self, monkeypatch):
        # Small chunks + short watchdog so the crash lands mid-stream and
        # the failover path (re-queue, re-pick source) actually runs.
        monkeypatch.setattr(membership_module, "CHUNK_CELLS", 2)
        monkeypatch.setattr(membership_module, "CHUNK_TIMEOUT", 0.5)
        cluster = _elastic_cluster(seed=202)
        timeline = FaultTimeline()
        timeline.attach(cluster)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]

        def crash_a_source(cluster, engine, t0):
            victims = {}

            def crash() -> None:
                transition = cluster.membership.transition(spare)
                if transition is not None and transition.outstanding is not None:
                    victims["node"] = transition.outstanding[1]
                else:  # not streaming right now: crash any replica of key0
                    victims["node"] = cluster.replicas_for("key0")[0]
                cluster.take_down(victims["node"])

            engine.schedule(2.3, crash)
            engine.schedule(6.0, lambda: cluster.bring_up(victims["node"]))
            return t0 + 6.0

        heal, end = _drive(
            cluster,
            timeline,
            manager,
            bootstrap_node=spare,
            decommission_node=None,
            fault_hook=crash_a_source,
        )
        assert manager.history[-1].state == "done"
        assert spare in cluster.members
        _check(cluster, timeline, heal, end)

    def test_wan_partition_overlapping_the_join_window(self):
        scenario = ScenarioRegistry.get("grid5000_3sites_elastic")
        cluster = SimulatedCluster(scenario.cluster_config(seed=303))
        timeline = FaultTimeline()
        timeline.attach(cluster)
        manager = MembershipManager(cluster)
        spare = cluster.spares[0]  # a rennes node

        def partition_overlap(cluster, engine, t0):
            engine.schedule(
                2.2, lambda: cluster.partition_datacenters("rennes", "sophia")
            )
            engine.schedule(7.0, lambda: cluster.heal_datacenters("rennes", "sophia"))
            return t0 + 7.0

        heal, end = _drive(
            cluster,
            timeline,
            manager,
            bootstrap_node=spare,
            decommission_node=None,
            fault_hook=partition_overlap,
        )
        assert manager.history[-1].state == "done"
        assert spare in cluster.members
        assert not cluster.fabric.has_partitions
        _check(cluster, timeline, heal, end)


class TestSameSeedByteIdentity:
    @staticmethod
    def _fingerprint(seed: int) -> str:
        cluster = _elastic_cluster(seed=seed)
        timeline = FaultTimeline()
        timeline.attach(cluster)
        manager = MembershipManager(cluster)
        _drive(
            cluster,
            timeline,
            manager,
            bootstrap_node=cluster.spares[0],
            decommission_node=cluster.members[-1],
        )
        storage = {
            str(address): sorted(
                (key, cell.timestamp, cell.value_id)
                for key in cluster.nodes[address].storage.keys()
                for cell in [cluster.nodes[address].peek(key)]
            )
            for address in cluster.addresses
        }
        payload = {
            "history": [
                (
                    t.kind,
                    str(t.node),
                    t.started_at,
                    t.completed_at,
                    t.streamed_cells,
                    t.streamed_bytes,
                )
                for t in manager.history
            ],
            "ops": [
                (e.time, e.op_type, round(e.latency, 12), e.unavailable, e.timed_out)
                for e in timeline.op_events
            ],
            "storage": storage,
            "epoch": cluster.membership_epoch,
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()

    def test_membership_active_runs_are_byte_identical(self):
        assert self._fingerprint(404) == self._fingerprint(404)

    def test_seed_actually_matters(self):
        assert self._fingerprint(404) != self._fingerprint(405)
