"""Regression guards on the per-operation runtime budget.

The op-path overhaul (zero-Waiter completions, batched client scheduler,
shared timer queues) is held in place by pinning the *counts* that make it
fast: engine events per operation and fabric messages per operation on the
``SCALE_100`` reference workload.  These are deterministic for a given seed,
so the ceilings are machine-independent -- a change that quietly reintroduces
per-operation bookkeeping events fails here long before a wall-clock
benchmark would notice.

Recorded at the time of the overhaul (seed 11, 120 records, 600 ops,
20 threads): ~14.1 events/op and ~8.74 messages/op in the run phase.

The *width* budget does the same for ring width on the ``SCALE_1000`` smoke:
ring tokens stepped over per placement miss (recorded 5.02 at RF 5: the walk
stops when the strategy's rules are met) and the share of fabric links that
ever allocated a queue (recorded 0 of 3 036: an idle link carries none).
"""

from __future__ import annotations

from repro.cluster.cluster import SimulatedCluster
from repro.core.policy import StaticQuorumPolicy
from repro.experiments.scenarios import SCALE_100, SCALE_1000
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_A

#: Ceilings with a small allowance over the recorded values; semantic
#: message counts (replica fan-out) dominate, the allowance covers only
#: bookkeeping drift.
MAX_EVENTS_PER_OP = 15.0
MAX_MESSAGES_PER_OP = 9.2

#: Width ceilings: a placement miss may step over this many ring tokens per
#: replica, and this share of the links created may ever hold a queue.
MAX_TOKENS_PER_MISS_PER_REPLICA = 8
MAX_QUEUED_LINK_SHARE = 0.25


def run_closed_loop(scenario, *, seed, records, ops, threads):
    """Load and run; the cluster, then the run phase's events/op and messages/op."""
    cluster = SimulatedCluster(scenario.cluster_config(seed=seed))
    workload = WORKLOAD_A.scaled(record_count=records, operation_count=ops)
    executor = WorkloadExecutor(cluster, workload, StaticQuorumPolicy(), threads=threads)
    executor.load()
    # The bulk load is free: no engine event, no fabric message.
    assert cluster.engine.events_processed == 0 and cluster.fabric.stats.sent == 0
    events_before = cluster.engine.events_processed
    messages_before = cluster.fabric.stats.sent
    metrics = executor.run()
    assert metrics.counters.total == ops
    events = cluster.engine.events_processed - events_before
    messages = cluster.fabric.stats.sent - messages_before
    return cluster, events / ops, messages / ops


def run_phase_counts(scenario, **sizes):
    return run_closed_loop(scenario, **sizes)[1:]


class TestOperationBudget:
    def test_scale_100_events_per_op_within_budget(self):
        events_per_op, messages_per_op = run_phase_counts(
            SCALE_100, seed=11, records=120, ops=600, threads=20
        )
        assert events_per_op <= MAX_EVENTS_PER_OP, (
            f"events/op regressed to {events_per_op:.2f} "
            f"(budget {MAX_EVENTS_PER_OP}); did a per-operation event sneak "
            "back into the completion or timeout path?"
        )
        assert messages_per_op <= MAX_MESSAGES_PER_OP, (
            f"messages/op regressed to {messages_per_op:.2f} "
            f"(budget {MAX_MESSAGES_PER_OP})"
        )

    def test_budget_is_stable_across_seeds(self):
        # The ceilings must not be a lucky seed: a second seed stays inside.
        events_per_op, messages_per_op = run_phase_counts(
            SCALE_100, seed=12, records=120, ops=600, threads=20
        )
        assert events_per_op <= MAX_EVENTS_PER_OP
        assert messages_per_op <= MAX_MESSAGES_PER_OP

    def test_scale_1000_serves_a_closed_loop(self):
        # Headroom proof: a 1000-node ring serves a small closed loop with
        # the same per-op budget (placement walks, link lookups and timers
        # must all stay O(1) in ring width).
        events_per_op, messages_per_op = run_phase_counts(
            SCALE_1000, seed=11, records=60, ops=300, threads=10
        )
        assert events_per_op <= MAX_EVENTS_PER_OP
        assert messages_per_op <= MAX_MESSAGES_PER_OP

    def test_scale_1000_width_budget(self):
        # What a run costs must follow what it touches, not the ring's width:
        # both ratios are exact for a seed and read off public state.
        cluster, _, _ = run_closed_loop(SCALE_1000, seed=11, records=60, ops=300, threads=10)
        ring = cluster.ring
        assert ring.walks > 0
        tokens_per_miss = ring.tokens_visited / ring.walks
        budget = MAX_TOKENS_PER_MISS_PER_REPLICA * cluster.replication_factor
        assert tokens_per_miss <= budget, (
            f"a placement miss stepped over {tokens_per_miss:.1f} ring tokens "
            f"(budget {budget}); is a strategy walking past the point where its "
            "rules are satisfied?"
        )
        created, queued = cluster.fabric.link_counts()
        assert created > 0
        assert queued <= MAX_QUEUED_LINK_SHARE * created, (
            f"{queued} of {created} links allocated a queue "
            f"(budget {MAX_QUEUED_LINK_SHARE:.0%}); are links born with one again?"
        )
