"""Window-protocol safety: no cross-shard message arrives before its time.

The conservative window ``W = g + L`` promises that anything generated at
or after the global minimum event time ``g`` is delivered at least ``L``
later, so a shard that ran to ``W`` can never receive a message from its
past.  These tests spy on the actual injection path of real runs and assert
the invariant held for every one of the (thousands of) crossings, plus the
error behaviour when the contract is broken by force.
"""

from __future__ import annotations

import pytest

from repro.sim.parallel import run_parallel_experiment
from repro.sim.parallel.shard import ShardRuntime
from repro.workload.workloads import WORKLOAD_A

SMALL = WORKLOAD_A.scaled(record_count=60, operation_count=240)


@pytest.mark.parametrize("scenario,shards", [("scale_100", 4), ("grid5000_3sites", 3)])
@pytest.mark.parametrize("seed", [3, 11])
def test_cross_messages_never_arrive_before_the_window_allows(
    monkeypatch, scenario, shards, seed
):
    observed = {"crossings": 0, "violations": []}
    original = ShardRuntime._advance

    def checked(self, window, inbound):
        now = self.engine.now
        for deliver_at, _src_shard, _seq, _message in inbound:
            observed["crossings"] += 1
            # The conservative promise: every inbound crossing is still in
            # this shard's future (equality allowed -- same-instant delivery
            # is ordered by the canonical (deliver_at, src, seq) sort).
            if deliver_at < now:
                observed["violations"].append((deliver_at, now))
        return original(self, window, inbound)

    monkeypatch.setattr(ShardRuntime, "_advance", checked)
    result = run_parallel_experiment(
        scenario, SMALL, "quorum", 8, seed=seed, shards=shards, workers=1
    )
    # Non-vacuous: quorum traffic on a sharded ring must actually cross.
    assert observed["crossings"] > 0
    assert result.cross_messages == observed["crossings"]
    assert observed["violations"] == []


def test_lookahead_violation_is_a_hard_error(monkeypatch):
    """Forcing a delivery into the past must raise, not silently reorder."""
    original = ShardRuntime._advance

    def corrupted(self, window, inbound):
        shifted = [
            (deliver_at - 10.0, src, seq, message)
            for deliver_at, src, seq, message in inbound
        ]
        return original(self, window, shifted)

    monkeypatch.setattr(ShardRuntime, "_advance", corrupted)
    with pytest.raises(Exception, match="past|>= now|before"):
        run_parallel_experiment(
            "scale_100", SMALL, "quorum", 8, seed=3, shards=4, workers=1
        )


class TestValidation:
    def test_threads_must_cover_shards(self):
        with pytest.raises(ValueError, match="threads"):
            run_parallel_experiment("scale_100", SMALL, "quorum", 2, shards=4)

    def test_records_must_cover_shards(self):
        tiny = WORKLOAD_A.scaled(record_count=2, operation_count=8)
        with pytest.raises(ValueError, match="record_count"):
            run_parallel_experiment("scale_100", tiny, "quorum", 8, shards=4)

    def test_policy_must_be_named_not_instance(self):
        from repro.control.policies import make_policy

        with pytest.raises(ValueError, match="by name"):
            run_parallel_experiment(
                "scale_100", SMALL, make_policy("quorum"), 8, shards=4
            )

    def test_fault_schedules_are_rejected(self):
        from repro.experiments.scenarios import grid5000_3sites_faults

        with pytest.raises(ValueError, match="fault schedules"):
            run_parallel_experiment(
                grid5000_3sites_faults(), SMALL, "quorum", 8, shards=3
            )
