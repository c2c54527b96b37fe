"""Acceptance tests for the fault-injection + anti-entropy subsystem.

The PR's acceptance criterion, verbatim: during a simulated full-DC outage
on a 3-site ring, ``LOCAL_ONE``/``LOCAL_QUORUM`` clients in surviving DCs
complete with zero ``Unavailable`` errors while ``EACH_QUORUM`` degrades as
expected, and after heal the Merkle repair process drives the partitioned
DC's stale rate back under the ASR bound.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.control.policies import make_policy
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import GRID5000_3SITES, grid5000_3sites_faults
from repro.faults.schedule import DatacenterOutage, FaultInjector, FaultSchedule
from repro.faults.timeline import FaultTimeline
from repro.staleness.auditor import StalenessAuditor
from repro.staleness.stats import StalenessStats
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WORKLOAD_B, WORKLOAD_D

ISOLATED = "sophia"
SURVIVORS = ("rennes", "nancy")


class TestUnavailableSurfacingDuringFullDcOutage:
    """Every consistency level, from a surviving site, while Sophia is dark."""

    @pytest.fixture(scope="class")
    def outage_cluster(self):
        cluster = SimulatedCluster(GRID5000_3SITES.cluster_config(seed=7))
        cluster.write_sync("k", "v0", ConsistencyLevel.EACH_QUORUM, datacenter="rennes")
        cluster.settle()
        cluster.take_down_datacenter(ISOLATED)
        return cluster

    @pytest.mark.parametrize(
        "level",
        [
            ConsistencyLevel.ONE,
            ConsistencyLevel.TWO,
            ConsistencyLevel.THREE,
            ConsistencyLevel.QUORUM,
            ConsistencyLevel.LOCAL_ONE,
            ConsistencyLevel.LOCAL_QUORUM,
        ],
    )
    def test_levels_satisfiable_without_sophia_keep_serving(self, outage_cluster, level):
        # Sophia holds 2 of 7 replicas; global QUORUM is 4 <= 5 live, and
        # LOCAL_* requirements never mention Sophia from a rennes client.
        write = outage_cluster.write_sync("k", f"w-{level}", level, datacenter="rennes")
        assert not write.unavailable and not write.timed_out
        read = outage_cluster.read_sync("k", level, datacenter="rennes")
        assert not read.unavailable and not read.timed_out
        assert read.cell is not None

    @pytest.mark.parametrize(
        "level", [ConsistencyLevel.EACH_QUORUM, ConsistencyLevel.ALL]
    )
    def test_levels_needing_sophia_surface_unavailable(self, outage_cluster, level):
        write = outage_cluster.write_sync("k", f"w-{level}", level, datacenter="rennes")
        assert write.unavailable
        assert not write.timed_out  # rejected up front, no timeout burned
        read = outage_cluster.read_sync("k", level, datacenter="rennes")
        assert read.unavailable
        assert read.cell is None

    def test_write_only_any_level_unaffected(self, outage_cluster):
        result = outage_cluster.write_sync(
            "k", "w-any", ConsistencyLevel.ANY, datacenter="rennes"
        )
        assert not result.unavailable

    def test_clients_of_the_dead_site_fail_client_side(self, outage_cluster):
        result = outage_cluster.read_sync(
            "k", ConsistencyLevel.LOCAL_ONE, datacenter=ISOLATED
        )
        assert result.unavailable
        assert result.coordinator is None  # no server ever saw the request

    def test_rejections_counted_per_coordinator(self, outage_cluster):
        rejections = sum(
            outage_cluster.stats.counters(address).unavailable_rejections
            for address in outage_cluster.addresses
        )
        assert rejections > 0


class TestPartitionHealRepairAcceptance:
    """The windowed stale-rate criterion on the canonical fault scenario
    (CI-sized timeline, same seed-fixed shape as bench_repair.py)."""

    LEAD, DURATION, INTERVAL = 2.0, 6.0, 2.0

    @pytest.fixture(scope="class")
    def arms(self):
        results = {}
        for repair in (True, False):
            scenario = grid5000_3sites_faults(
                lead_time=self.LEAD,
                partition_duration=self.DURATION,
                repair_interval=self.INTERVAL if repair else None,
                isolated=ISOLATED,
            )
            results[repair] = run_experiment(
                scenario,
                WORKLOAD_B.scaled(record_count=200, operation_count=8000),
                "local_one",
                12,
                seed=20260730,
                datacenters=scenario.datacenter_names,
                think_time=0.02,
            )
        return results

    def _windows(self, result):
        timeline = result.auditor
        log = {desc.split(" ")[0]: t for t, desc in result.injector.log}
        run_start = min(event.time for event in timeline.op_events)
        run_end = max(event.time for event in timeline.op_events) + 1e-9
        return timeline, log["isolate"], log["deisolate"], run_start, run_end

    def test_local_clients_see_zero_unavailable_everywhere(self, arms):
        for result in arms.values():
            assert result.metrics.counters.unavailable == 0

    def test_partition_raises_the_isolated_sites_stale_rate(self, arms):
        timeline, partition_at, heal_at, run_start, _ = self._windows(arms[True])
        before = timeline.stale_rate_in(run_start, partition_at, datacenter=ISOLATED)
        during = timeline.stale_rate_in(partition_at, heal_at, datacenter=ISOLATED)
        assert during is not None and before is not None
        assert during > 0.25
        assert during > before + 0.2

    def test_repair_drives_stale_rate_back_under_asr(self, arms):
        asr = GRID5000_3SITES.harmony_stale_rates_by_dc[ISOLATED]
        timeline, _partition_at, heal_at, _start, run_end = self._windows(arms[True])
        recovery = timeline.stale_rate_in(
            heal_at + self.INTERVAL, run_end, datacenter=ISOLATED
        )
        assert recovery is not None
        assert recovery <= asr, (
            f"post-heal stale rate {recovery:.3f} above the {asr:.0%} ASR bound"
        )
        # And repair did the work: the WAN pairs touching Sophia carry bytes.
        service = arms[True].anti_entropy
        assert service is not None
        assert service.wan_traffic_bytes(ISOLATED) > 0

    def test_repair_beats_no_repair_in_the_recovery_window(self, arms):
        _, _, heal_at_on, _, end_on = self._windows(arms[True])
        timeline_off, _, heal_at_off, _, end_off = self._windows(arms[False])
        recovery_on = arms[True].auditor.stale_rate_in(
            heal_at_on + self.INTERVAL, end_on, datacenter=ISOLATED
        )
        recovery_off = timeline_off.stale_rate_in(
            heal_at_off + self.INTERVAL, end_off, datacenter=ISOLATED
        )
        assert recovery_on is not None and recovery_off is not None
        assert recovery_on < recovery_off

    def test_surviving_sites_latency_unharmed_during_partition(self, arms):
        timeline, partition_at, heal_at, run_start, _ = self._windows(arms[True])
        for dc in SURVIVORS:
            before = timeline.mean_latency_in(
                run_start, partition_at, datacenter=dc, op_type="read"
            )
            during = timeline.mean_latency_in(
                partition_at, heal_at, datacenter=dc, op_type="read"
            )
            assert before is not None and during is not None
            # LOCAL_ONE never touches the WAN, so the cut must not move
            # read latency beyond noise.
            assert during < before * 1.5


class TestWindowedQueriesMatchTheOperationLog:
    """The timeline's four windowed queries against a naive recomputation from
    a plain list of every :class:`OperationResult`, on a run where Sophia goes
    dark: LOCAL_ONE clients there get Unavailable reads and writes, while the
    other sites keep serving (and reading stale).  Workload D's reads of the
    latest inserts also meet keys with no acknowledged write yet, so the run
    has unknown verdicts too."""

    DOWN, UP = 1.0, 3.0

    @pytest.fixture(scope="class")
    def run(self):
        scenario = GRID5000_3SITES.with_overrides(
            fault_schedule=FaultSchedule(
                [DatacenterOutage(at=self.DOWN, datacenter=ISOLATED, duration=self.UP - self.DOWN)]
            )
        )
        cluster = SimulatedCluster(scenario.cluster_config(seed=7))
        timeline = FaultTimeline()
        timeline.attach(cluster)
        results = []
        cluster.add_operation_observer(results.append)
        # (datacenter, verdict) of every read the run's auditor judged.
        returned = []
        judge = timeline.judge

        def recording_judge(key, result):
            verdict = judge(key, result)
            returned.append((result.datacenter, verdict))
            return verdict

        timeline.judge = recording_judge
        executor = WorkloadExecutor(
            cluster,
            WORKLOAD_D.scaled(record_count=60, operation_count=1500),
            make_policy("local_one", scenario),
            threads=9,
            auditor=timeline,
            think_time=0.02,
            datacenters=list(scenario.datacenter_names),
        )
        loaded = executor.load()
        FaultInjector(cluster, scenario.fault_schedule).arm()
        metrics = executor.run()
        # The verdicts, re-derived by replaying the list through a plain auditor.
        replay = StalenessAuditor()
        for result in loaded:
            replay.observe_write(result)
        verdicts = {}
        for result in results:
            if result.unavailable:
                continue
            if result.op_type == "read":
                verdicts[id(result)] = replay.judge(result.key, result)
            else:
                replay.observe_write(result)
        assert sum(r.unavailable for r in results) > 0 and replay.stats.stale_reads > 0
        return timeline, results, verdicts, metrics, returned

    @pytest.mark.parametrize("op_type", [None, "read", "write"])
    @pytest.mark.parametrize("datacenter", [None, "rennes", "nancy", ISOLATED, "nowhere"])
    def test_queries_equal_a_naive_recomputation(self, run, datacenter, op_type):
        timeline, results, verdicts, _, _ = run
        windows = [(0.0, self.DOWN), (self.DOWN, self.UP), (self.UP, float("inf"))]
        for start, end in windows:
            selected = [
                r
                for r in results
                if start <= r.completed_at < end
                and datacenter in (None, r.datacenter)
                and op_type in (None, r.op_type)
            ]
            served = [r.latency for r in selected if not r.unavailable]
            judged = [verdicts[id(r)] for r in selected if verdicts.get(id(r)) is not None]
            assert timeline.ops_in(start, end, datacenter, op_type) == len(selected)
            assert timeline.unavailable_in(start, end, datacenter, op_type) == sum(
                r.unavailable for r in selected
            )
            assert timeline.mean_latency_in(start, end, datacenter, op_type) == (
                sum(served) / len(served) if served else None
            )
            if op_type != "write":  # the stale rate is over reads whatever the filter
                assert timeline.stale_rate_in(start, end, datacenter) == (
                    sum(judged) / len(judged) if judged else None
                )

    def test_the_staleness_account_is_a_recount_of_the_verdicts(self, run):
        timeline, results, verdicts, metrics, returned = run
        assert metrics.staleness is timeline.stats
        assert len(returned) == metrics.counters.reads  # Unavailable reads are never judged
        assert [v for _, v in returned] == [
            verdicts[id(r)] for r in results if r.op_type == "read" and not r.unavailable
        ]
        assert None in verdicts.values() and True in verdicts.values()
        by_dc = {}
        for datacenter, verdict in returned:
            by_dc.setdefault(datacenter, []).append(verdict)

        def recount(verdicts):
            unknown = verdicts.count(None)
            return unknown, len(verdicts) - unknown, verdicts.count(True)

        def account(stats):
            return stats.unknown_reads, stats.judged_reads, stats.stale_reads

        assert account(metrics.staleness) == recount([v for _, v in returned])
        assert list(metrics.staleness_by_dc) == list(by_dc)
        for datacenter, dc_verdicts in by_dc.items():
            assert account(metrics.staleness_by_dc[datacenter]) == recount(dc_verdicts)

    def test_the_site_scopes_partition_the_cluster_scope(self, run):
        _, _, _, metrics, returned = run
        assert all(datacenter is not None for datacenter, _ in returned)
        folded = StalenessStats()
        for stats in metrics.staleness_by_dc.values():
            folded.merge(stats)
        cluster = metrics.staleness
        assert (folded.unknown_reads, folded.judged_reads, folded.stale_reads) == (
            cluster.unknown_reads,
            cluster.judged_reads,
            cluster.stale_reads,
        )
        assert folded.k_histogram() == cluster.k_histogram()
        assert (
            folded.stale_age_histogram.sorted_samples().tolist()
            == cluster.stale_age_histogram.sorted_samples().tolist()
        )
