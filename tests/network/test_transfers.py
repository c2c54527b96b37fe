"""Fair-share WAN transfer scheduler: allocation, conservation, ordering.

The tentpole acceptance tests: max-min allocations match hand-computed
fixtures, bytes are conserved under arrival/completion churn, per-direction
delivery order survives slow-WAN rescaling, and mid-transfer partitions
abort (drop) or pause (park) exactly as the fabric's partition modes do for
ordinary messages.  Everything asserts against exact completion times --
the scheduler is event-driven and consumes no randomness.
"""

from __future__ import annotations

import pytest

from repro.network import fabric as fabric_module
from repro.network.fabric import NetworkFabric
from repro.network.latency import ConstantLatency
from repro.network.topology import TopologyBuilder
from repro.network.transfers import BandwidthConfig, Transfer, _water_fill
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams

LATENCY = 0.01
CAPACITY = 10_000.0
KIND = "bulk"


@pytest.fixture(autouse=True)
def only_the_test_kind_is_a_transfer(monkeypatch):
    monkeypatch.setattr(fabric_module, "TRANSFER_KINDS", frozenset({KIND}))


def make_fabric(capacity: float = CAPACITY):
    """Two one-node datacenters joined by a constant-latency WAN link."""
    engine = SimulationEngine()
    topo = (
        TopologyBuilder()
        .latencies(
            loopback=ConstantLatency(0.00001),
            intra_rack=ConstantLatency(0.001),
            inter_rack=ConstantLatency(0.002),
            inter_dc=ConstantLatency(LATENCY),
        )
        .datacenter("dc1")
        .rack("r1", nodes=2)
        .datacenter("dc2")
        .rack("r1", nodes=1)
        .build()
    )
    fabric = NetworkFabric(
        engine,
        topo,
        RandomStreams(seed=5),
        bandwidth=BandwidthConfig(capacity_bytes_per_s=capacity),
    )
    for node in topo.nodes:
        fabric.register(node, lambda message: None)
    return engine, topo, fabric


def wan_pair(topo):
    a = next(n for n in topo.nodes if n.datacenter == "dc1")
    b = next(n for n in topo.nodes if n.datacenter == "dc2")
    return a, b


def send_bulk(engine, fabric, src, dst, size, times, kind=KIND):
    fabric.send(src, dst, kind, None, size_bytes=size,
                on_delivered=lambda m: times.append(engine.now))


class TestWaterFill:
    """Hand-computed max-min fixtures over the allocation core."""

    @staticmethod
    def transfers(*rate_caps):
        return [
            Transfer(i, "a|b", ("a", "b"), "bulk", 1e9, 0.0, None, None, cap, 0.0)
            for i, cap in enumerate(rate_caps)
        ]

    def test_equal_split_without_caps(self):
        ts = self.transfers(None, None, None, None)
        _water_fill(ts, 100.0)
        assert [t.rate for t in ts] == [25.0, 25.0, 25.0, 25.0]

    def test_capped_transfer_frees_share_for_the_rest(self):
        ts = self.transfers(10.0, None, None)
        _water_fill(ts, 100.0)
        assert [t.rate for t in ts] == [10.0, 45.0, 45.0]

    def test_cap_above_fair_share_is_inert(self):
        ts = self.transfers(60.0, None)
        _water_fill(ts, 100.0)
        assert [t.rate for t in ts] == [50.0, 50.0]

    def test_all_capped_leaves_capacity_unused(self):
        ts = self.transfers(10.0, 20.0)
        _water_fill(ts, 100.0)
        assert [t.rate for t in ts] == [10.0, 20.0]

    def test_zero_capacity_zeroes_rates(self):
        ts = self.transfers(None, 10.0)
        _water_fill(ts, 0.0)
        assert [t.rate for t in ts] == [0.0, 0.0]


class TestTransferPath:
    def test_large_eligible_message_becomes_a_transfer(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        times = []
        send_bulk(engine, fabric, a, b, 5000, times)
        assert fabric.active_transfer_count() == 1
        assert fabric.transfer_backlog_bytes() == pytest.approx(5000.0)
        engine.run()
        # 5000 B alone at 10 kB/s = 0.5 s streaming, then the WAN latency.
        assert times == [pytest.approx(0.5 + LATENCY)]
        assert fabric.stats.transfers_started == 1
        assert fabric.stats.transfers_completed == 1
        assert fabric.stats.transfer_bytes_completed == pytest.approx(5000.0)

    def test_small_message_keeps_the_fast_path(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        times = []
        send_bulk(engine, fabric, a, b, 512, times)  # below the 1024 threshold
        engine.run()
        assert fabric.stats.transfers_started == 0
        assert times == [pytest.approx(LATENCY + 512 / CAPACITY)]

    def test_ineligible_kind_uses_foreground_serialization(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        times = []
        send_bulk(engine, fabric, a, b, 5000, times, kind="chatter")
        engine.run()
        assert fabric.stats.transfers_started == 0
        assert times == [pytest.approx(LATENCY + 5000 / CAPACITY)]

    def test_intra_dc_message_never_transfers(self):
        engine, topo, fabric = make_fabric()
        a, a2 = [n for n in topo.nodes if n.datacenter == "dc1"][:2]
        times = []
        send_bulk(engine, fabric, a, a2, 5000, times)
        engine.run()
        assert fabric.stats.transfers_started == 0
        assert len(times) == 1

    def test_concurrent_transfers_share_the_link_equally(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        times = []
        send_bulk(engine, fabric, a, b, 5000, times)
        send_bulk(engine, fabric, a, b, 5000, times)
        engine.run()
        # Each runs at 5 kB/s; both finish streaming at t=1.0.
        assert times[0] == pytest.approx(1.0 + LATENCY)
        assert times[1] >= times[0]

    def test_group_cap_throttles_only_that_group(self):
        engine, topo, fabric = make_fabric(capacity=120.0)
        a, b = wan_pair(topo)
        fabric.set_transfer_group_cap("repair", 30.0)
        assert fabric.transfer_group_cap("repair") == 30.0
        done = {}
        for name, group_kind, size in (
            ("r1", "repair_stream", 300),
            ("r2", "repair_stream", 300),
            ("bulk", KIND, 900),
        ):
            fabric._transfers.submit(
                "dc1", "dc2", size, 0.0,
                message=None, on_delivered=None,
                group="repair" if group_kind == "repair_stream" else "bulk",
            )
        # Capped group: 15 B/s each (300 B -> t=20), and still 15 B/s each
        # once the link frees up; bulk soaks the rest: 90 B/s (900 B -> t=10).
        engine.run_until(9.9)
        assert fabric.stats.transfers_completed == 0
        engine.run_until(10.1)
        assert fabric.stats.transfers_completed == 1
        engine.run_until(19.9)
        assert fabric.stats.transfers_completed == 1
        engine.run()
        assert engine.now == pytest.approx(20.0)
        assert fabric.stats.transfers_completed == 3
        assert fabric.stats.transfer_bytes_completed == pytest.approx(1500.0)

    def test_byte_conservation_under_churn(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        sizes = [1500, 4096, 2048, 9000, 1024, 6000]
        times = []
        for i, size in enumerate(sizes):
            engine.at(0.1 * i, send_bulk, engine, fabric, a, b, size, times)
        engine.run()
        assert len(times) == len(sizes)
        assert fabric.stats.transfers_completed == len(sizes)
        assert fabric.stats.transfer_bytes_completed == pytest.approx(sum(sizes))
        assert fabric.transfer_backlog_bytes() == 0.0

    def test_foreground_residual_floor_under_saturation(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        fabric.start_background_transfer("dc1", "dc2", 1e9)
        times = []
        send_bulk(engine, fabric, a, b, 1000, times, kind="chatter")
        engine.run_until(30.0)
        # The background transfer holds the whole link; foreground messages
        # serialize at the 5% residual floor: 1000 / (10000 * 0.05) = 2 s.
        assert times == [pytest.approx(LATENCY + 2.0)]

    def test_background_cancel_returns_remaining_bytes(self):
        engine, topo, fabric = make_fabric()
        handle = fabric.start_background_transfer("dc1", "dc2", 50_000)
        engine.run_until(2.0)  # 20 000 B streamed
        remaining = fabric.cancel_background_transfer(handle)
        assert remaining == pytest.approx(30_000.0)
        assert fabric.transfer_backlog_bytes() == 0.0
        assert fabric.stats.transfers_aborted == 1


class TestPartitionsAndDegradations:
    def test_drop_partition_aborts_in_flight_transfers(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        times = []
        send_bulk(engine, fabric, a, b, 5000, times)
        engine.run_until(0.1)
        fabric.partition_datacenters("dc1", "dc2", mode="drop")
        engine.run_until(5.0)
        assert times == []
        assert fabric.stats.transfers_aborted == 1
        assert fabric.stats.dropped == 1
        assert fabric.transfer_backlog_bytes() == 0.0
        # The link works again after heal.
        fabric.heal_datacenters("dc1", "dc2")
        send_bulk(engine, fabric, a, b, 2000, times)
        engine.run()
        assert len(times) == 1

    def test_park_partition_pauses_and_heal_resumes(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        times = []
        send_bulk(engine, fabric, a, b, 5000, times)
        engine.run_until(0.1)  # 1000 B streamed
        fabric.partition_datacenters("dc1", "dc2", mode="park")
        engine.run_until(2.0)
        assert times == []
        assert fabric.transfer_backlog_bytes() == pytest.approx(4000.0)
        fabric.heal_datacenters("dc1", "dc2")
        engine.run()
        # 0.1 s streamed + 1.9 s parked + 0.4 s to stream the rest.
        assert times == [pytest.approx(2.0 + 0.4 + LATENCY)]

    def test_oneway_partition_only_stops_that_direction(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        times_fwd, times_rev = [], []
        send_bulk(engine, fabric, a, b, 5000, times_fwd)
        send_bulk(engine, fabric, b, a, 5000, times_rev)
        engine.run_until(0.1)
        fabric.partition_datacenters_oneway("dc1", "dc2", mode="drop")
        engine.run_until(5.0)
        assert times_fwd == []
        # Both directions share one link; the survivor takes over the full
        # capacity once the forward transfer aborts at t=0.1: 500 B streamed
        # by then, the remaining 4500 B at 10 kB/s finishes at 0.55.
        assert times_rev == [pytest.approx(0.55 + LATENCY)]
        assert fabric.stats.transfers_aborted == 1

    def test_slow_wan_rescales_capacity_mid_transfer(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        times = []
        send_bulk(engine, fabric, a, b, 5000, times)
        engine.run_until(0.25)  # 2500 B streamed at full rate
        fabric.set_pair_latency_scale("dc1", "dc2", 4.0)
        engine.run_until(10.0)
        # Remaining 2500 B at 10000/4 B/s takes 1.0 s.  The propagation
        # latency was sampled at send time (before the degradation), so the
        # delivery tail stays at the original value.
        assert times == [pytest.approx(0.25 + 1.0 + LATENCY)]
        fabric.clear_pair_degradations()
        times2 = []
        send_bulk(engine, fabric, a, b, 5000, times2)
        start = engine.now
        engine.run()
        assert times2 == [pytest.approx(start + 0.5 + LATENCY)]

    def test_fifo_delivery_order_survives_slow_wan_churn(self):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        order = []
        fabric.send(a, b, KIND, None, size_bytes=9000,
                    on_delivered=lambda m: order.append(("big", engine.now)))
        engine.at(0.05, lambda: fabric.send(
            a, b, KIND, None, size_bytes=1500,
            on_delivered=lambda m: order.append(("small", engine.now))))
        engine.at(0.10, fabric.set_pair_latency_scale, "dc1", "dc2", 8.0)
        engine.at(1.00, fabric.set_pair_latency_scale, "dc1", "dc2", 1.0)
        engine.run()
        assert [name for name, _ in order] == ["small", "big"]
        stamps = [t for _, t in order]
        assert stamps == sorted(stamps)
        assert fabric.stats.transfer_bytes_completed == pytest.approx(10_500.0)


class TestDeterminismAndConfig:
    def run_once(self, seed):
        engine, topo, fabric = make_fabric()
        a, b = wan_pair(topo)
        times = []
        for i, size in enumerate([2000, 5000, 1500]):
            engine.at(0.05 * i, send_bulk, engine, fabric, a, b, size, times)
        engine.at(0.2, fabric.start_background_transfer, "dc1", "dc2", 3000)
        engine.run()
        return times, fabric.stats.transfer_bytes_completed

    def test_same_inputs_give_identical_timings(self):
        assert self.run_once(5) == self.run_once(5)

    def test_enable_bandwidth_is_idempotent(self):
        engine, topo, fabric = make_fabric()
        scheduler = fabric.transfers
        fabric.enable_bandwidth()
        assert fabric.transfers is scheduler

    def test_wan_scenario_carries_a_bandwidth_config(self):
        from repro.experiments.scenarios import ScenarioRegistry

        scenario = ScenarioRegistry.get("grid5000_3sites_wan")
        assert scenario.bandwidth is not None
        assert scenario.bandwidth.capacity_bytes_per_s == 4_000_000.0
        assert scenario.cluster_config().bandwidth is scenario.bandwidth
