"""Grey-failure fabric primitives: asymmetric partitions, per-pair loss,
slow-WAN scaling.

These are the chaos generator's raw materials (see ``docs/chaos.md``); the
tests pin down the three properties the chaos stack depends on --
directionality, per-pair determinism from named streams, and FIFO
preservation under latency scaling -- plus the zero-perturbation guarantee:
arming and clearing a grey failure leaves the healthy-path trace untouched.
"""

from __future__ import annotations

import pytest

from repro.network.fabric import NetworkFabric
from repro.network.latency import ConstantLatency, LogNormalLatency
from repro.network.topology import uniform_topology
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams


def build_fabric(delivery: str = "coalesced", seed: int = 9, inter_dc=None):
    engine = SimulationEngine()
    topology = uniform_topology(
        8,
        racks_per_dc=2,
        datacenters=2,
        inter_dc=inter_dc or ConstantLatency(0.005),
    )
    fabric = NetworkFabric(engine, topology, RandomStreams(seed=seed), delivery=delivery)
    return engine, topology, fabric


def nodes_by_dc(topology):
    return {dc: topology.nodes_in_datacenter(dc) for dc in topology.datacenter_names}


class TestAsymmetricPartition:
    def test_blocked_direction_dropped_reverse_delivered(self):
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, lambda m: received.append((m.src, m.dst)))
        fabric.partition_datacenters_oneway("dc1", "dc2")
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", None)  # severed direction
        fabric.send(dcs["dc2"][0], dcs["dc1"][0], "ping", None)  # still flowing
        engine.run()
        assert len(received) == 1
        assert received[0] == (dcs["dc2"][0], dcs["dc1"][0])
        assert fabric.stats.blocked == 1
        assert fabric.stats.dropped == 1
        assert fabric.stats.blocked_by_pair["dc1->dc2"] == 1

    def test_is_severed_is_directional(self):
        _, _, fabric = build_fabric()
        fabric.partition_datacenters_oneway("dc1", "dc2")
        assert fabric.is_severed("dc1", "dc2")
        assert not fabric.is_severed("dc2", "dc1")
        assert not fabric.is_partitioned("dc1", "dc2")  # symmetric view unchanged
        assert fabric.is_partitioned_oneway("dc1", "dc2")
        assert not fabric.is_partitioned_oneway("dc2", "dc1")
        assert fabric.has_partitions

    def test_symmetric_partition_severs_both_directions(self):
        _, _, fabric = build_fabric()
        fabric.partition_datacenters("dc1", "dc2")
        assert fabric.is_severed("dc1", "dc2")
        assert fabric.is_severed("dc2", "dc1")

    def test_park_mode_releases_on_heal(self):
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, received.append)
        fabric.partition_datacenters_oneway("dc1", "dc2", mode="park")
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", None)
        engine.run()
        assert not received
        assert fabric.stats.parked == 1
        fabric.heal_datacenters_oneway("dc1", "dc2")
        engine.run()
        assert len(received) == 1
        assert fabric.stats.parked == 0

    def test_refcounted_heal(self):
        _, _, fabric = build_fabric()
        fabric.partition_datacenters_oneway("dc1", "dc2")
        fabric.partition_datacenters_oneway("dc1", "dc2")
        fabric.heal_datacenters_oneway("dc1", "dc2")
        assert fabric.is_severed("dc1", "dc2")
        fabric.heal_datacenters_oneway("dc1", "dc2")
        assert not fabric.is_severed("dc1", "dc2")
        assert not fabric.has_partitions

    def test_partition_epoch_bumps_on_oneway_cut_and_heal(self):
        _, _, fabric = build_fabric()
        epoch = fabric.partition_epoch
        fabric.partition_datacenters_oneway("dc1", "dc2")
        assert fabric.partition_epoch > epoch
        epoch = fabric.partition_epoch
        fabric.heal_datacenters_oneway("dc1", "dc2")
        assert fabric.partition_epoch > epoch

    def test_heal_all_partitions_covers_oneway(self):
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, received.append)
        fabric.partition_datacenters_oneway("dc1", "dc2", mode="park")
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", None)
        engine.run()
        released = fabric.heal_all_partitions()
        assert released == 1
        assert not fabric.has_partitions
        engine.run()
        assert len(received) == 1

    def parked_crossing(
        self,
        first: str,
        then: str,
        then_mode: str,
        *,
        delivery: str = "coalesced",
        follow_up: bool = False,
    ):
        """Park one dc1 -> dc2 message under the ``first`` kind of partition,
        add the other kind (``then``) in ``then_mode`` (and, with
        ``follow_up``, send a second message on the same link), heal the
        first."""
        engine, topology, fabric = build_fabric(delivery)
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, received.append)
        cut = {
            "symmetric": (fabric.partition_datacenters, fabric.heal_datacenters),
            "oneway": (fabric.partition_datacenters_oneway, fabric.heal_datacenters_oneway),
        }
        cut[first][0]("dc1", "dc2", mode="park")
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", "first")
        cut[then][0]("dc1", "dc2", mode=then_mode)
        if follow_up:
            fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", "second")
        released = cut[first][1]("dc1", "dc2")
        engine.run()
        assert fabric.is_severed("dc1", "dc2")
        return engine, fabric, received, released, cut[then][1]

    @pytest.mark.parametrize("first, then", [("symmetric", "oneway"), ("oneway", "symmetric")])
    def test_heal_does_not_deliver_across_a_direction_still_dropped(self, first, then):
        _, fabric, received, released, _ = self.parked_crossing(first, then, "drop")
        assert released == 0 and not received
        stats = fabric.stats
        assert (stats.sent, stats.blocked, stats.parked, stats.dropped) == (1, 1, 0, 1)
        assert stats.blocked_by_pair == {"dc1|dc2": 1, "dc1->dc2": 1}

    @pytest.mark.parametrize("first, then", [("symmetric", "oneway"), ("oneway", "symmetric")])
    def test_heal_hands_parked_messages_to_a_remaining_park_partition(self, first, then):
        engine, fabric, received, released, heal_rest = self.parked_crossing(first, then, "park")
        assert released == 0 and not received
        stats = fabric.stats
        assert (stats.sent, stats.blocked, stats.parked, stats.dropped) == (1, 1, 1, 0)
        assert heal_rest("dc1", "dc2") == 1
        engine.run()
        assert len(received) == 1 and stats.parked == 0 and stats.delivered == 1

    @pytest.mark.parametrize("delivery", NetworkFabric.DELIVERY_MODES)
    @pytest.mark.parametrize("first, then", [("symmetric", "oneway"), ("oneway", "symmetric")])
    def test_handed_over_messages_keep_their_send_order(self, first, then, delivery):
        # The second message parks under whichever partition ``send`` checks
        # first (the symmetric one); the hand-over must not queue the older
        # message behind it -- on a fifo link that would deliver out of order.
        engine, fabric, received, released, heal_rest = self.parked_crossing(
            first, then, "park", delivery=delivery, follow_up=True
        )
        assert released == 0 and not received and fabric.stats.parked == 2
        assert heal_rest("dc1", "dc2") == 2
        engine.run()
        assert [message.payload for message in received] == ["first", "second"]

    def test_validation(self):
        _, _, fabric = build_fabric()
        with pytest.raises(ValueError):
            fabric.partition_datacenters_oneway("dc1", "nope")
        with pytest.raises(ValueError):
            fabric.partition_datacenters_oneway("dc1", "dc1")
        with pytest.raises(ValueError):
            fabric.partition_datacenters_oneway("dc1", "dc2", mode="quarantine")
        assert fabric.heal_datacenters_oneway("dc1", "dc2") == 0  # no-op heal


class TestPerPairLoss:
    def send_burst(self, seed: int, n: int = 60, probability: float = 0.3):
        engine, topology, fabric = build_fabric(seed=seed)
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, lambda m: received.append(m.payload))
        fabric.set_pair_loss("dc1", "dc2", probability)
        for i in range(n):
            fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", i)
        engine.run()
        return fabric, received

    def test_losses_are_deterministic_from_the_named_stream(self):
        fabric_a, received_a = self.send_burst(seed=13)
        fabric_b, received_b = self.send_burst(seed=13)
        assert received_a == received_b
        assert 0 < len(received_a) < 60
        assert fabric_a.stats.dropped == fabric_b.stats.dropped == 60 - len(received_a)
        assert fabric_a.stats.lost_by_pair["dc1|dc2"] == fabric_a.stats.dropped

    def test_different_seeds_lose_different_messages(self):
        _, received_a = self.send_burst(seed=13)
        _, received_b = self.send_burst(seed=14)
        assert received_a != received_b

    def test_rearming_continues_the_stream(self):
        # Disabling and re-enabling loss must not rewind its RNG stream:
        # the draw sequence continues where it left off, so a run that
        # toggles loss stays deterministic under replay.
        def toggled(n_before: int):
            engine, topology, fabric = build_fabric(seed=21)
            dcs = nodes_by_dc(topology)
            received = []
            for node in topology.nodes:
                fabric.register(node, lambda m: received.append(m.payload))
            fabric.set_pair_loss("dc1", "dc2", 0.3)
            for i in range(n_before):
                fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", i)
            fabric.set_pair_loss("dc1", "dc2", 0.0)
            fabric.set_pair_loss("dc1", "dc2", 0.3)
            for i in range(n_before, 40):
                fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", i)
            engine.run()
            return received

        assert toggled(20) == toggled(20)

    def test_loss_only_affects_the_configured_pair(self):
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, lambda m: received.append(m.payload))
        fabric.set_pair_loss("dc1", "dc2", 0.999)
        for i in range(20):
            fabric.send(dcs["dc1"][0], dcs["dc1"][1], "ping", i)  # intra-DC
        engine.run()
        assert len(received) == 20

    def test_clearing_loss_restores_healthy_trace(self):
        # Byte-identity regression: arming then clearing per-pair loss must
        # leave subsequent delivery times identical to a fabric that never
        # had loss configured (no stray RNG draws on the healthy path).
        def delivery_times(arm_first: bool):
            engine, topology, fabric = build_fabric(
                seed=31, inter_dc=LogNormalLatency(0.005, 0.001)
            )
            dcs = nodes_by_dc(topology)
            times = []
            for node in topology.nodes:
                fabric.register(node, lambda m: times.append(engine.now))
            if arm_first:
                fabric.set_pair_loss("dc1", "dc2", 0.5)
                fabric.set_pair_loss("dc1", "dc2", 0.0)
            for i in range(15):
                fabric.send(dcs["dc1"][0], dcs["dc2"][0], "ping", i)
            engine.run()
            return times

        assert delivery_times(arm_first=False) == delivery_times(arm_first=True)

    def test_validation(self):
        _, _, fabric = build_fabric()
        with pytest.raises(ValueError):
            fabric.set_pair_loss("dc1", "dc2", 1.0)
        with pytest.raises(ValueError):
            fabric.set_pair_loss("dc1", "dc2", -0.1)
        with pytest.raises(ValueError):
            fabric.set_pair_loss("dc1", "nope", 0.5)
        fabric.set_pair_loss("dc1", "dc2", 0.5)
        assert fabric.pair_loss("dc1", "dc2") == 0.5
        assert fabric.pair_loss("dc2", "dc1") == 0.5  # unordered
        fabric.set_pair_loss("dc1", "dc2", 0.0)
        assert fabric.pair_loss("dc1", "dc2") == 0.0


class TestSlowWan:
    def test_scale_multiplies_cross_dc_latency_only(self):
        engine, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        arrivals = {}
        for node in topology.nodes:
            fabric.register(node, lambda m: arrivals.setdefault(m.payload, engine.now))
        fabric.set_pair_latency_scale("dc1", "dc2", 4.0)
        fabric.send(dcs["dc1"][0], dcs["dc2"][0], "cross", "cross")
        fabric.send(dcs["dc1"][0], dcs["dc1"][1], "intra", "intra")
        engine.run()
        assert arrivals["cross"] == pytest.approx(0.020, rel=0.05)  # 5ms x 4
        assert arrivals["intra"] < 0.005

    def test_expected_delay_reflects_the_scale(self):
        _, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        base = fabric.expected_one_way_delay(dcs["dc1"][0], dcs["dc2"][0])
        fabric.set_pair_latency_scale("dc1", "dc2", 5.0)
        assert fabric.expected_one_way_delay(dcs["dc1"][0], dcs["dc2"][0]) == pytest.approx(
            5.0 * base
        )

    def test_fifo_order_preserved_under_scaling(self):
        # In "fifo" delivery mode the clamp runs *after* the pair scale is
        # applied, so per-link ordering survives even when a jittery latency
        # model is being multiplied.
        engine, topology, fabric = build_fabric(
            delivery="fifo", inter_dc=LogNormalLatency(0.005, 0.004)
        )
        dcs = nodes_by_dc(topology)
        received = []
        for node in topology.nodes:
            fabric.register(node, lambda m: received.append(m.payload))
        fabric.set_pair_latency_scale("dc1", "dc2", 9.0)
        for i in range(40):
            fabric.send(dcs["dc1"][0], dcs["dc2"][0], "seq", i)
        engine.run()
        assert received == list(range(40))

    def test_clear_pair_degradations_resets_everything(self):
        _, topology, fabric = build_fabric()
        dcs = nodes_by_dc(topology)
        base = fabric.expected_one_way_delay(dcs["dc1"][0], dcs["dc2"][0])
        fabric.set_pair_latency_scale("dc1", "dc2", 3.0)
        fabric.set_pair_loss("dc1", "dc2", 0.2)
        fabric.clear_pair_degradations()
        assert fabric.pair_loss("dc1", "dc2") == 0.0
        assert fabric.pair_latency_scale("dc1", "dc2") == 1.0
        assert fabric.expected_one_way_delay(dcs["dc1"][0], dcs["dc2"][0]) == base

    def test_validation(self):
        _, _, fabric = build_fabric()
        with pytest.raises(ValueError):
            fabric.set_pair_latency_scale("dc1", "dc2", 0.0)
        with pytest.raises(ValueError):
            fabric.set_pair_latency_scale("dc1", "nope", 2.0)
        fabric.set_pair_latency_scale("dc1", "dc2", 1.0)  # 1.0 clears
        assert fabric.pair_latency_scale("dc1", "dc2") == 1.0
