"""Shard-planner properties: exact cover, contiguity, lookahead derivation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import resolve_topology
from repro.experiments.scenarios import GRID5000_3SITES, SCALE_100, SCALE_1000
from repro.network.latency import ConstantLatency, LogNormalLatency
from repro.network.topology import Datacenter, NodeAddress, Rack, Topology
from repro.sim.parallel import plan_shards


def _topology(scenario):
    return resolve_topology(scenario.cluster_config(seed=7))


# Topologies are pure layout (no cluster state); build each once per module.
TOPO_100 = _topology(SCALE_100)
RACKS_100 = sum(len(dc.racks) for dc in TOPO_100.datacenters)


class TestExactCover:
    @settings(deadline=None, max_examples=40)
    @given(
        n_shards=st.integers(min_value=1, max_value=120),
        granularity=st.sampled_from(["rack", "node", "auto"]),
    )
    def test_every_node_owned_exactly_once(self, n_shards, granularity):
        try:
            plan = plan_shards(TOPO_100, n_shards, granularity)
        except ValueError:
            # The only legitimate refusals: more shards than splittable units.
            if granularity == "rack":
                assert n_shards > RACKS_100
            else:
                assert n_shards > TOPO_100.size
            return
        owned = [address for shard in plan.shards for address in shard]
        assert len(owned) == TOPO_100.size
        assert set(owned) == set(TOPO_100.nodes)
        assert len(plan.shards) == n_shards
        for index, shard in enumerate(plan.shards):
            for address in shard:
                assert plan.shard_of(address) == index

    def test_duplicate_assignment_is_rejected(self):
        from repro.sim.parallel import ShardPlan

        node = TOPO_100.nodes[0]
        with pytest.raises(ValueError, match="two shards"):
            ShardPlan(shards=((node,), (node,)), lookahead=0.001)


class TestNodeGranularity:
    @settings(deadline=None, max_examples=40)
    @given(n_shards=st.integers(min_value=1, max_value=100))
    def test_contiguous_even_split(self, n_shards):
        plan = plan_shards(TOPO_100, n_shards, "node")
        sizes = [len(shard) for shard in plan.shards]
        assert max(sizes) - min(sizes) <= 1
        # Contiguity in topology construction order: the concatenation of
        # the shards is exactly the node list.
        assert [a for shard in plan.shards for a in shard] == TOPO_100.nodes
        # Contiguity also bounds the damage: each rack's owners form a
        # contiguous shard range, and every shard boundary cuts at most one
        # rack, so at most n_shards - 1 racks are split in total.
        split_racks = 0
        for dc in TOPO_100.datacenters:
            for rack in dc.racks:
                owners = sorted({plan.shard_of(a) for a in rack.nodes})
                assert owners == list(range(owners[0], owners[-1] + 1))
                split_racks += len(owners) > 1
        assert split_racks <= max(0, n_shards - 1)

    def test_auto_is_rack_granular_while_shards_fit(self):
        for n_shards in (1, 2, RACKS_100):
            auto = plan_shards(TOPO_100, n_shards, "auto")
            rack = plan_shards(TOPO_100, n_shards, "rack")
            assert auto.shards == rack.shards
            assert auto.lookahead == rack.lookahead

    def test_auto_switches_to_node_beyond_rack_count(self):
        auto = plan_shards(TOPO_100, RACKS_100 + 3, "auto")
        node = plan_shards(TOPO_100, RACKS_100 + 3, "node")
        assert auto.shards == node.shards

    def test_more_shards_than_nodes_is_rejected(self):
        with pytest.raises(ValueError, match="lower the shard count"):
            plan_shards(TOPO_100, TOPO_100.size + 1, "node")

    def test_unknown_granularity_is_rejected(self):
        with pytest.raises(ValueError, match="granularity"):
            plan_shards(TOPO_100, 2, "datacenter")


class TestLookahead:
    def test_grid5000_inter_dc_lookahead(self):
        plan = plan_shards(_topology(GRID5000_3SITES), 3)
        assert plan.lookahead == pytest.approx(0.004)
        assert plan.lookahead_class.startswith("inter_dc")

    def test_scale_100_inter_rack_lookahead(self):
        plan = plan_shards(TOPO_100, 4)
        assert plan.lookahead == pytest.approx(2e-05)
        assert plan.lookahead_class == "inter_rack"

    def test_scale_1000_node_granular_intra_rack_lookahead(self):
        # The Grid'5000-like model clamps intra- and inter-rack to the same
        # hard floor, so splitting racks at 40 shards costs no lookahead.
        plan = plan_shards(_topology(SCALE_1000), 40, "auto")
        assert plan.lookahead == pytest.approx(2e-05)
        assert plan.lookahead_class == "intra_rack"

    def test_single_shard_needs_no_boundary_floor(self):
        plan = plan_shards(TOPO_100, 1)
        assert plan.lookahead > 0.0
        assert plan.lookahead_class == "none"

    def _two_rack_topology(self, *, intra_rack, inter_rack):
        nodes = [NodeAddress("dc", f"r{i // 2}", i) for i in range(4)]
        return Topology(
            [
                Datacenter(
                    "dc",
                    [Rack("r0", nodes[:2]), Rack("r1", nodes[2:])],
                )
            ],
            intra_rack=intra_rack,
            inter_rack=inter_rack,
        )

    def test_zero_floor_crossing_class_is_not_shardable(self):
        topology = self._two_rack_topology(
            intra_rack=ConstantLatency(0.0001),
            inter_rack=LogNormalLatency(median=0.0005),  # floor 0 on the boundary
        )
        with pytest.raises(ValueError, match="not shardable"):
            plan_shards(topology, 2)

    def test_zero_intra_rack_floor_blocks_node_granular_splits_only(self):
        topology = self._two_rack_topology(
            intra_rack=LogNormalLatency(median=0.0005),
            inter_rack=ConstantLatency(0.001),
        )
        # Rack-granular: the zero-floor intra_rack class never crosses.
        assert plan_shards(topology, 2).lookahead == pytest.approx(0.001)
        # Node-granular at 3 shards must split a rack -> intra_rack joins
        # the boundary and its zero floor is rejected.
        with pytest.raises(ValueError, match="not shardable"):
            plan_shards(topology, 3, "node")
