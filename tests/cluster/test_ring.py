"""Unit tests for the token ring and partitioners."""

from __future__ import annotations

import pytest

from repro.cluster.ring import Murmur3Partitioner, TokenRing
from repro.network.topology import NodeAddress


def make_nodes(n: int):
    return [NodeAddress("dc1", f"r{i % 2 + 1}", i) for i in range(n)]


class TestPartitioners:
    def test_tokens_are_deterministic(self):
        p = Murmur3Partitioner()
        assert p.token("user42") == p.token("user42")

    def test_tokens_differ_across_keys(self):
        p = Murmur3Partitioner()
        tokens = {p.token(f"user{i}") for i in range(1000)}
        assert len(tokens) == 1000

    def test_tokens_within_space(self):
        partitioner = Murmur3Partitioner()
        for i in range(100):
            token = partitioner.token(f"key{i}")
            assert 0 <= token < partitioner.TOKEN_SPACE

    def test_node_tokens_differ_per_vnode_index(self):
        p = Murmur3Partitioner()
        node = NodeAddress("dc1", "r1", 0)
        assert p.node_token(node, 0) != p.node_token(node, 1)


class TestTokenRing:
    def test_primary_replica_is_stable(self):
        ring = TokenRing(make_nodes(5))
        assert ring.primary_replica("user1") == ring.primary_replica("user1")

    def test_walk_visits_every_node_once(self):
        nodes = make_nodes(6)
        ring = TokenRing(nodes)
        walk = list(ring.walk_from_key("some-key"))
        assert len(walk) == 6
        assert set(walk) == set(nodes)

    def test_walk_starts_at_the_owner(self):
        ring = TokenRing(make_nodes(4))
        key = "user123"
        assert next(ring.walk_from_key(key)) == ring.primary_replica(key)

    def test_ownership_spreads_over_nodes(self):
        nodes = make_nodes(8)
        ring = TokenRing(nodes, vnodes=16)
        keys = [f"user{i}" for i in range(4000)]
        ownership = ring.ownership(keys)
        assert set(ownership) == set(nodes)
        counts = list(ownership.values())
        # With 16 vnodes the spread should be reasonably even: no node owns
        # more than 3x the fair share, and every node owns something.
        fair = len(keys) / len(nodes)
        assert min(counts) > 0
        assert max(counts) < 3 * fair

    def test_single_node_ring_owns_everything(self):
        node = NodeAddress("dc1", "r1", 0)
        ring = TokenRing([node])
        assert ring.primary_replica("anything") == node

    def test_duplicate_nodes_rejected(self):
        node = NodeAddress("dc1", "r1", 0)
        with pytest.raises(ValueError):
            TokenRing([node, node])

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            TokenRing([])

    def test_invalid_vnodes_rejected(self):
        with pytest.raises(ValueError):
            TokenRing(make_nodes(2), vnodes=0)

    def test_different_vnode_counts_change_spread_not_membership(self):
        nodes = make_nodes(5)
        few = TokenRing(nodes, vnodes=1)
        many = TokenRing(nodes, vnodes=32)
        assert set(few.walk_from_key("k")) == set(many.walk_from_key("k"))

    def test_walk_limit_bounds_the_walk(self):
        ring = TokenRing(make_nodes(10))
        full = list(ring.walk_from_token(12345))
        assert len(full) == 10
        assert list(ring.walk_from_token(12345, limit=3)) == full[:3]
        assert list(ring.walk_from_token(12345, limit=99)) == full

    def test_walk_limit_zero_is_empty(self):
        # Regression: limit=0 used to return the whole ring.
        ring = TokenRing(make_nodes(10))
        assert list(ring.walk_from_token(12345, limit=0)) == []
        assert list(ring.walk_from_key("k", limit=0)) == []

    def test_negative_walk_limit_rejected(self):
        # Regression: a negative limit used to return the whole ring.  The
        # walk is lazy, the check is not: it raises before anything is pulled.
        ring = TokenRing(make_nodes(10))
        with pytest.raises(ValueError, match="limit"):
            ring.walk_from_token(12345, limit=-2)

    def test_lazy_walk_visits_only_what_is_pulled(self):
        ring = TokenRing(make_nodes(50), vnodes=8)
        walk = ring.walk_from_token(12345)
        assert ring.walks == 1 and ring.tokens_visited == 0
        first = [next(walk) for _ in range(3)]
        assert first == list(ring.walk_from_token(12345, limit=3))
        # 3 distinct nodes cost 3 tokens plus any repeated vnode, never the ring.
        assert ring.walks == 2
        assert ring.tokens_visited <= 2 * 3 * ring.vnodes

    def test_walk_wraps_past_the_last_token(self):
        ring = TokenRing(make_nodes(4))
        last = max(ring._token_map)
        assert next(ring.walk_from_token(last)) == ring._token_map[last]
        assert next(ring.walk_from_token(last + 1)) == ring._token_map[min(ring._token_map)]
