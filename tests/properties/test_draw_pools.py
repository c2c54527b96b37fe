"""Pooled random draws ≡ one draw at a time from the same named stream.

A node's service times and a coordinator's read-repair rolls are drawn in
blocks that grow geometrically (16, 32, ... up to 512) instead of 512 at a
time.  NumPy fills a batch from the bit stream exactly as successive single
draws would, so the sequence a run consumes must not depend on the block
sizes: checked here against a fresh generator of the same name drawing one
value per request -- across read, digest and write requests, a slowdown
change mid-stream, and enough requests to reach the 512 cap.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.node import DIGEST_SERVICE_FACTOR, NodeConfig
from repro.cluster.storage import Cell
from repro.network.fabric import Message, MessageKind
from repro.sim.rng import RandomStreams

#: Past 16 + 32 + ... + 512 = 1008: the last refills are at the cap.
MAX_DRAWS = 1100


def last_block(n: int) -> int:
    """Size of the block the ``n``-th draw came from: 16, 32, ..., 512, 512, ..."""
    size = drawn = 16
    while drawn < n:
        size = min(2 * size, 512)
        drawn += size
    return size


def request(i: int, kind: str, node) -> Message:
    if kind == "write":
        return Message(i, node.address, node.address, MessageKind.WRITE_REQUEST,
                       (i, Cell(0.0, i, "k")))
    return Message(i, node.address, node.address, MessageKind.READ_REQUEST,
                   (i, "k", kind == "digest"))


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, MAX_DRAWS),
    pattern=st.lists(st.sampled_from(["read", "digest", "write"]), min_size=1, max_size=6),
    slow_at=st.integers(0, MAX_DRAWS),
    factor=st.floats(0.25, 8.0),
)
@settings(max_examples=25, deadline=None)
def test_service_pool_equals_single_draws(seed, n, pattern, slow_at, factor):
    # A worker per request, so every request starts its service on arrival.
    cluster = SimulatedCluster(ClusterConfig(
        n_nodes=3, replication_factor=1, seed=seed, node=NodeConfig(concurrency=MAX_DRAWS)
    ))
    node = cluster.nodes[cluster.addresses[0]]
    delays = []
    # The clock stays at 0.0, so each completion time is the delay itself.
    node._call_at = lambda time, *args: delays.append(time)
    kinds = [pattern[i % len(pattern)] for i in range(n)]
    for i, kind in enumerate(kinds):
        if i == slow_at:
            node.slowdown = factor
        node.handle_message(request(i, kind, node))

    config = cluster.config.node
    cv2 = config.service_time_cv**2
    rng = RandomStreams(seed=seed).stream(f"node.{node.address}.service")
    expected = []
    slowdown = 1.0
    for i, kind in enumerate(kinds):
        if i == slow_at:
            slowdown = factor
        if kind == "write":
            scale = config.write_service_time * cv2
        else:
            scale = config.read_service_time * cv2
            if kind == "digest":
                scale *= DIGEST_SERVICE_FACTOR
        expected.append(float(rng.standard_gamma(1.0 / cv2)) * scale * slowdown)
    assert delays == expected
    assert len(node._service_pool) == last_block(n)


@given(seed=st.integers(0, 10_000), n=st.integers(1, MAX_DRAWS))
@settings(max_examples=25, deadline=None)
def test_read_repair_pool_equals_single_draws(seed, n):
    cluster = SimulatedCluster(ClusterConfig(n_nodes=3, replication_factor=1, seed=seed))
    address = cluster.addresses[0]
    coordinator = cluster.coordinators[address]
    rolled = []
    for _ in range(n):
        coordinator._read_repair_roll()
        rolled.append(coordinator._read_repair_pool[coordinator._read_repair_index - 1])
    rng = RandomStreams(seed=seed).stream(f"coordinator.{address}.read_repair")
    assert rolled == [float(rng.random()) for _ in range(n)]
    assert len(coordinator._read_repair_pool) == last_block(n)
