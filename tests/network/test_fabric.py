"""Unit tests for the message fabric."""

from __future__ import annotations

from bisect import insort

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.fabric import LATENCY_POOL_SIZE, NetworkFabric
from repro.network.latency import ConstantLatency
from repro.network.topology import TopologyBuilder
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams


def make_fabric(drop_probability: float = 0.0):
    engine = SimulationEngine()
    topo = (
        TopologyBuilder()
        .latencies(
            loopback=ConstantLatency(0.00001),
            intra_rack=ConstantLatency(0.001),
            inter_rack=ConstantLatency(0.002),
        )
        .datacenter("dc1")
        .rack("r1", nodes=2)
        .rack("r2", nodes=1)
        .build()
    )
    fabric = NetworkFabric(
        engine, topo, RandomStreams(seed=5), drop_probability=drop_probability
    )
    return engine, topo, fabric


def test_message_delivery_to_registered_handler():
    engine, topo, fabric = make_fabric()
    a, b, _ = topo.nodes
    received = []
    fabric.register(b, received.append)
    fabric.send(a, b, "hello", {"x": 1})
    engine.run()
    assert len(received) == 1
    message = received[0]
    assert message.kind == "hello"
    assert message.payload == {"x": 1}
    assert message.delivered_at == pytest.approx(0.001)


def test_bandwidth_term_adds_transfer_time():
    engine, topo, fabric = make_fabric()
    a, b, _ = topo.nodes
    received = []
    fabric.register(b, received.append)
    size = 125_000  # 1 ms at 1 Gbit/s
    fabric.send(a, b, "data", None, size_bytes=size)
    engine.run()
    assert received[0].delivered_at == pytest.approx(0.001 + 0.001)


def test_inter_rack_latency_applies():
    engine, topo, fabric = make_fabric()
    a, _, c = topo.nodes  # c is in the other rack
    received = []
    fabric.register(c, received.append)
    fabric.send(a, c, "x", None)
    engine.run()
    assert received[0].delivered_at == pytest.approx(0.002)


def test_unregistered_destination_still_counts_as_delivered():
    engine, topo, fabric = make_fabric()
    a, b, _ = topo.nodes
    fabric.send(a, b, "niente", None)
    engine.run()
    assert fabric.stats.delivered == 1


def test_on_delivered_callback_runs():
    engine, topo, fabric = make_fabric()
    a, b, _ = topo.nodes
    fabric.register(b, lambda m: None)
    seen = []
    fabric.send(a, b, "cb", None, on_delivered=seen.append)
    engine.run()
    assert len(seen) == 1


def test_duplicate_registration_rejected():
    _, topo, fabric = make_fabric()
    a = topo.nodes[0]
    fabric.register(a, lambda m: None)
    with pytest.raises(ValueError):
        fabric.register(a, lambda m: None)
    fabric.unregister(a)
    fabric.register(a, lambda m: None)  # fine after unregister


def test_drop_probability_drops_messages():
    engine, topo, fabric = make_fabric(drop_probability=0.5)
    a, b, _ = topo.nodes
    received = []
    fabric.register(b, received.append)
    for _ in range(500):
        fabric.send(a, b, "maybe", None)
    engine.run()
    assert fabric.stats.sent == 500
    assert fabric.stats.dropped > 100
    assert fabric.stats.delivered == 500 - fabric.stats.dropped
    assert len(received) == fabric.stats.delivered


def test_latency_scale_multiplies_delay():
    engine, topo, fabric = make_fabric()
    a, b, _ = topo.nodes
    received = []
    fabric.register(b, received.append)
    fabric.latency_scale = 10.0
    fabric.send(a, b, "slow", None)
    engine.run()
    assert received[0].delivered_at == pytest.approx(0.01)
    assert fabric.expected_one_way_delay(a, b) == pytest.approx(0.01)


def test_latency_scale_validation():
    _, _, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.latency_scale = -1.0
    with pytest.raises(ValueError):
        fabric.drop_probability = 1.5


def test_ping_is_a_round_trip():
    _, topo, fabric = make_fabric()
    a, b, _ = topo.nodes
    assert fabric.ping(a, b) == pytest.approx(0.002)
    assert fabric.ping_mean(a, b) == pytest.approx(0.002)


def test_stats_track_kinds_and_bytes():
    engine, topo, fabric = make_fabric()
    a, b, _ = topo.nodes
    fabric.register(b, lambda m: None)
    fabric.send(a, b, "write_request", None, size_bytes=100)
    fabric.send(a, b, "write_request", None, size_bytes=50)
    fabric.send(a, b, "read_request", None)
    engine.run()
    assert fabric.stats.per_kind["write_request"] == 2
    assert fabric.stats.per_kind["read_request"] == 1
    assert fabric.stats.bytes_sent == 150
    assert fabric.stats.mean_latency() > 0


def test_invalid_construction_parameters():
    engine = SimulationEngine()
    topo = TopologyBuilder().datacenter("d").rack("r", nodes=1).build()
    with pytest.raises(ValueError):
        NetworkFabric(engine, topo, RandomStreams(0), bandwidth_bytes_per_s=0)
    with pytest.raises(ValueError):
        NetworkFabric(engine, topo, RandomStreams(0), drop_probability=1.0)
    with pytest.raises(ValueError):
        NetworkFabric(engine, topo, RandomStreams(0), delivery="bogus")


# ----------------------------------------------------------------------
# Delivery modes and message kinds (runtime hot-path features)
# ----------------------------------------------------------------------


def make_jittery_fabric(delivery: str):
    """A fabric whose latency is genuinely random, to exercise reordering."""
    from repro.network.latency import LogNormalLatency

    engine = SimulationEngine()
    topo = (
        TopologyBuilder()
        .latencies(
            loopback=ConstantLatency(0.00001),
            intra_rack=LogNormalLatency(median=0.001, sigma=0.8),
        )
        .datacenter("dc1")
        .rack("r1", nodes=2)
        .build()
    )
    fabric = NetworkFabric(engine, topo, RandomStreams(seed=7), delivery=delivery)
    return engine, topo, fabric


@pytest.mark.parametrize("delivery", NetworkFabric.DELIVERY_MODES)
def test_every_delivery_mode_delivers_everything(delivery):
    engine, topo, fabric = make_jittery_fabric(delivery)
    a, b = topo.nodes
    received = []
    fabric.register(b, received.append)
    for i in range(200):
        fabric.send(a, b, "x", i)
    engine.run()
    assert len(received) == 200
    assert fabric.stats.delivered == 200
    # Delivery timestamps never decrease as seen by the engine.
    times = [m.delivered_at for m in received]
    assert times == sorted(times)


def test_fifo_mode_preserves_send_order():
    engine, topo, fabric = make_jittery_fabric("fifo")
    a, b = topo.nodes
    received = []
    fabric.register(b, received.append)
    for i in range(300):
        fabric.send(a, b, "x", i)
    engine.run()
    assert [m.payload for m in received] == list(range(300))


def test_coalesced_mode_delivers_in_sampled_time_order():
    engine, topo, fabric = make_jittery_fabric("coalesced")
    a, b = topo.nodes
    received = []
    fabric.register(b, received.append)
    for i in range(300):
        fabric.send(a, b, "x", i)
    engine.run()
    # With heavy jitter, faithful (non-FIFO) delivery reorders messages.
    assert [m.payload for m in received] != list(range(300))
    assert sorted(m.payload for m in received) == list(range(300))


def test_interleaved_sends_and_deliveries_on_one_link():
    engine, topo, fabric = make_jittery_fabric("coalesced")
    a, b = topo.nodes
    received = []
    fabric.register(b, received.append)

    def send_more(n):
        if n > 0:
            fabric.send(a, b, "x", n)
            engine.schedule(0.0004, send_more, n - 1)

    send_more(50)
    engine.run()
    assert len(received) == 50


def burst_after_idle(delivery: str, burst: int = 40):
    """One lone message on an idle pair, then a burst on the same pair."""
    engine, topo, fabric = make_jittery_fabric(delivery)
    a, b = topo.nodes
    received = []
    fabric.register(b, received.append)
    fabric.send(a, b, "x", "lone")
    engine.run()
    for i in range(burst):
        fabric.send(a, b, "x", i)
    engine.run()
    return received


def test_burst_on_an_idle_fifo_link_arrives_in_send_order():
    received = burst_after_idle("fifo")
    assert [m.payload for m in received] == ["lone", *range(40)]


def test_burst_on_an_idle_coalesced_link_arrives_in_sampled_time_order():
    # Faithful delivery in closed form: message i (in send order) lands
    # exactly its own pool draw after it was sent, so the engine must hand
    # the burst over in that time order.  The draws are re-made here from
    # the link class's named stream, the way the fabric fills its pool.
    received = burst_after_idle("coalesced")
    _, topo, _ = make_jittery_fabric("coalesced")
    a, b = topo.nodes
    draws = topo.latency_model(a, b).sample_many(
        RandomStreams(seed=7).stream(f"network.latency.{topo.link_class(a, b)}"),
        LATENCY_POOL_SIZE,
    )
    in_send_order = sorted(received, key=lambda m: m.msg_id)
    assert [m.payload for m in in_send_order] == ["lone", *range(40)]
    for message, draw in zip(in_send_order, draws):
        assert message.delivered_at == message.sent_at + draw
    burst = in_send_order[1:]
    assert received[1:] == sorted(burst, key=lambda m: m.delivered_at)
    assert received[1:] != burst  # the jitter really reorders


@pytest.mark.parametrize("delivery", ["coalesced", "fifo"])
def test_register_and_unregister_resync_the_link_handler(delivery):
    engine, topo, fabric = make_jittery_fabric(delivery)
    a, b = topo.nodes
    first, second = [], []
    fabric.register(b, first.append)
    for i in range(5):
        fabric.send(a, b, "x", i)
    engine.run()
    assert len(first) == 5
    fabric.unregister(b)
    fabric.send(a, b, "x", "to nobody")
    engine.run()
    assert len(first) == 5 and fabric.stats.delivered == 6
    # Re-registering while a burst is in flight: every message still on the
    # pair reaches the new handler, which delivery looks up.
    for i in range(5):
        fabric.send(a, b, "x", i)
    fabric.register(b, second.append)
    engine.run()
    assert len(first) == 5
    assert sorted(m.payload for m in second) == list(range(5))


# ----------------------------------------------------------------------
# Delivery order, as a property
# ----------------------------------------------------------------------


def order_topology(kind: str):
    """Four jittery nodes: one site of two racks, or two sites of one rack."""
    from repro.network.latency import LogNormalLatency

    builder = TopologyBuilder().latencies(
        loopback=ConstantLatency(0.00001),
        intra_rack=LogNormalLatency(median=0.001, sigma=0.8),
        inter_rack=LogNormalLatency(median=0.0015, sigma=0.5),
        inter_dc=LogNormalLatency(median=0.004, sigma=0.6),
    )
    if kind == "lan":
        return builder.datacenter("dc1").rack("r1", nodes=2).rack("r2", nodes=2).build()
    builder.datacenter("dc1").rack("r1", nodes=2)
    return builder.datacenter("dc2").rack("r1", nodes=2).build()


GAPS = st.sampled_from([0.0, 0.0002, 0.001, 0.004])
NODE = st.integers(0, 3)
PAIR = st.tuples(NODE, NODE)
GEO_STEPS = [
    st.tuples(st.just("partition"), GAPS),
    st.tuples(st.just("heal"), GAPS),
    st.tuples(st.just("oneway"), GAPS, st.sampled_from([("dc1", "dc2"), ("dc2", "dc1")])),
    st.tuples(st.just("heal_oneway"), GAPS, st.sampled_from([("dc1", "dc2"), ("dc2", "dc1")])),
    st.tuples(st.just("slow_wan"), GAPS, st.sampled_from([1.0, 3.0, 10.0])),
]


@st.composite
def delivery_schedules(draw):
    kind = draw(st.sampled_from(["lan", "geo"]))
    delivery = draw(st.sampled_from(NetworkFabric.DELIVERY_MODES))
    # Bursts favour one pair, so later bursts land behind earlier ones.
    hot = draw(PAIR)
    steps = [
        st.tuples(st.just("burst"), GAPS, st.one_of(st.just(hot), PAIR), st.integers(1, 8)),
        st.tuples(st.just("interleave"), GAPS, st.lists(PAIR, min_size=2, max_size=8)),
        st.tuples(st.just("reregister"), GAPS, NODE),
    ]
    if kind == "geo":
        steps += GEO_STEPS
    seed = draw(st.integers(0, 2**16))
    return kind, delivery, seed, draw(st.lists(st.one_of(steps), min_size=1, max_size=30))


class DeliveryOracle:
    """When and in which order each message must arrive, derived from the
    pool draws, the partition rules and the fifo clamp, without the fabric."""

    def __init__(self, topo, seed: int, fifo: bool) -> None:
        self.topo = topo
        self.seed = seed
        self.fifo = fifo
        self.draws = {}
        self.floors = {}
        self.wan_scale = 1.0
        self.expected = {}  # msg_id -> (delivery time, scheduling order)

    def schedule(self, message, now: float) -> None:
        cls = self.topo.link_class(message.src, message.dst)
        if cls not in self.draws:
            model = self.topo.latency_model(message.src, message.dst)
            stream = RandomStreams(self.seed).stream(f"network.latency.{cls}")
            self.draws[cls] = iter(model.sample_many(stream, LATENCY_POOL_SIZE).tolist())
        latency = next(self.draws[cls])
        if self.topo.datacenter_of(message.src) != self.topo.datacenter_of(message.dst):
            latency *= self.wan_scale
        at = now + latency
        if self.fifo:
            pair = (message.src, message.dst)
            at = max(at, self.floors.get(pair, at))
            self.floors[pair] = at
        self.expected[message.msg_id] = (at, len(self.expected))


@settings(max_examples=60, deadline=None)
@given(delivery_schedules())
# A second burst behind a first one still in flight: its clamp must hold.
@example(("lan", "fifo", 17, [("burst", 0.0, (0, 1), 8), ("burst", 0.001, (0, 1), 8)]))
# Messages parked behind a partition leave at the heal behind those in flight.
@example(
    (
        "geo",
        "fifo",
        17,
        [
            ("burst", 0.0, (0, 2), 8),
            ("partition", 0.0),
            ("burst", 0.0, (0, 2), 4),
            ("heal", 0.0002),
        ],
    )
)
def test_delivery_order_is_the_engine_order_of_each_message(schedule):
    kind, delivery, seed, steps = schedule
    engine = SimulationEngine()
    topo = order_topology(kind)
    fabric = NetworkFabric(engine, topo, RandomStreams(seed), delivery=delivery)
    oracle = DeliveryOracle(topo, seed, fifo=delivery == "fifo")
    nodes = topo.nodes
    dc_of = topo.datacenter_of
    handled = {}  # msg_id -> generation of the handler that took it
    registered = {}  # node -> [(time registered, generation)]

    def register(node):
        generation = len(registered.get(node, ()))
        registered.setdefault(node, []).append((engine.now, generation))
        fabric.register(node, lambda m, g=generation: handled.setdefault(m.msg_id, g))

    for node in nodes:
        register(node)
    arrivals, sent = [], []
    symmetric, oneway = False, set()
    parked_symmetric, parked_oneway = [], {}

    def by_id(message):
        return message.msg_id

    def send(src, dst):
        message = fabric.send(nodes[src], nodes[dst], "x", None, on_delivered=arrivals.append)
        sent.append(message)
        direction = (dc_of(message.src), dc_of(message.dst))
        if direction[0] != direction[1] and symmetric:
            parked_symmetric.append(message)
        elif direction in oneway:
            parked_oneway[direction].append(message)
        else:
            oracle.schedule(message, engine.now)

    def heal_symmetric():
        nonlocal symmetric
        fabric.heal_datacenters("dc1", "dc2")
        symmetric = False
        for message in parked_symmetric:
            direction = (dc_of(message.src), dc_of(message.dst))
            if direction in oneway:  # the other cut still holds it
                insort(parked_oneway[direction], message, key=by_id)
            else:
                oracle.schedule(message, engine.now)
        parked_symmetric.clear()

    def heal_oneway(direction):
        fabric.heal_datacenters_oneway(*direction)
        oneway.discard(direction)
        for message in parked_oneway.pop(direction):
            if symmetric:
                insort(parked_symmetric, message, key=by_id)
            else:
                oracle.schedule(message, engine.now)

    for step in steps:
        engine.run_until(engine.now + step[1])
        action = step[0]
        if action == "burst":
            for _ in range(step[3]):
                send(*step[2])
        elif action == "interleave":
            for src, dst in step[2]:
                send(src, dst)
        elif action == "reregister":
            fabric.unregister(nodes[step[2]])
            register(nodes[step[2]])
        elif action == "partition" and not symmetric:
            fabric.partition_datacenters("dc1", "dc2", mode="park")
            symmetric = True
        elif action == "heal" and symmetric:
            heal_symmetric()
        elif action == "oneway" and step[2] not in oneway:
            fabric.partition_datacenters_oneway(*step[2], mode="park")
            oneway.add(step[2])
            parked_oneway[step[2]] = []
        elif action == "heal_oneway" and step[2] in oneway:
            heal_oneway(step[2])
        elif action == "slow_wan":
            fabric.set_pair_latency_scale("dc1", "dc2", step[2])
            oracle.wan_scale = step[2]
    if symmetric:
        heal_symmetric()
    for direction in sorted(oneway):
        heal_oneway(direction)
    engine.run()

    # Every message is delivered exactly once, at its own time...
    assert sorted(m.msg_id for m in arrivals) == [m.msg_id for m in sent]
    assert fabric.stats.delivered == len(sent) and fabric.stats.parked == 0
    for message in sent:
        assert message.delivered_at == oracle.expected[message.msg_id][0]
    # ...in the engine's order: by time, ties in scheduling order...
    assert arrivals == sorted(sent, key=lambda m: oracle.expected[m.msg_id])
    # ...to the handler registered when it arrives...
    for message in sent:
        generation = max(g for t, g in registered[message.dst] if t < message.delivered_at)
        assert handled[message.msg_id] == generation
    # ...each fifo pair in send order, and no clamp entry outlives the run.
    if delivery == "fifo":
        last = {}
        for message in arrivals:
            pair = (message.src, message.dst)
            assert message.msg_id > last.get(pair, -1)
            last[pair] = message.msg_id
    assert not fabric._floors


def test_message_kinds_are_interned():
    from repro.network.fabric import MessageKind

    engine, topo, fabric = make_fabric()
    a, b, _ = topo.nodes
    received = []
    fabric.register(b, received.append)
    fabric.send(a, b, "write_request", None)
    fabric.send(a, b, "custom_kind", None)
    engine.run()
    assert received[0].kind is MessageKind.WRITE_REQUEST
    assert received[0].kind == "write_request"
    assert str(received[0].kind) == "write_request"
    assert received[1].kind == "custom_kind"
    assert fabric.stats.per_kind["write_request"] == 1
    assert fabric.stats.per_kind["missing_kind"] == 0  # Counter semantics


def test_pooled_sampling_is_deterministic_per_seed():
    results = []
    for _ in range(2):
        engine, topo, fabric = make_jittery_fabric("coalesced")
        a, b = topo.nodes
        delivered = []
        fabric.register(b, delivered.append)
        for i in range(100):
            fabric.send(a, b, "x", i)
        engine.run()
        results.append([(m.payload, round(m.delivered_at, 12)) for m in delivered])
    assert results[0] == results[1]
