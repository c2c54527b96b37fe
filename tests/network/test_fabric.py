"""Unit tests for the message fabric."""

from __future__ import annotations

from bisect import insort
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.fabric import LATENCY_POOL_SIZE, NetworkFabric
from repro.network.latency import ConstantLatency, LatencyModel
from repro.network.topology import TopologyBuilder
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams


def make_fabric():
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
    fabric = NetworkFabric(engine, topo, RandomStreams(seed=5))
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


class _NegativeLatency(LatencyModel):
    """Breaks the model contract (latencies are never negative)."""

    def sample(self, rng):
        return -0.001

    def mean(self):
        return -0.001


def test_a_negative_latency_draw_is_refused_at_pool_refill():
    # Deliveries are pushed onto the engine heap without call_at's past
    # check, so the pool must refuse a draw that would schedule one there.
    engine = SimulationEngine()
    topo = (
        TopologyBuilder()
        .latencies(intra_rack=_NegativeLatency())
        .datacenter("dc1")
        .rack("r1", nodes=2)
        .build()
    )
    fabric = NetworkFabric(engine, topo, RandomStreams(seed=5))
    a, b = topo.nodes
    with pytest.raises(ValueError, match="negative latency"):
        fabric.send(a, b, "x", None)
    assert engine.pending_events == 0


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
MODES = st.sampled_from(NetworkFabric.PARTITION_MODES)
DIRECTIONS = st.sampled_from([("dc1", "dc2"), ("dc2", "dc1")])
GEO_STEPS = [
    st.tuples(st.just("partition"), GAPS, MODES),
    st.tuples(st.just("heal"), GAPS),
    st.tuples(st.just("oneway"), GAPS, DIRECTIONS, MODES),
    st.tuples(st.just("heal_oneway"), GAPS, DIRECTIONS),
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
    pool draws, the partition rules and the fifo clamp, without the fabric.

    The partition rules, stated over two kinds of cut rather than over the
    fabric's data structures:

    * a symmetric cut of dc1|dc2 and a one-way cut of each direction are
      refcounted separately, and each kind's mode is the one its latest
      partition set;
    * a message crossing a severed direction is blocked by the symmetric
      cut when one is active (its mode and its ``dc1|dc2`` key win),
      otherwise by the direction's one-way cut (``src->dst``), and is
      parked or dropped by that cut's mode;
    * when a kind's last partition heals, each message it parked goes to
      the other kind if that one still severs the message's direction (one
      more ``blocked_by_pair`` count under its key, then parked in send
      order or dropped by its mode) and is otherwise scheduled from the
      heal instant, in send order.
    """

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
            ("partition", 0.0, "park"),
            ("burst", 0.0, (0, 2), 4),
            ("heal", 0.0002),
        ],
    )
)
# Both directions reopen at one heal: their parked messages draw from the
# pair's one pool in send order, whichever direction they cross.
@example(
    (
        "geo",
        "coalesced",
        7,
        [
            ("partition", 0.0, "park"),
            ("interleave", 0.0, [(0, 2), (2, 1), (1, 3), (3, 0), (0, 3)]),
            ("heal", 0.001),
        ],
    )
)
# A symmetric drop over a one-way park, healed in both orders: the one-way
# cut's parked messages die under the drop when it heals first, and keep
# waiting when the symmetric cut heals first.
@example(
    (
        "geo",
        "fifo",
        3,
        [
            ("oneway", 0.0, ("dc1", "dc2"), "park"),
            ("burst", 0.0, (0, 2), 3),
            ("partition", 0.0, "drop"),
            ("burst", 0.0, (0, 2), 2),
            ("interleave", 0.0, [(2, 0), (0, 2)]),
            ("heal_oneway", 0.001, ("dc1", "dc2")),
            ("heal", 0.001),
        ],
    )
)
@example(
    (
        "geo",
        "coalesced",
        3,
        [
            ("oneway", 0.0, ("dc1", "dc2"), "park"),
            ("burst", 0.0, (0, 2), 3),
            ("partition", 0.0, "drop"),
            ("heal", 0.001),
            ("burst", 0.0, (0, 2), 2),
            ("heal_oneway", 0.001, ("dc1", "dc2")),
        ],
    )
)
# The reverse: a symmetric park over a one-way drop, and stacked cuts whose
# latest partition changes the mode.
@example(
    (
        "geo",
        "fifo",
        5,
        [
            ("partition", 0.0, "park"),
            ("interleave", 0.0, [(0, 2), (2, 0), (1, 3), (3, 1)]),
            ("oneway", 0.0, ("dc2", "dc1"), "drop"),
            ("burst", 0.0002, (2, 0), 2),
            ("heal", 0.001),
            ("partition", 0.0, "park"),
            ("partition", 0.0, "drop"),
            ("burst", 0.0, (2, 0), 2),
            ("heal_oneway", 0.001, ("dc2", "dc1")),
            ("heal", 0.0),
            ("heal", 0.0),
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
    # The two kinds of cut: [refcount, mode] of the symmetric one, and of
    # the one-way cut of each direction; each with the messages it parked.
    symmetric, oneway = [0, None], {}
    parked_symmetric, parked_oneway = [], {}
    dropped, blocked, blocked_by_pair = set(), 0, Counter()

    def by_id(message):
        return message.msg_id

    def hold(message, key, mode, parked):
        """A cut in ``mode`` blocks the message: park it or drop it."""
        blocked_by_pair[key] += 1
        if mode == "park":
            insort(parked, message, key=by_id)
        else:
            dropped.add(message.msg_id)

    def send(src, dst):
        nonlocal blocked
        message = fabric.send(nodes[src], nodes[dst], "x", None, on_delivered=arrivals.append)
        sent.append(message)
        direction = (dc_of(message.src), dc_of(message.dst))
        if direction[0] != direction[1] and symmetric[0]:
            blocked += 1
            hold(message, "dc1|dc2", symmetric[1], parked_symmetric)
        elif direction in oneway:
            blocked += 1
            hold(message, "%s->%s" % direction, oneway[direction][1], parked_oneway[direction])
        else:
            oracle.schedule(message, engine.now)

    def heal_symmetric():
        fabric.heal_datacenters("dc1", "dc2")
        symmetric[0] -= 1
        if symmetric[0]:
            return
        for message in parked_symmetric:
            direction = (dc_of(message.src), dc_of(message.dst))
            if direction in oneway:  # the other cut still holds it
                hold(message, "%s->%s" % direction, oneway[direction][1], parked_oneway[direction])
            else:
                oracle.schedule(message, engine.now)
        parked_symmetric.clear()

    def heal_oneway(direction):
        fabric.heal_datacenters_oneway(*direction)
        oneway[direction][0] -= 1
        if oneway[direction][0]:
            return
        del oneway[direction]
        for message in parked_oneway.pop(direction):
            if symmetric[0]:
                hold(message, "dc1|dc2", symmetric[1], parked_symmetric)
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
        elif action == "partition" and symmetric[0] < 2:
            fabric.partition_datacenters("dc1", "dc2", mode=step[2])
            symmetric[:] = [symmetric[0] + 1, step[2]]
        elif action == "heal" and symmetric[0]:
            heal_symmetric()
        elif action == "oneway" and oneway.get(step[2], [0])[0] < 2:
            fabric.partition_datacenters_oneway(*step[2], mode=step[3])
            oneway[step[2]] = [oneway.get(step[2], [0])[0] + 1, step[3]]
            parked_oneway.setdefault(step[2], [])
        elif action == "heal_oneway" and step[2] in oneway:
            heal_oneway(step[2])
        elif action == "slow_wan":
            fabric.set_pair_latency_scale("dc1", "dc2", step[2])
            oracle.wan_scale = step[2]
    while symmetric[0]:
        heal_symmetric()
    for direction in sorted(oneway):
        while direction in oneway:
            heal_oneway(direction)
    engine.run()

    # Every message the cuts did not drop is delivered exactly once, at its
    # own time...
    stats = fabric.stats
    kept = [m for m in sent if m.msg_id not in dropped]
    assert sorted(m.msg_id for m in arrivals) == [m.msg_id for m in kept]
    assert stats.delivered == len(kept) and stats.parked == 0
    assert (stats.blocked, stats.dropped) == (blocked, len(dropped))
    assert stats.blocked_by_pair == blocked_by_pair
    for message in kept:
        assert message.delivered_at == oracle.expected[message.msg_id][0]
    # ...in the engine's order: by time, ties in scheduling order...
    assert arrivals == sorted(kept, key=lambda m: oracle.expected[m.msg_id])
    # ...to the handler registered when it arrives...
    for message in kept:
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
