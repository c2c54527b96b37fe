"""Message fabric: delivers simulated messages between cluster nodes.

The fabric is the only component that couples the topology's latency models
to the event engine.  A message sent from ``src`` to ``dst`` is delivered to
the destination's handler after one sampled one-way latency plus an optional
size-dependent transfer time (``payload_size / bandwidth``).  Messages can be
dropped with a configurable probability to exercise the cluster's timeout,
hinted-handoff and read-repair paths.

The fabric also exposes the measurements the Harmony monitoring module needs:
a ``ping``-style RTT probe and counters of delivered / dropped messages.

Datacenter partitions (fault injection)
---------------------------------------
The fabric is where WAN partitions live: :meth:`NetworkFabric.partition_datacenters`
severs one unordered DC pair so that messages between the two sites are either
*dropped* (a hard partition; senders rely on timeouts, hints and anti-entropy
to converge later) or *parked* (a grey partition; traffic is buffered in the
fabric and released when :meth:`NetworkFabric.heal_datacenters` is called,
like a WAN link that buffers and finally flushes).  Intra-DC traffic is never
affected, which is exactly what lets ``LOCAL_ONE``/``LOCAL_QUORUM`` keep
serving while ``EACH_QUORUM`` degrades.  Blocked traffic is counted per DC
pair (``NetworkStats.blocked`` / ``blocked_by_pair``), so tests and the
fault benchmarks can assert where messages died.

Grey failures (chaos injection)
-------------------------------
Three further WAN degradations model failures that are *partial* rather than
binary, the space the chaos harness (:mod:`repro.chaos`) searches over:

* **Asymmetric partitions** --
  :meth:`NetworkFabric.partition_datacenters_oneway` severs one *ordered*
  DC direction: ``A -> B`` traffic is dropped or parked while ``B -> A``
  keeps flowing (a broken BGP announcement, a one-way firewall rule).
  Directional blocks are refcounted and healed independently of the
  symmetric partitions; directional blocked traffic is counted under
  ``"A->B"`` keys in ``blocked_by_pair``.
* **Per-pair packet loss** -- :meth:`NetworkFabric.set_pair_loss` drops each
  message crossing one DC pair with a configured probability.  Losses are
  drawn from a dedicated named stream per pair
  (``network.loss.<a>|<b>``), so a given seed loses exactly the same
  messages regardless of what else consumes randomness, and healthy runs
  draw nothing.
* **Slow WAN** -- :meth:`NetworkFabric.set_pair_latency_scale` multiplies
  every sampled latency on one DC pair (brown-out, congested transit).
  The scale applies to the propagation term only (not the bandwidth term),
  and the ``fifo`` delivery clamp still guarantees per-pair FIFO order.

None of the three touches intra-DC traffic, and none perturbs any other
random stream, so enabling a grey failure mid-run leaves the rest of the
trace byte-identical up to the messages it actually affects.

Hot-path design notes
---------------------
Three things keep the per-message cost low on 100+ node rings:

* **Pre-drawn latency pools.**  Instead of one ``np.random`` call per
  message, latencies are drawn in vectorised blocks of
  :data:`LATENCY_POOL_SIZE` -- one pool per latency *class* (loopback,
  intra-rack, inter-rack, each inter-DC link), each fed by its own named
  :class:`~repro.sim.rng.RandomStreams` stream, so runs stay deterministic
  for a given seed and pool draws never perturb other streams.  The send
  path finds its pool in a cache per (source, destination site).
* **One engine event per message, and no per-link state.**  A message is
  its own entry in the engine heap, which already orders every delivery by
  ``(time, seq)``; the destination handler is looked up at delivery.  The
  two delivery modes are two *models*, not two speeds.  ``"coalesced"``
  delivers each message at ``sent_at`` plus its own independent latency
  draw (the WARS model of PBS, which the paper-faithful and geo scenarios
  keep), so a delivery does not depend on its pair at all.  ``"fifo"`` is
  one TCP connection per peer as in Cassandra 1.0 (the scale scenarios): a
  message never overtakes the one sent before it on the same pair, because
  its delivery time is clamped to the last one handed out there.  That
  clamp floor is the only per-pair state, and it exists only while the pair
  has a message in flight: the delivery at the floor's time removes it, so
  a wide ring holds what is in flight, not every pair it ever used.
* **Interned message kinds.**  :class:`MessageKind` is a ``str`` enum, so
  kind dispatch compares interned singletons while remaining ``==``- and
  ``hash``-compatible with the plain strings used by tests and user code.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import DEFAULT_BANDWIDTH_BYTES_PER_S
from repro.network.latency import LatencyModel
from repro.network.topology import NodeAddress, Topology
from repro.network.transfers import BandwidthConfig, TransferScheduler
from repro.sim.engine import Event, SimulationEngine
from repro.sim.rng import RandomStreams

__all__ = ["Message", "MessageKind", "NetworkFabric", "NetworkStats", "LATENCY_POOL_SIZE"]

#: Number of latencies pre-drawn per vectorised pool refill.
LATENCY_POOL_SIZE = 4096


class MessageKind(str, Enum):
    """Interned message type tags.

    Members are ``str`` subclasses, so ``message.kind == "read_request"``
    keeps working for user code and tests, while the cluster's dispatch
    tables compare interned enum members.  Unknown (user-defined) kinds pass
    through :meth:`intern` unchanged.
    """

    READ_REQUEST = "read_request"
    WRITE_REQUEST = "write_request"
    REPAIR_WRITE = "repair_write"
    HINT_REPLAY = "hint_replay"
    READ_RESPONSE = "read_response"
    WRITE_RESPONSE = "write_response"
    # Anti-entropy (Merkle repair) kinds: tree exchange between two session
    # endpoints, then streamed cells for the token ranges that differed.
    TREE_REQUEST = "tree_request"
    TREE_RESPONSE = "tree_response"
    REPAIR_STREAM = "repair_stream"
    # Membership (bootstrap/decommission) bulk range transfer: cells streamed
    # from an old owner to a joining/new owner while the range moves.
    RANGE_STREAM = "range_stream"

    def __str__(self) -> str:  # keep str(kind) == the wire name
        return self.value

    @classmethod
    def intern(cls, kind: str) -> "str":
        """Map a known kind string to its enum member (unknown kinds pass through)."""
        return _KIND_INTERN.get(kind, kind)


_KIND_INTERN: Dict[str, MessageKind] = {member.value: member for member in MessageKind}


@dataclass(slots=True)
class Message:
    """A simulated network message.

    Attributes
    ----------
    msg_id:
        Unique, monotonically increasing identifier (useful in traces).
    src, dst:
        Sender and receiver node addresses.
    kind:
        Message type tag; a :class:`MessageKind` member for the built-in
        kinds, or a free-form string for user-defined ones.
    payload:
        Arbitrary Python object carried by the message.
    size_bytes:
        Logical payload size used for the bandwidth term of the delay.
    sent_at, delivered_at:
        Virtual timestamps filled in by the fabric.
    """

    msg_id: int
    src: NodeAddress
    dst: NodeAddress
    kind: str
    payload: Any
    size_bytes: int = 0
    sent_at: float = 0.0
    delivered_at: float = 0.0


@dataclass(slots=True)
class NetworkStats:
    """Counters maintained by the fabric (per whole cluster).

    ``per_kind`` is a :class:`collections.Counter`, so missing kinds read as
    zero and the per-send increment is a single dict operation.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    total_latency: float = 0.0
    per_kind: Counter = field(default_factory=Counter)
    #: Messages blocked by a datacenter partition (dropped or parked).
    blocked: int = 0
    #: Messages currently parked in a "park"-mode partition.
    parked: int = 0
    #: Blocked-message counts per DC pair: unordered ("dcA|dcB") for
    #: symmetric partitions, ordered ("dcA->dcB") for asymmetric ones.
    blocked_by_pair: Counter = field(default_factory=Counter)
    #: Messages dropped by per-pair packet loss, per unordered DC pair
    #: ("dcA|dcB").  These also count into ``dropped``.
    lost_by_pair: Counter = field(default_factory=Counter)
    #: Bulk-transfer lifecycle counters (bandwidth modeling; see
    #: :mod:`repro.network.transfers`).  Aborted message-borne transfers
    #: also count into ``dropped``.
    transfers_started: int = 0
    transfers_completed: int = 0
    transfers_aborted: int = 0
    transfer_bytes_completed: float = 0.0

    def mean_latency(self) -> float:
        """Mean one-way delivery latency over all delivered messages."""
        if self.delivered == 0:
            return 0.0
        return self.total_latency / self.delivered


class _LatencyPool:
    """A block of pre-drawn latencies for one latency class.

    ``values`` is a plain Python list (``ndarray.tolist()``), so the
    per-message pop is a C-level list index instead of a NumPy scalar
    extraction.  Refills draw :data:`LATENCY_POOL_SIZE` samples at once from
    the pool's dedicated stream.
    """

    __slots__ = ("model", "rng", "values", "index")

    def __init__(self, model: LatencyModel, rng: np.random.Generator) -> None:
        self.model = model
        self.rng = rng
        self.values: List[float] = []
        self.index = 0

    def next(self) -> float:
        index = self.index
        values = self.values
        if index >= len(values):
            values = self.model.sample_many(self.rng, LATENCY_POOL_SIZE).tolist()
            self.values = values
            index = 0
        self.index = index + 1
        return values[index]


class NetworkFabric:
    """Delivers messages between registered node handlers.

    Parameters
    ----------
    engine:
        Shared simulation engine.
    topology:
        Cluster topology; supplies the latency model per node pair.
    streams:
        Random streams; the fabric uses one ``"network.latency.<class>"``
        stream per latency class, one ``"network.ping.<class>"`` stream per
        class that :meth:`ping` probes, and ``"network.drops"``.
    bandwidth_bytes_per_s:
        Link bandwidth used for the size-dependent component of the delay.
        The default (1 Gbit/s) matches the paper's Gigabit Ethernet testbed.
    drop_probability:
        Probability that any given message is silently dropped.
    delivery:
        ``"coalesced"`` (default) delivers every message after its own
        latency draw; ``"fifo"`` additionally keeps each (src, dst) pair in
        send order.
    bandwidth:
        Optional :class:`~repro.network.transfers.BandwidthConfig` enabling
        shared-link capacity modeling: eligible large payloads become
        fair-share transfers and foreground serialization uses the link's
        residual bandwidth.  ``None`` (default) keeps the constant
        per-message serialization delay.  Can also be enabled later via
        :meth:`enable_bandwidth` (the ``wan_congestion`` fault does this
        lazily).
    """

    DEFAULT_BANDWIDTH = DEFAULT_BANDWIDTH_BYTES_PER_S  # 1 Gbit/s in bytes per second

    DELIVERY_MODES = ("coalesced", "fifo")

    def __init__(
        self,
        engine: SimulationEngine,
        topology: Topology,
        streams: RandomStreams,
        *,
        bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH,
        drop_probability: float = 0.0,
        delivery: str = "coalesced",
        bandwidth: Optional[BandwidthConfig] = None,
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.check_options(drop_probability, delivery)
        self._engine = engine
        self._topology = topology
        self._streams = streams
        self._drop_rng = streams.stream("network.drops")
        self._bandwidth = float(bandwidth_bytes_per_s)
        self._drop_probability = float(drop_probability)
        self._delivery = delivery
        # Mode flag precomputed once; the send hot path branches on a C-level
        # boolean instead of comparing strings per message.
        self._fifo = delivery == "fifo"
        self._handlers: Dict[NodeAddress, Callable[[Message], None]] = {}
        self._next_msg_id = 0
        self.stats = NetworkStats()
        # Latency multiplier applied to every sample; the figure-4(b) latency
        # sweep and failure-injection tests adjust this at run time.
        self._latency_scale = 1.0
        # One pool per latency *class* (Topology.link_class); pairs of the
        # same class share a pool, so pool count stays tiny even on big rings.
        self._pools: Dict[str, _LatencyPool] = {}
        # The send path's pool cache: source -> destination site -> pool
        # (``None`` is the source's own loopback).  A site is a (datacenter,
        # rack) pair, which with the source fixes the link class.
        self._pools_from: Dict[NodeAddress, Dict[Any, _LatencyPool]] = {}
        self._site_of = topology.site_of
        # "fifo" clamp floors: source -> destination -> the last delivery
        # time handed out on that pair.  An entry lives only while the pair
        # has a message in flight; the delivery at the floor's time removes
        # it (see _deliver_in_order), and an emptied inner dict goes too.
        self._floors: Dict[NodeAddress, Dict[NodeAddress, float]] = {}
        # The delivery callback every scheduled message's engine event runs.
        self._arrive = self._deliver_in_order if self._fifo else self._deliver
        #: Monotone counter bumped whenever the partition map changes (a new
        #: partition or a completed heal).  The anti-entropy service compares
        #: epochs to decide when an incremental session can no longer trust
        #: its per-pair sync markers (messages may have been lost) and must
        #: fall back to a full tree exchange.
        self.partition_epoch = 0
        # Active datacenter partitions: ordered DC-pair tuple -> [mode,
        # refcount].  Refcounted so overlapping fault events (an isolation
        # spanning a pairwise partition) compose: the pair only reopens when
        # every partition event that severed it has healed.  Empty in
        # healthy runs, so the hot path pays one falsy check per send.
        self._partitions: Dict[Tuple[str, str], List] = {}
        # Messages parked by "park"-mode partitions, per pair, in send order.
        self._parked: Dict[Tuple[str, str], List[Tuple[Message, Optional[Callable]]]] = {}
        # Asymmetric (one-way) partitions: *ordered* (src_dc, dst_dc) ->
        # [mode, refcount].  Checked only after the symmetric map misses.
        self._oneway: Dict[Tuple[str, str], List] = {}
        self._parked_oneway: Dict[Tuple[str, str], List[Tuple[Message, Optional[Callable]]]] = {}
        # Per-pair packet loss: unordered pair -> probability.  Loss draws
        # come from a dedicated named stream per pair (cached in _loss_rng
        # across enable/disable so re-arming continues the stream), so
        # healthy traffic consumes no randomness from them.
        self._pair_loss: Dict[Tuple[str, str], float] = {}
        self._loss_rng: Dict[Tuple[str, str], np.random.Generator] = {}
        # Per-pair latency multiplier (slow WAN): unordered pair -> scale.
        self._pair_scale: Dict[Tuple[str, str], float] = {}
        # True iff any grey-failure state is active; keeps the send hot path
        # at one falsy check per message in healthy runs.
        self._grey = False
        # Sharded-engine seam: when a remote sink is installed, messages to
        # destinations outside the owned set are handed to the sink (with
        # their already-sampled absolute delivery time) instead of being
        # scheduled locally.  None in single-engine runs, so the hot path
        # pays one falsy check per send.
        self._remote_sink: Optional[Callable[[float, Message], None]] = None
        self._owned: Optional[frozenset] = None
        # Optional op-lifecycle tracer (set by Tracer.attach_cluster); when
        # present, transfer start/end events are emitted through it.
        self.tracer = None
        # Bandwidth modeling (shared-link capacity).  None keeps the
        # constant serialization delay -- the hot path pays one falsy
        # check per sized message.
        self._transfers: Optional[TransferScheduler] = None
        if bandwidth is not None:
            self.enable_bandwidth(bandwidth)

    @classmethod
    def check_options(cls, drop_probability: float, delivery: str) -> None:
        """Reject a drop probability or delivery mode no fabric can run.

        ``ClusterConfig`` calls this too, so a typo fails where the config is
        written and not later where the fabric is built (on the sharded
        engine, inside every forked worker).
        """
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(f"drop_probability must be in [0, 1), got {drop_probability!r}")
        if delivery not in cls.DELIVERY_MODES:
            raise ValueError(f"delivery must be one of {cls.DELIVERY_MODES}, got {delivery!r}")

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, address: NodeAddress, handler: Callable[[Message], None]) -> None:
        """Register the message handler of a node (one handler per address)."""
        if address in self._handlers:
            raise ValueError(f"a handler is already registered for {address}")
        self._handlers[address] = handler

    def unregister(self, address: NodeAddress) -> None:
        """Remove a node's handler (simulates a crashed / removed node)."""
        self._handlers.pop(address, None)

    # ------------------------------------------------------------------
    # Sharded-engine seam (conservative PDES)
    # ------------------------------------------------------------------
    def set_remote_sink(
        self,
        owned: "frozenset[NodeAddress]",
        sink: Callable[[float, Message], None],
    ) -> None:
        """Divert messages leaving the ``owned`` node set to ``sink``.

        The sink receives ``(deliver_at, message)`` where ``deliver_at`` is
        the absolute virtual delivery time the fabric already sampled -- the
        sender-side latency draw, fifo clamp and drop check all happen
        *before* the divert, so a sharded run consumes exactly the same
        random values in exactly the same order as an unsharded run of the
        same shard layout.  The owning shard re-injects the message with
        :meth:`inject_remote`.
        """
        self._remote_sink = sink
        self._owned = frozenset(owned)

    def inject_remote(self, deliver_at: float, message: Message) -> None:
        """Deliver a message handed over by another shard at ``deliver_at``.

        Scheduling through :meth:`SimulationEngine.at` makes the conservative
        window a *hard* guarantee: injecting before the local clock reached
        ``deliver_at`` is fine, but a violation (the clock already past the
        timestamp) raises instead of silently reordering the past.
        """
        self._engine.at(deliver_at, self._deliver, message, None, label="remote_delivery")

    # ------------------------------------------------------------------
    # Latency control (used by sweeps and failure injection)
    # ------------------------------------------------------------------
    @property
    def latency_scale(self) -> float:
        """Multiplier applied to every sampled latency (default 1.0)."""
        return self._latency_scale

    @latency_scale.setter
    def latency_scale(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency scale must be non-negative, got {value!r}")
        self._latency_scale = float(value)

    @property
    def drop_probability(self) -> float:
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, value: float) -> None:
        self.check_options(value, self._delivery)
        self._drop_probability = float(value)

    # ------------------------------------------------------------------
    # Bandwidth modeling (shared-link capacity; see repro.network.transfers)
    # ------------------------------------------------------------------
    @property
    def bandwidth_enabled(self) -> bool:
        """Whether shared-link bandwidth modeling is active."""
        return self._transfers is not None

    @property
    def transfers(self) -> Optional[TransferScheduler]:
        """The active transfer scheduler (``None`` when modeling is off)."""
        return self._transfers

    def enable_bandwidth(self, config: Optional[BandwidthConfig] = None) -> TransferScheduler:
        """Turn on shared-link bandwidth modeling (idempotent).

        Eligible large payloads sent after this call become fair-share
        transfers; messages already in flight are unaffected.  The
        scheduler consumes no randomness, so enabling it mid-run leaves
        the trace byte-identical up to the messages it actually reprices.
        """
        if self._transfers is not None:
            return self._transfers
        self._transfers = TransferScheduler(
            self._engine,
            config if config is not None else BandwidthConfig(
                capacity_bytes_per_s=self._bandwidth
            ),
            deliver=self._deliver_transfer,
            severed=self.is_severed,
            stats=self.stats,
        )
        return self._transfers

    def _deliver_transfer(
        self, message: Message, on_delivered: Optional[Callable], deliver_at: float
    ) -> None:
        """Delivery seam for completed transfers (called by the scheduler):
        honours the sharded-engine remote sink, then delivers through one
        engine event like any other message (a transfer takes no fifo
        clamp, as before)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.transfer_end(message, deliver_at)
        if self._remote_sink is not None and message.dst not in self._owned:
            if on_delivered is not None:
                raise ValueError(
                    f"on_delivered callbacks cannot cross a shard boundary "
                    f"({message.src} -> {message.dst})"
                )
            self._remote_sink(deliver_at, message)
            return
        self._engine.at(
            deliver_at, self._deliver, message, on_delivered, label="transfer_delivery"
        )

    def start_background_transfer(
        self,
        dc_a: str,
        dc_b: str,
        total_bytes: float,
        *,
        rate_cap: Optional[float] = None,
    ) -> int:
        """Inject a background bulk transfer on the unordered DC pair (the
        ``wan_congestion`` fault).  Lazily enables bandwidth modeling with
        defaults when it is off; returns a cancellation handle."""
        self._check_dcs(dc_a, dc_b)
        scheduler = self.enable_bandwidth()
        handle = scheduler.start_background(dc_a, dc_b, total_bytes, rate_cap=rate_cap)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "transfer.background",
                pair=TransferScheduler.pair_key(dc_a, dc_b),
                bytes=total_bytes,
                rate_cap=rate_cap,
            )
        return handle

    def cancel_background_transfer(self, handle: int) -> float:
        """Abort an injected background transfer; returns bytes left
        unstreamed (0.0 when already complete or unknown)."""
        if self._transfers is None:
            return 0.0
        return self._transfers.cancel_background(handle)

    def set_transfer_group_cap(self, group: str, cap: Optional[float]) -> None:
        """Cap a transfer group's aggregate rate on every link (``None``
        clears); requires bandwidth modeling to be enabled."""
        if self._transfers is None:
            raise ValueError("bandwidth modeling is not enabled")
        self._transfers.set_group_cap(group, cap)

    def transfer_group_cap(self, group: str) -> Optional[float]:
        return self._transfers.group_cap(group) if self._transfers is not None else None

    def transfer_backlog_bytes(self, dc_a: Optional[str] = None, dc_b: Optional[str] = None) -> float:
        """Unstreamed transfer bytes on one DC pair (or all links)."""
        if self._transfers is None:
            return 0.0
        return self._transfers.backlog_bytes(dc_a, dc_b)

    def transfer_drain_estimate(self, dc_a: str, dc_b: str) -> float:
        """Seconds to stream the pair's backlog at full capacity."""
        if self._transfers is None:
            return 0.0
        return self._transfers.drain_estimate(dc_a, dc_b)

    def transfer_utilization(self) -> Dict[str, float]:
        """Per-link ``∫ utilization dt`` so far (empty when modeling off)."""
        if self._transfers is None:
            return {}
        return self._transfers.utilization_integrals()

    def active_transfer_count(
        self, dc_a: Optional[str] = None, dc_b: Optional[str] = None
    ) -> int:
        if self._transfers is None:
            return 0
        return self._transfers.active_count(dc_a, dc_b)

    # ------------------------------------------------------------------
    # Datacenter partitions (fault injection)
    # ------------------------------------------------------------------
    PARTITION_MODES = ("drop", "park")

    @staticmethod
    def _pair_key(dc_a: str, dc_b: str) -> Tuple[str, str]:
        return (dc_a, dc_b) if dc_a <= dc_b else (dc_b, dc_a)

    def partition_datacenters(self, dc_a: str, dc_b: str, *, mode: str = "drop") -> None:
        """Sever the WAN between two datacenters.

        ``mode="drop"`` loses blocked messages outright (a hard partition:
        the sender's timeouts, hints and anti-entropy must repair the
        damage).  ``mode="park"`` buffers them inside the fabric and releases
        them when the pair is healed -- a link that stalls but does not lose
        data.  Intra-DC traffic and other DC pairs are unaffected.
        Partitions are refcounted: partitioning an already-severed pair
        updates the mode (parked messages stay parked) and requires one
        more heal before the pair reopens, so overlapping fault events
        compose instead of the first heal reopening everyone's cut.
        """
        if mode not in self.PARTITION_MODES:
            raise ValueError(f"mode must be one of {self.PARTITION_MODES}, got {mode!r}")
        if dc_a == dc_b:
            raise ValueError(f"cannot partition a datacenter from itself ({dc_a!r})")
        known = set(self._topology.datacenter_names)
        for dc in (dc_a, dc_b):
            if dc not in known:
                raise ValueError(f"unknown datacenter {dc!r}; topology has {sorted(known)}")
        pair = self._pair_key(dc_a, dc_b)
        entry = self._partitions.get(pair)
        if entry is None:
            self._partitions[pair] = [mode, 1]
        else:
            entry[0] = mode
            entry[1] += 1
        self.partition_epoch += 1
        self._parked.setdefault(pair, [])
        if self._transfers is not None:
            self._transfers.on_partition(dc_a, dc_b, mode)

    def heal_datacenters(self, dc_a: str, dc_b: str) -> int:
        """Undo one partition of a DC pair.

        The pair reopens (and parked messages are released, each
        re-scheduled like a fresh send from the heal instant) only when
        every partition event that severed it has
        healed.  Returns the number of messages released (0 for drop-mode,
        unknown pairs, or a pair still held by another partition event);
        a message whose direction an asymmetric partition still severs is
        handed to that partition instead (see :meth:`_release`).
        """
        pair = self._pair_key(dc_a, dc_b)
        entry = self._partitions.get(pair)
        if entry is None:
            return 0
        entry[1] -= 1
        if entry[1] > 0:
            return 0
        del self._partitions[pair]
        self.partition_epoch += 1
        if self._transfers is not None:
            self._transfers.on_heal(dc_a, dc_b)
        return self._release(self._parked.pop(pair, []))

    def _release(self, parked: List[Tuple[Message, Optional[Callable]]]) -> int:
        """Re-admit the messages a healed partition had parked; returns how
        many were scheduled for delivery.

        Each one passes the partition check :meth:`send` applies, because the
        other kind of partition may still sever its direction (a one-way cut
        under the healed symmetric one, or the reverse): that blocker parks
        it again (merged in send order, ``msg_id``: it may predate what the
        blocker holds, and a ``fifo`` pair must see the older one first) or
        drops it.  The message is already in ``sent`` and ``blocked``; a second
        blocker shows in its own ``blocked_by_pair`` key.
        """
        stats = self.stats
        stats.parked -= len(parked)
        datacenter_of = self._topology.datacenter_of
        released = 0
        for message, on_delivered in parked:
            direction = (datacenter_of(message.src), datacenter_of(message.dst))
            pair = self._pair_key(*direction)
            entry = self._partitions.get(pair)
            if entry is not None:
                held, key = self._parked[pair], f"{pair[0]}|{pair[1]}"
            else:
                entry = self._oneway.get(direction)
                if entry is None:
                    self._schedule_delivery(message, on_delivered)
                    released += 1
                    continue
                held, key = self._parked_oneway[direction], f"{direction[0]}->{direction[1]}"
            stats.blocked_by_pair[key] += 1
            if entry[0] == "park":
                insort(held, (message, on_delivered), key=lambda item: item[0].msg_id)
                stats.parked += 1
            else:
                stats.dropped += 1
        return released

    def heal_all_partitions(self) -> int:
        """Fully heal every active partition, symmetric and asymmetric (all
        refcounts drained); returns total parked messages released."""
        released = 0
        for pair in list(self._partitions):
            while pair in self._partitions:
                released += self.heal_datacenters(*pair)
        for pair in list(self._oneway):
            while pair in self._oneway:
                released += self.heal_datacenters_oneway(*pair)
        return released

    def is_partitioned(self, dc_a: str, dc_b: str) -> bool:
        """Whether the unordered DC pair is currently severed."""
        return self._pair_key(dc_a, dc_b) in self._partitions

    @property
    def has_partitions(self) -> bool:
        """Whether any DC partition (symmetric or asymmetric) is active
        (cheap liveness-precheck guard)."""
        return bool(self._partitions or self._oneway)

    def partitioned_pairs(self) -> List[Tuple[str, str]]:
        """Active symmetric partitions as sorted ordered pairs."""
        return sorted(self._partitions)

    # ------------------------------------------------------------------
    # Grey failures (chaos injection)
    # ------------------------------------------------------------------
    def _check_dcs(self, dc_a: str, dc_b: str) -> None:
        if dc_a == dc_b:
            raise ValueError(f"need two distinct datacenters, got {dc_a!r} twice")
        known = set(self._topology.datacenter_names)
        for dc in (dc_a, dc_b):
            if dc not in known:
                raise ValueError(f"unknown datacenter {dc!r}; topology has {sorted(known)}")

    def _sync_grey(self) -> None:
        self._grey = bool(self._oneway or self._pair_loss or self._pair_scale)

    def partition_datacenters_oneway(self, src_dc: str, dst_dc: str, *, mode: str = "drop") -> None:
        """Sever one WAN *direction*: ``src_dc -> dst_dc`` traffic is blocked
        while the reverse direction keeps flowing.

        Semantics mirror :meth:`partition_datacenters` (drop vs park,
        refcounting), but the key is the ordered direction.  A symmetric
        partition of the same pair takes precedence while it is active.
        """
        if mode not in self.PARTITION_MODES:
            raise ValueError(f"mode must be one of {self.PARTITION_MODES}, got {mode!r}")
        self._check_dcs(src_dc, dst_dc)
        direction = (src_dc, dst_dc)
        entry = self._oneway.get(direction)
        if entry is None:
            self._oneway[direction] = [mode, 1]
        else:
            entry[0] = mode
            entry[1] += 1
        self.partition_epoch += 1
        self._parked_oneway.setdefault(direction, [])
        self._grey = True
        if self._transfers is not None:
            self._transfers.on_partition_oneway(src_dc, dst_dc, mode)

    def heal_datacenters_oneway(self, src_dc: str, dst_dc: str) -> int:
        """Undo one asymmetric partition of the ``src_dc -> dst_dc``
        direction; returns parked messages released (see
        :meth:`heal_datacenters`)."""
        direction = (src_dc, dst_dc)
        entry = self._oneway.get(direction)
        if entry is None:
            return 0
        entry[1] -= 1
        if entry[1] > 0:
            return 0
        del self._oneway[direction]
        self.partition_epoch += 1
        self._sync_grey()
        if self._transfers is not None:
            self._transfers.on_heal(src_dc, dst_dc)
        return self._release(self._parked_oneway.pop(direction, []))

    def is_partitioned_oneway(self, src_dc: str, dst_dc: str) -> bool:
        """Whether the ordered ``src_dc -> dst_dc`` direction has an active
        asymmetric partition."""
        return (src_dc, dst_dc) in self._oneway

    def is_severed(self, src_dc: str, dst_dc: str) -> bool:
        """Whether traffic from ``src_dc`` to ``dst_dc`` is currently blocked
        by any partition, symmetric or asymmetric (directional query)."""
        if src_dc == dst_dc:
            return False
        return (
            self._pair_key(src_dc, dst_dc) in self._partitions
            or (src_dc, dst_dc) in self._oneway
        )

    def oneway_partitioned_pairs(self) -> List[Tuple[str, str]]:
        """Active asymmetric partitions as sorted (src_dc, dst_dc) pairs."""
        return sorted(self._oneway)

    def set_pair_loss(self, dc_a: str, dc_b: str, probability: float) -> None:
        """Drop each message crossing the unordered DC pair with
        ``probability``; 0.0 clears the loss.

        Draws come from the pair's own ``network.loss.<a>|<b>`` stream, so
        which messages die is a deterministic function of the seed and the
        pair's traffic order alone.  Losses count into ``stats.dropped``
        (which the incremental anti-entropy distrust guard watches) and
        ``stats.lost_by_pair``.
        """
        if not 0.0 <= probability < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {probability!r}")
        self._check_dcs(dc_a, dc_b)
        pair = self._pair_key(dc_a, dc_b)
        if probability == 0.0:
            self._pair_loss.pop(pair, None)
        else:
            self._pair_loss[pair] = float(probability)
            if pair not in self._loss_rng:
                self._loss_rng[pair] = self._streams.stream(
                    f"network.loss.{pair[0]}|{pair[1]}"
                )
        self._sync_grey()

    def pair_loss(self, dc_a: str, dc_b: str) -> float:
        """Active loss probability of the unordered DC pair (0.0 if none)."""
        return self._pair_loss.get(self._pair_key(dc_a, dc_b), 0.0)

    def set_pair_latency_scale(self, dc_a: str, dc_b: str, scale: float) -> None:
        """Multiply every sampled latency crossing the unordered DC pair by
        ``scale`` (slow WAN); 1.0 clears the scaling.

        Applies to the propagation term only, not the bandwidth term, and
        composes multiplicatively with the global ``latency_scale``.
        """
        if scale <= 0:
            raise ValueError(f"latency scale must be positive, got {scale!r}")
        self._check_dcs(dc_a, dc_b)
        pair = self._pair_key(dc_a, dc_b)
        if scale == 1.0:
            self._pair_scale.pop(pair, None)
        else:
            self._pair_scale[pair] = float(scale)
        self._sync_grey()
        if self._transfers is not None:
            # A slow WAN narrows the pipe too: scale the link capacity
            # down by the same factor that stretches propagation.
            self._transfers.set_capacity_scale(dc_a, dc_b, scale)

    def pair_latency_scale(self, dc_a: str, dc_b: str) -> float:
        """Active latency multiplier of the unordered DC pair (1.0 if none)."""
        return self._pair_scale.get(self._pair_key(dc_a, dc_b), 1.0)

    def clear_pair_degradations(self) -> None:
        """Clear all per-pair packet loss and latency scaling (used by the
        chaos harness's final force-heal)."""
        self._pair_loss.clear()
        self._pair_scale.clear()
        self._sync_grey()
        if self._transfers is not None:
            self._transfers.clear_capacity_scales()

    def _pair_scale_for(self, src: NodeAddress, dst: NodeAddress) -> float:
        src_dc = self._topology.datacenter_of(src)
        dst_dc = self._topology.datacenter_of(dst)
        if src_dc == dst_dc:
            return 1.0
        return self._pair_scale.get(self._pair_key(src_dc, dst_dc), 1.0)

    @property
    def delivery_mode(self) -> str:
        """The configured delivery mode (``coalesced`` or ``fifo``)."""
        return self._delivery

    # ------------------------------------------------------------------
    # Latency pools
    # ------------------------------------------------------------------
    def _pool_for(
        self, src: NodeAddress, dst: NodeAddress, family: str = "network.latency"
    ) -> _LatencyPool:
        """The latency pool of the pair's link class in one stream family.

        The pool's random stream is ``<family>.<link class>``
        (:meth:`Topology.link_class`), which is also its cache key, so a
        given seed always produces the same pool draws regardless of which
        pair touched the class first.  Data messages draw from the
        ``network.latency`` family, monitoring pings from ``network.ping``.
        """
        name = f"{family}.{self._topology.link_class(src, dst)}"
        pool = self._pools.get(name)
        if pool is None:
            pool = self._pools[name] = _LatencyPool(
                self._topology.latency_model(src, dst), self._streams.stream(name)
            )
        return pool

    def _data_pool(self, src: NodeAddress, dst: NodeAddress) -> _LatencyPool:
        """The pool a ``src -> dst`` message draws from, through the send
        path's cache (which :meth:`send` reads inline)."""
        pools = self._pools_from.get(src)
        if pools is None:
            pools = self._pools_from[src] = {}
        site = self._site_of(dst) if dst != src else None
        pool = pools.get(site)
        if pool is None:
            pool = pools[site] = self._pool_for(src, dst)
        return pool

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def expected_one_way_delay(
        self, src: NodeAddress, dst: NodeAddress, size_bytes: int = 0
    ) -> float:
        """Expected delivery delay (no sampling); used by analytic baselines."""
        model = self._topology.latency_model(src, dst)
        mean = model.mean() * self._latency_scale
        if self._pair_scale:
            mean *= self._pair_scale_for(src, dst)
        return mean + size_bytes / self._bandwidth

    def send(
        self,
        src: NodeAddress,
        dst: NodeAddress,
        kind: str,
        payload: Any,
        *,
        size_bytes: int = 0,
        on_delivered: Optional[Callable[[Message], None]] = None,
    ) -> Message:
        """Send a message; it is delivered to the destination handler later.

        Returns the :class:`Message` immediately (with ``delivered_at`` still
        unset); delivery happens through the event engine.  If the message is
        dropped, the destination never sees it and ``on_delivered`` is not
        called -- exactly like a lost datagram.
        """
        if type(kind) is str:
            kind = _KIND_INTERN.get(kind, kind)
        engine = self._engine
        now = engine._now
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        if type(size_bytes) is not int:
            size_bytes = int(size_bytes)
        message = Message(msg_id, src, dst, kind, payload, size_bytes, now, 0.0)
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes
        stats.per_kind[kind] += 1
        if self._drop_probability and self._drop_rng.random() < self._drop_probability:
            stats.dropped += 1
            return message
        pair_scale = 1.0
        if self._partitions or self._grey:
            src_dc = self._topology.datacenter_of(src)
            dst_dc = self._topology.datacenter_of(dst)
            if src_dc != dst_dc:
                pair = (src_dc, dst_dc) if src_dc <= dst_dc else (dst_dc, src_dc)
                entry = self._partitions.get(pair)
                if entry is not None:
                    stats.blocked += 1
                    stats.blocked_by_pair[f"{pair[0]}|{pair[1]}"] += 1
                    if entry[0] == "park":
                        self._parked[pair].append((message, on_delivered))
                        stats.parked += 1
                    else:
                        stats.dropped += 1
                    return message
                if self._oneway:
                    entry = self._oneway.get((src_dc, dst_dc))
                    if entry is not None:
                        stats.blocked += 1
                        stats.blocked_by_pair[f"{src_dc}->{dst_dc}"] += 1
                        if entry[0] == "park":
                            self._parked_oneway[(src_dc, dst_dc)].append(
                                (message, on_delivered)
                            )
                            stats.parked += 1
                        else:
                            stats.dropped += 1
                        return message
                if self._pair_loss:
                    loss = self._pair_loss.get(pair)
                    if loss is not None and self._loss_rng[pair].random() < loss:
                        stats.dropped += 1
                        stats.lost_by_pair[f"{pair[0]}|{pair[1]}"] += 1
                        return message
                if self._pair_scale:
                    pair_scale = self._pair_scale.get(pair, 1.0)

        pools = self._pools_from.get(src)
        pool = (
            pools.get(self._site_of(dst) if dst != src else None)
            if pools is not None
            else None
        )
        if pool is None:
            pool = self._data_pool(src, dst)
        # Inlined _LatencyPool.next() fast path (one list index).
        index = pool.index
        values = pool.values
        if index < len(values):
            pool.index = index + 1
            latency = values[index]
        else:
            latency = pool.next()
        if pair_scale != 1.0:
            latency *= pair_scale
        delay = latency * self._latency_scale
        if size_bytes:
            if self._transfers is None:
                delay += size_bytes / self._bandwidth
            else:
                delay = self._sized_delay(message, on_delivered, delay)
                if delay is None:
                    return message
        deliver_at = now + delay
        if self._fifo:
            # In-order pairs: a message never overtakes the one before it.
            floors = self._floors.get(src)
            if floors is None:
                self._floors[src] = {dst: deliver_at}
            else:
                floor = floors.get(dst)
                if floor is not None and deliver_at < floor:
                    deliver_at = floor
                floors[dst] = deliver_at
        if self._remote_sink is not None and dst not in self._owned:
            # The latency draw (and fifo clamp) above already happened, so
            # shard-local RNG state evolves identically whether or not the
            # destination is remote.  The clamp entry stays at the sender.
            if on_delivered is not None:
                raise ValueError(
                    f"on_delivered callbacks cannot cross a shard boundary ({src} -> {dst})"
                )
            self._remote_sink(deliver_at, message)
            return message
        # One engine event per message, no closure (args ride on the event);
        # the engine's event construction is inlined because this runs once
        # per message.
        free = engine._free
        if free:
            event = free.pop()
            event.time = deliver_at
            event.callback = self._arrive
            event.args = (message, on_delivered)
            event.cancelled = False
            event.label = ""
        else:
            event = Event(time=deliver_at, callback=self._arrive, args=(message, on_delivered))
        seq = engine._seq
        engine._seq = seq + 1
        event.seq = seq
        heapq.heappush(engine._queue, (deliver_at, seq, event))
        return message

    def _sized_delay(
        self, message: Message, on_delivered: Optional[Callable[[Message], None]], delay: float
    ) -> Optional[float]:
        """``delay`` plus the size-dependent term under bandwidth modeling;
        ``None`` when the message became a bulk transfer instead."""
        size_bytes = message.size_bytes
        transfers = self._transfers
        if transfers is None:
            return delay + size_bytes / self._bandwidth
        src_dc = self._topology.datacenter_of(message.src)
        dst_dc = self._topology.datacenter_of(message.dst)
        if src_dc == dst_dc:
            return delay + size_bytes / self._bandwidth
        config = transfers.config
        kind = message.kind
        if size_bytes >= config.transfer_threshold_bytes and kind in config.transfer_kinds:
            # Bulk payload: enters the link's fair share; the propagation
            # latency (already sampled, so RNG order matches a modeling-off
            # run) is applied after streaming completes.
            transfer = transfers.submit(
                src_dc,
                dst_dc,
                size_bytes,
                delay,
                message=message,
                on_delivered=on_delivered,
                group=transfers.group_for_kind(kind),
            )
            tracer = self.tracer
            if tracer is not None:
                tracer.transfer_start(message, transfer)
            return None
        # Foreground message on a contended link: serialization runs at the
        # residual (capacity minus transfer share).
        return delay + size_bytes / transfers.foreground_rate(src_dc, dst_dc)

    def _schedule_delivery(
        self, message: Message, on_delivered: Optional[Callable[[Message], None]]
    ) -> None:
        """Schedule delivery of an already-counted message from now.

        Used when parked messages are released on heal: the message draws a
        fresh latency and takes the ``fifo`` clamp like a send from the heal
        instant, so it keeps its place relative to post-heal traffic on the
        same pair.  Mirrors the tail of :meth:`send`, which stays monolithic
        because it is the hot path.
        """
        src, dst = message.src, message.dst
        engine = self._engine
        latency = self._data_pool(src, dst).next()
        if self._pair_scale:
            latency *= self._pair_scale_for(src, dst)
        delay = latency * self._latency_scale
        if message.size_bytes:
            delay = self._sized_delay(message, on_delivered, delay)
            if delay is None:
                return
        deliver_at = engine._now + delay
        if self._fifo:
            floors = self._floors.setdefault(src, {})
            deliver_at = max(deliver_at, floors.get(dst, deliver_at))
            floors[dst] = deliver_at
        if self._remote_sink is not None and dst not in self._owned:
            if on_delivered is not None:
                raise ValueError(
                    f"on_delivered callbacks cannot cross a shard boundary ({src} -> {dst})"
                )
            self._remote_sink(deliver_at, message)
            return
        engine._new_event(deliver_at, self._arrive, "", (message, on_delivered))

    def _deliver_in_order(
        self, message: Message, on_delivered: Optional[Callable[[Message], None]]
    ) -> None:
        """``fifo`` delivery: drop the pair's clamp floor once the clock has
        reached it, then deliver.

        A floor equal to the clock belongs to the pair's last scheduled
        message or to one tied with it; every message still in flight on the
        pair is due no later, and a later send lands at ``now`` or after
        with a larger engine ``seq``, so the floor has nothing left to hold.
        """
        src = message.src
        floors = self._floors.get(src)
        if floors is not None and floors.get(message.dst) == self._engine._now:
            del floors[message.dst]
            if not floors:
                del self._floors[src]
        self._deliver(message, on_delivered)

    def _deliver(self, message: Message, on_delivered: Optional[Callable[[Message], None]]) -> None:
        handler = self._handlers.get(message.dst)
        now = self._engine._now
        message.delivered_at = now
        stats = self.stats
        stats.delivered += 1
        stats.total_latency += now - message.sent_at
        if handler is not None:
            handler(message)
        if on_delivered is not None:
            on_delivered(message)

    # ------------------------------------------------------------------
    # Ping (monitoring support)
    # ------------------------------------------------------------------
    def ping(self, src: NodeAddress, dst: NodeAddress) -> float:
        """Synchronously sample a round-trip time between two nodes.

        The Harmony monitoring module in the paper measures latency with the
        ``ping`` tool, outside the storage data path; we mirror that by
        sampling the latency models directly rather than enqueueing messages,
        from pools of their own (the ``network.ping.<link class>`` streams),
        so monitoring does not perturb the simulated data path: a run's
        messages see the same latencies however often it is pinged.
        """
        return self._ping_delay(src, dst) + self._ping_delay(dst, src)

    def _ping_delay(self, src: NodeAddress, dst: NodeAddress) -> float:
        latency = self._pool_for(src, dst, "network.ping").next() * self._latency_scale
        if self._pair_scale:
            latency *= self._pair_scale_for(src, dst)
        return latency

    def ping_mean(self, src: NodeAddress, dst: NodeAddress) -> float:
        """Expected RTT between two nodes."""
        return 2.0 * self.expected_one_way_delay(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkFabric(nodes={len(self._handlers)}, sent={self.stats.sent}, "
            f"dropped={self.stats.dropped})"
        )
