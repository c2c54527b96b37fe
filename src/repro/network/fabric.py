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
  and the ``fifo`` delivery clamp still guarantees per-link FIFO order.

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
  for a given seed and pool draws never perturb other streams.
* **Per-link delivery queues.**  In the default ``"coalesced"`` mode each
  (src, dst) link keeps its own small heap of in-flight messages and holds at
  most a few engine events (one per "earliest pending delivery"), so the
  global event queue stays small.  The ``"fifo"`` mode additionally clamps
  per-link delivery times to be monotonic -- messages on a link never
  overtake each other, like a TCP connection -- which needs no reordering
  heap at all.  The two modes are two *models*, not two speeds:
  ``"coalesced"`` draws an independent latency per message (the WARS
  assumption of PBS, which the paper-faithful and geo scenarios keep),
  ``"fifo"`` is one TCP connection per peer as in Cassandra 1.0 (the scale
  scenarios).
* **Interned message kinds.**  :class:`MessageKind` is a ``str`` enum, so
  kind dispatch compares interned singletons while remaining ``==``- and
  ``hash``-compatible with the plain strings used by tests and user code.
"""

from __future__ import annotations

import functools
import heapq
from bisect import insort
from collections import Counter, deque
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


class _Link:
    """Delivery state of one directed (src, dst) node pair.

    A link with no message in flight delivers directly through one engine
    event (the fast path), and that is all most links of a wide ring ever do:
    a link is born holding only what the idle path reads.  Once messages
    overlap in flight on the link, the overflow goes through the per-link
    queue -- a heap in "coalesced" mode, a monotonically-timed deque in
    "fifo" mode -- woken by at most a few engine events, which is what keeps
    the global event heap small under per-link bursts.  The queue and its
    wake-up callback are allocated by that first overlap
    (:meth:`NetworkFabric._open_queue`).
    """

    __slots__ = ("pool", "handler", "last_time", "in_flight", "queue", "next_fire", "fire")

    def __init__(self, pool: _LatencyPool, handler: Optional[Callable[[Message], None]]) -> None:
        self.pool = pool
        #: Destination handler resolved once at link creation (kept in sync
        #: by register/unregister); delivery skips the per-message dict
        #: lookup.  ``None`` when the destination has no handler.
        self.handler = handler
        #: Last delivery time handed out in "fifo" mode (clamp floor).
        self.last_time = 0.0
        #: Messages currently in flight on this link (fast path + queued).
        self.in_flight = 0
        #: ``(deliver_at, seq, message, on_delivered)`` entries waiting behind
        #: another message; ``None`` until the link first needs one.
        self.queue: Any = None
        #: Earliest fire time of any engine event scheduled for this link
        #: (None when nothing is scheduled).
        self.next_fire: Optional[float] = None
        #: Pre-bound engine wake-up callback, allocated with the queue.
        self.fire: Optional[Callable[[], None]] = None


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
        stream per latency class and ``"network.drops"``.
    bandwidth_bytes_per_s:
        Link bandwidth used for the size-dependent component of the delay.
        The default (1 Gbit/s) matches the paper's Gigabit Ethernet testbed.
    drop_probability:
        Probability that any given message is silently dropped.
    delivery:
        ``"coalesced"`` (default) batches deliveries per link in sampled
        time order; ``"fifo"`` additionally forces in-order per-link
        delivery.
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
        # One pool per latency *class* (Topology.link_class); links of the
        # same class share a pool, so pool count stays tiny even on big rings.
        self._pools: Dict[str, _LatencyPool] = {}
        # One _Link per directed (src, dst) pair seen so far, as a two-level
        # dict so the per-send lookup needs no key-tuple allocation.
        self._links: Dict[NodeAddress, Dict[NodeAddress, _Link]] = {}
        # Monotonic tie-break for per-link heaps.
        self._link_seq = 0
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
        self._sync_link_handlers(address, handler)

    def unregister(self, address: NodeAddress) -> None:
        """Remove a node's handler (simulates a crashed / removed node)."""
        self._handlers.pop(address, None)
        self._sync_link_handlers(address, None)

    def _sync_link_handlers(
        self, address: NodeAddress, handler: Optional[Callable[[Message], None]]
    ) -> None:
        """Refresh the cached handler on every existing link toward ``address``."""
        for by_dst in self._links.values():
            link = by_dst.get(address)
            if link is not None:
                link.handler = handler

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
        self._engine.at(deliver_at, self._deliver_remote, message, label="remote_delivery")

    def _deliver_remote(self, message: Message) -> None:
        now = self._engine._now
        message.delivered_at = now
        stats = self.stats
        stats.delivered += 1
        stats.total_latency += now - message.sent_at
        handler = self._handlers.get(message.dst)
        if handler is not None:
            handler(message)

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
        engine event exactly like a fast-path message."""
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
        re-scheduled through the normal link machinery from the heal
        instant) only when every partition event that severed it has
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
        blocker holds, and a ``fifo`` link must see the older one first) or
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
    def _pool_for(self, src: NodeAddress, dst: NodeAddress) -> _LatencyPool:
        """The latency pool of the pair's link class.

        The class name (:meth:`Topology.link_class`) is both the pool cache
        key and the suffix of the pool's random stream name, so a given seed
        always produces the same pool draws regardless of which pair touched
        the class first.
        """
        key = self._topology.link_class(src, dst)
        pool = self._pools.get(key)
        if pool is None:
            pool = _LatencyPool(
                self._topology.latency_model(src, dst),
                self._streams.stream(f"network.latency.{key}"),
            )
            self._pools[key] = pool
        return pool

    def _link_for(self, src: NodeAddress, dst: NodeAddress) -> _Link:
        by_dst = self._links.get(src)
        if by_dst is None:
            by_dst = self._links[src] = {}
        link = by_dst.get(dst)
        if link is None:
            link = by_dst[dst] = _Link(self._pool_for(src, dst), self._handlers.get(dst))
        return link

    def _open_queue(self, link: _Link):
        """First overlap on ``link``: give it a queue and its wake-up callback."""
        # functools.partial: called without an interpreter frame of its own,
        # unlike a bridging lambda.
        link.fire = functools.partial(self._fire_link, link)
        queue = link.queue = deque() if self._fifo else []
        return queue

    def link_counts(self) -> Tuple[int, int]:
        """``(links created, links that ever queued a message)``.

        Counted by walking the link table when asked, not on the send path.
        """
        links = [link for by_dst in self._links.values() for link in by_dst.values()]
        return len(links), sum(1 for link in links if link.queue is not None)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def one_way_delay(self, src: NodeAddress, dst: NodeAddress, size_bytes: int = 0) -> float:
        """Sample the delivery delay for one message from ``src`` to ``dst``."""
        latency = self._pool_for(src, dst).next() * self._latency_scale
        if self._pair_scale:
            latency *= self._pair_scale_for(src, dst)
        if size_bytes:
            return latency + size_bytes / self._bandwidth
        return latency

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

        by_dst = self._links.get(src)
        link = by_dst.get(dst) if by_dst is not None else None
        if link is None:
            link = self._link_for(src, dst)
        # Inlined _LatencyPool.next() fast path (one list index).
        pool = link.pool
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
            transfers = self._transfers
            if transfers is None:
                delay += size_bytes / self._bandwidth
            else:
                src_dc = self._topology.datacenter_of(src)
                dst_dc = self._topology.datacenter_of(dst)
                if src_dc == dst_dc:
                    delay += size_bytes / self._bandwidth
                else:
                    config = transfers.config
                    if (
                        size_bytes >= config.transfer_threshold_bytes
                        and kind in config.transfer_kinds
                    ):
                        # Bulk payload: enters the link's fair share; the
                        # propagation latency (already sampled, so RNG
                        # order matches a modeling-off run) is applied
                        # after streaming completes.
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
                        return message
                    # Foreground message on a contended link: serialization
                    # runs at the residual (capacity minus transfer share).
                    delay += size_bytes / transfers.foreground_rate(src_dc, dst_dc)
        deliver_at = now + delay
        if self._fifo:
            # In-order links: a message never overtakes the one before it.
            if deliver_at < link.last_time:
                deliver_at = link.last_time
            link.last_time = deliver_at
        if self._remote_sink is not None and dst not in self._owned:
            # The latency draw (and fifo clamp) above already happened, so
            # shard-local RNG state evolves identically whether or not the
            # destination is remote.
            if on_delivered is not None:
                raise ValueError(
                    f"on_delivered callbacks cannot cross a shard boundary ({src} -> {dst})"
                )
            self._remote_sink(deliver_at, message)
            return message
        in_flight = link.in_flight
        link.in_flight = in_flight + 1
        if in_flight == 0:
            # Fast path: nothing else in flight on this link -- one direct
            # engine event, no queue, no closure (args ride on the event).
            # The engine's event construction is inlined: this runs once per
            # message on idle links, the dominant case on wide rings.
            free = engine._free
            if free:
                event = free.pop()
                event.time = deliver_at
                event.callback = self._deliver_from_link
                event.args = (link, message, on_delivered)
                event.cancelled = False
                event.label = ""
            else:
                event = Event(
                    time=deliver_at,
                    callback=self._deliver_from_link,
                    args=(link, message, on_delivered),
                )
            seq = engine._seq
            engine._seq = seq + 1
            event.seq = seq
            heapq.heappush(engine._queue, (deliver_at, seq, event))
            return message
        seq = self._link_seq
        self._link_seq = seq + 1
        queue = link.queue
        if queue is None:
            queue = self._open_queue(link)
        if self._fifo:
            queue.append((deliver_at, seq, message, on_delivered))
            if link.next_fire is None:
                link.next_fire = deliver_at
                engine._schedule_unhandled_at(deliver_at, link.fire)
        else:  # coalesced
            heapq.heappush(queue, (deliver_at, seq, message, on_delivered))
            # Schedule an engine event only when this message became the new
            # head; a previously scheduled (later) event is left in place and
            # fires harmlessly -- cheaper than cancelling it.
            if link.next_fire is None or deliver_at < link.next_fire:
                link.next_fire = deliver_at
                engine._schedule_unhandled_at(deliver_at, link.fire)
        return message

    def _schedule_delivery(
        self, message: Message, on_delivered: Optional[Callable[[Message], None]]
    ) -> None:
        """Schedule delivery of an already-counted message via the normal
        per-link machinery.

        Used when parked messages are released on heal: routing them through
        the links (instead of straight to :meth:`_deliver`) keeps the
        ``fifo`` mode's in-order guarantee and the per-link queue accounting
        intact relative to post-heal traffic on the same links.  Mirrors the
        tail of :meth:`send`, which stays monolithic because it is the hot
        path.
        """
        src, dst = message.src, message.dst
        engine = self._engine
        now = engine._now
        link = self._link_for(src, dst)
        latency = link.pool.next()
        if self._pair_scale:
            latency *= self._pair_scale_for(src, dst)
        delay = latency * self._latency_scale
        size_bytes = message.size_bytes
        if size_bytes:
            transfers = self._transfers
            if transfers is None:
                delay += size_bytes / self._bandwidth
            else:
                src_dc = self._topology.datacenter_of(src)
                dst_dc = self._topology.datacenter_of(dst)
                if src_dc == dst_dc:
                    delay += size_bytes / self._bandwidth
                else:
                    config = transfers.config
                    if (
                        size_bytes >= config.transfer_threshold_bytes
                        and message.kind in config.transfer_kinds
                    ):
                        transfer = transfers.submit(
                            src_dc,
                            dst_dc,
                            size_bytes,
                            delay,
                            message=message,
                            on_delivered=on_delivered,
                            group=transfers.group_for_kind(message.kind),
                        )
                        tracer = self.tracer
                        if tracer is not None:
                            tracer.transfer_start(message, transfer)
                        return
                    delay += size_bytes / transfers.foreground_rate(src_dc, dst_dc)
        deliver_at = now + delay
        if self._fifo:
            if deliver_at < link.last_time:
                deliver_at = link.last_time
            link.last_time = deliver_at
        if self._remote_sink is not None and message.dst not in self._owned:
            if on_delivered is not None:
                raise ValueError(
                    f"on_delivered callbacks cannot cross a shard boundary "
                    f"({message.src} -> {message.dst})"
                )
            self._remote_sink(deliver_at, message)
            return
        in_flight = link.in_flight
        link.in_flight = in_flight + 1
        if in_flight == 0:
            engine._new_event(deliver_at, self._deliver_from_link, "", (link, message, on_delivered))
            return
        seq = self._link_seq
        self._link_seq = seq + 1
        queue = link.queue
        if queue is None:
            queue = self._open_queue(link)
        if self._fifo:
            queue.append((deliver_at, seq, message, on_delivered))
            if link.next_fire is None:
                link.next_fire = deliver_at
                engine._schedule_unhandled_at(deliver_at, link.fire)
        else:  # coalesced
            heapq.heappush(queue, (deliver_at, seq, message, on_delivered))
            if link.next_fire is None or deliver_at < link.next_fire:
                link.next_fire = deliver_at
                engine._schedule_unhandled_at(deliver_at, link.fire)

    def _deliver_from_link(
        self, link: _Link, message: Message, on_delivered: Optional[Callable[[Message], None]]
    ) -> None:
        """Direct (fast-path) delivery of a message that skipped the queue.

        The delivery bookkeeping is inlined (rather than calling
        :meth:`_deliver`) because this runs once per message on idle links --
        the common case on wide rings.
        """
        link.in_flight -= 1
        now = self._engine._now
        message.delivered_at = now
        stats = self.stats
        stats.delivered += 1
        stats.total_latency += now - message.sent_at
        handler = link.handler
        if handler is not None:
            handler(message)
        if on_delivered is not None:
            on_delivered(message)

    def _fire_link(self, link: _Link) -> None:
        """Deliver every queued message on ``link`` whose time has come."""
        now = self._engine._now
        if link.next_fire is not None and link.next_fire <= now:
            link.next_fire = None
        stats = self.stats
        handler = link.handler
        queue = link.queue
        if self._fifo:
            while queue and queue[0][0] <= now:
                _t, _seq, message, on_delivered = queue.popleft()
                link.in_flight -= 1
                message.delivered_at = now
                stats.delivered += 1
                stats.total_latency += now - message.sent_at
                if handler is not None:
                    handler(message)
                if on_delivered is not None:
                    on_delivered(message)
            if queue and link.next_fire is None:
                head = queue[0][0]
                link.next_fire = head
                self._engine._schedule_unhandled_at(head, link.fire)
            return
        while queue and queue[0][0] <= now:
            _t, _seq, message, on_delivered = heapq.heappop(queue)
            link.in_flight -= 1
            message.delivered_at = now
            stats.delivered += 1
            stats.total_latency += now - message.sent_at
            if handler is not None:
                handler(message)
            if on_delivered is not None:
                on_delivered(message)
        if queue:
            head = queue[0][0]
            if link.next_fire is None or head < link.next_fire:
                link.next_fire = head
                self._engine._schedule_unhandled_at(head, link.fire)

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
        sampling the latency model directly rather than enqueueing messages,
        so monitoring does not perturb the simulated data path.
        """
        return self.one_way_delay(src, dst) + self.one_way_delay(dst, src)

    def ping_mean(self, src: NodeAddress, dst: NodeAddress) -> float:
        """Expected RTT between two nodes."""
        return 2.0 * self.expected_one_way_delay(src, dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkFabric(nodes={len(self._handlers)}, sent={self.stats.sent}, "
            f"dropped={self.stats.dropped})"
        )
