"""A storage node: request queue, worker pool and storage engine.

Each simulated node owns:

* a :class:`~repro.cluster.storage.StorageEngine` holding its replica data;
* a bounded worker pool with a service-time distribution, so requests queue
  when the node is saturated (this is what makes throughput flatten and then
  degrade as the number of closed-loop client threads grows past the cluster
  capacity -- the shape of the paper's Fig. 5(c)/(d));
* a message handler wired into the :class:`~repro.network.fabric.NetworkFabric`
  that serves replica-level read and write requests and replies to the
  coordinator.

Node-level failure injection (downtime and slow-down factors) is included so
tests can exercise hinted handoff and read-repair convergence.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from repro.cluster.stats import NodeCounters
from repro.cluster.storage import Cell, StorageEngine
from repro.network.fabric import Message, MessageKind, NetworkFabric
from repro.network.topology import NodeAddress
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RandomStreams

__all__ = ["NodeConfig", "StorageNode"]

#: The service pool every node starts with.  A refill replaces the pool and
#: nothing writes into one, so a single empty array serves every node that
#: has not yet served a request.
_EMPTY_POOL = array("d")


@dataclass(frozen=True)
class NodeConfig:
    """Performance envelope of a storage node.

    Attributes
    ----------
    concurrency:
        Number of requests the node can serve simultaneously (Cassandra's
        ``concurrent_reads`` / ``concurrent_writes`` thread pools, folded
        into one pool here).
    read_service_time / write_service_time:
        Mean local service time in seconds for a replica-level read / write
        (CPU + storage engine + disk work, excluding network and queueing).
        The defaults (a few milliseconds) reflect the disk-bound Cassandra
        1.0 deployments of the paper's era, where p99 read latencies are in
        the tens of milliseconds (paper Fig. 5).
    digest_service_factor:
        Relative cost of serving a *digest* read (Cassandra sends the full
        data request to the closest replica only and digest requests to the
        others; digests skip most of the row materialisation work).
    service_time_cv:
        Coefficient of variation of the service time (gamma-distributed).
    queue_capacity:
        Maximum number of queued requests before the node sheds load
        (requests beyond this are dropped, surfacing as timeouts upstream).
    """

    concurrency: int = 16
    read_service_time: float = 0.005
    write_service_time: float = 0.0035
    digest_service_factor: float = 0.6
    service_time_cv: float = 0.45
    queue_capacity: int = 8192

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.read_service_time <= 0 or self.write_service_time <= 0:
            raise ValueError("service times must be positive")
        if not 0.0 < self.digest_service_factor <= 1.0:
            raise ValueError("digest_service_factor must be in (0, 1]")
        if self.service_time_cv <= 0:
            raise ValueError("service_time_cv must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


class StorageNode:
    """One replica server participating in the simulated cluster."""

    def __init__(
        self,
        engine: SimulationEngine,
        fabric: NetworkFabric,
        address: NodeAddress,
        config: NodeConfig,
        streams: RandomStreams,
        counters: NodeCounters,
    ) -> None:
        self._engine = engine
        self._fabric = fabric
        self.address = address
        self.config = config
        self.counters = counters
        self.storage = StorageEngine()
        # The node's ``node.<address>.service`` stream is looked up by name at
        # its first service-pool refill: a node that never serves (a spare,
        # most of a wide ring) never creates it.
        self._streams = streams
        self._busy_workers = 0
        # Requests waiting for a worker; born at the node's first saturation,
        # since most nodes of a wide ring never queue one.
        self._queue: Optional[Deque[Message]] = None
        self._up = True
        self._slowdown = 1.0
        # Gamma service time parameters (shape, scale) per request kind.
        cv2 = config.service_time_cv**2
        self._gamma_shape = 1.0 / cv2
        self._read_scale = config.read_service_time * cv2
        self._write_scale = config.write_service_time * cv2
        # Pre-drawn standard-gamma variates (scaled at use time).  NumPy's
        # gamma(shape, scale) is standard_gamma(shape) * scale bit-for-bit,
        # and batched draws consume the bit stream exactly like sequential
        # single draws, so pooling keeps per-node service times identical to
        # per-request sampling while costing an array index instead of a
        # NumPy call on the hot path.  Kept as C doubles, 8 bytes a draw.
        self._service_pool = _EMPTY_POOL
        self._service_index = 0
        # Replica *responses* addressed to this node go, payload only, to
        # the co-located coordinator's two sinks (installed by the owning
        # SimulatedCluster via :meth:`set_response_sinks`); the node itself
        # is the single fabric handler for its address, so delivery needs no
        # intermediate dispatch closure.  Responses are forwarded even while
        # the node is down: a coordinator keeps driving its in-flight
        # operations when its own storage process dies.
        self._read_response_sink: Optional[Callable[[tuple], None]] = None
        self._write_response_sink: Optional[Callable[[tuple], None]] = None
        # Pre-bound hot callable (one attribute hop less per request).
        self._call_at = engine.call_at

    def set_response_sinks(
        self, read_sink: Callable[[tuple], None], write_sink: Callable[[tuple], None]
    ) -> None:
        """Install the co-located coordinator's read and write response sinks."""
        self._read_response_sink = read_sink
        self._write_response_sink = write_sink

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        """Whether the node is currently serving requests."""
        return self._up

    def go_down(self) -> None:
        """Take the node offline: queued and future requests are dropped."""
        self._up = False
        if self._queue:
            self.counters.dropped_mutations += len(self._queue)
            self._queue.clear()

    def come_up(self) -> None:
        """Bring the node back online (data written while down is missing
        until hinted handoff or read repair fills it in)."""
        self._up = True

    @property
    def slowdown(self) -> float:
        """Multiplier applied to every service time (1.0 = nominal speed)."""
        return self._slowdown

    @slowdown.setter
    def slowdown(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"slowdown factor must be positive, got {value!r}")
        self._slowdown = float(value)

    @property
    def queue_depth(self) -> int:
        """Number of requests waiting for a worker."""
        return len(self._queue) if self._queue is not None else 0

    @property
    def busy_workers(self) -> int:
        return self._busy_workers

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    # Hot message payloads are plain tuples (allocation- and hash-free on
    # the read side):
    #   READ_REQUEST   (request_id, key, digest)
    #   WRITE_REQUEST  (request_id, cell)
    #   REPAIR_WRITE   (request_id, cell)
    #   READ_RESPONSE  (request_id, replica, cell)
    #   WRITE_RESPONSE (request_id, replica, is_repair)
    # HINT_REPLAY / REPAIR_STREAM carry the Cell itself as the payload.
    # Worker-pool kinds are dispatched by the explicit comparisons in
    # handle_message (hot-first order); there is no separate kind set to
    # keep in sync.

    def handle_message(self, message: Message) -> None:
        """Entry point registered with the network fabric."""
        kind = message.kind
        if kind == MessageKind.READ_RESPONSE:
            self._read_response_sink(message.payload)
            return
        if kind == MessageKind.WRITE_RESPONSE:
            self._write_response_sink(message.payload)
            return
        if not self._up:
            self.counters.dropped_mutations += 1
            return
        if (
            kind == MessageKind.READ_REQUEST
            or kind == MessageKind.WRITE_REQUEST
            or kind == MessageKind.REPAIR_WRITE
        ):
            if self._busy_workers >= self.config.concurrency:
                queue = self._queue
                if queue is None:
                    queue = self._queue = deque()
                elif len(queue) >= self.config.queue_capacity:
                    self.counters.queue_rejections += 1
                    return
                queue.append(message)
                return
            self._start_service(message)
        elif kind == MessageKind.HINT_REPLAY:
            # Hint replays are applied directly (they are background work and
            # modelled as not competing for the foreground worker pool).
            self.apply_write(message.payload, is_repair=True)
        elif kind == MessageKind.REPAIR_STREAM:
            # Anti-entropy streamed cell: background work like hint replay
            # (is_repair=False: the read_repairs counter is for the read
            # path), counted separately so repair effectiveness is
            # observable.
            self.apply_write(message.payload, is_repair=False)
            self.counters.anti_entropy_cells += 1
        elif kind == MessageKind.RANGE_STREAM:
            # Membership bulk transfer: a batch of cells for a moving range.
            # Background work (no foreground worker), applied newest-wins
            # like any other write; the membership manager drives progress
            # through the on-delivered callback attached to the send.
            for cell in message.payload:
                self.apply_write(cell, is_repair=False)
            self.counters.range_stream_cells += len(message.payload)
        elif kind in (MessageKind.TREE_REQUEST, MessageKind.TREE_RESPONSE):
            # Merkle tree exchange: the anti-entropy service drives its own
            # state machine through delivery callbacks; the node itself has
            # nothing to do beyond having "received" the message.
            pass
        else:  # pragma: no cover - defensive; unknown kinds indicate a bug
            raise ValueError(f"node {self.address} received unknown message kind {message.kind!r}")

    _SERVICE_POOL_SIZE = 512

    def _start_service(self, message: Message) -> None:
        """Claim a worker and schedule the service completion.

        The single home of service-time sampling: one pooled standard-gamma
        draw scaled per request kind (digest reads are cheaper), identical
        bit-for-bit to per-request sampling.
        """
        self._busy_workers += 1
        if message.kind == MessageKind.READ_REQUEST:
            scale = self._read_scale
            if message.payload[2]:  # digest read
                scale *= self.config.digest_service_factor
        else:
            scale = self._write_scale
        index = self._service_index
        pool = self._service_pool
        if index >= len(pool):
            # Refills double from 16 up to the cap: a node that serves a
            # handful of requests never holds 512 pre-drawn doubles.
            size = min(2 * len(pool) or 16, self._SERVICE_POOL_SIZE)
            rng = self._streams.stream(f"node.{self.address}.service")
            pool = array("d", rng.standard_gamma(self._gamma_shape, size=size).tobytes())
            self._service_pool = pool
            index = 0
        self._service_index = index + 1
        # Fire-and-forget: service completions are never cancelled (a node
        # going down is checked inside _finish_service).
        self._call_at(
            self._engine.now + pool[index] * scale * self._slowdown,
            self._finish_service,
            message,
        )

    def _finish_service(self, message: Message) -> None:
        self._busy_workers -= 1
        if self._up:
            # Inlined request serving (historically a separate _serve call).
            payload = message.payload
            kind = message.kind
            if kind == MessageKind.READ_REQUEST:
                cell = self.storage.read(payload[1])
                self.counters.reads_served += 1
                self._fabric.send(
                    self.address,
                    message.src,
                    MessageKind.READ_RESPONSE,
                    (payload[0], self.address, cell),
                    size_bytes=cell.size_bytes if cell is not None else 64,
                )
            elif kind == MessageKind.WRITE_REQUEST or kind == MessageKind.REPAIR_WRITE:
                is_repair = kind == MessageKind.REPAIR_WRITE
                cell = payload[1]
                self.apply_write(cell, is_repair=is_repair)
                self._fabric.send(
                    self.address,
                    message.src,
                    MessageKind.WRITE_RESPONSE,
                    (payload[0], self.address, is_repair),
                    size_bytes=64,
                )
        # Pull the next queued request, if any.
        queue = self._queue
        while queue and self._busy_workers < self.config.concurrency:
            self._start_service(queue.popleft())

    def apply_write(self, cell: Cell, *, is_repair: bool = False) -> None:
        self.storage.apply(cell)
        self.counters.writes_applied += 1
        if is_repair:
            self.counters.read_repairs += 1

    # ------------------------------------------------------------------
    # Local inspection (no simulated cost; used by auditors and tests)
    # ------------------------------------------------------------------
    def peek(self, key: str) -> Optional[Cell]:
        """Current newest cell for ``key`` on this replica, without cost."""
        return self.storage.peek(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._up else "down"
        return f"StorageNode({self.address}, {state}, busy={self._busy_workers})"
