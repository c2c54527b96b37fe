"""Cross-datacenter anti-entropy: Merkle-style repair between site pairs.

Background write propagation plus the occasional global read-repair round
converge *hot* keys quickly, but a key that is never re-read or re-written
after a failure can stay divergent across sites indefinitely.  Cassandra
closes that gap with ``nodetool repair``: replicas build Merkle trees over
their token ranges, exchange them, and stream the data of every range whose
hashes differ.  This module reproduces that mechanism at datacenter
granularity -- the level the geo subsystem cares about -- as a periodic
background process.

One repair **session** for a DC pair ``(A, B)``:

1. an initiator node in ``A`` sends a small ``TREE_REQUEST`` to a partner
   node in ``B`` (both chosen round-robin among live nodes, deterministic);
2. on delivery the partner snapshots ``B``'s per-key newest versions, folds
   them into a coarse :class:`MerkleTree` over the token space, and answers
   with a ``TREE_RESPONSE`` sized like the serialized tree (leaf count x
   digest size) -- the WAN cost of comparing datacenters;
3. on delivery the initiator builds ``A``'s tree, diffs the leaves, and for
   every key falling in a differing range streams the newest cell to each
   replica (in either site) that is behind, as ``REPAIR_STREAM`` messages
   whose sizes are the cell sizes -- the WAN cost of convergence.

Tree *construction* is instantaneous (zero simulated cost), mirroring how
the monitoring module samples counters out-of-band; what the simulation
accounts for is the **traffic**: every byte of tree exchange and streaming
crosses the fabric, is delayed by the WAN latency models, is subject to
partitions and is tallied per DC pair.  That per-pair tally
(:meth:`AntiEntropyService.traffic_by_pair`, :meth:`AntiEntropyService.wan_traffic_bytes`)
is the one account of repair traffic: the adaptive repair scheduler reads
it, and ``benchmarks/bench_repair.py`` trades it off against the stale rate.

Incremental repair (the default, ``AntiEntropyConfig.incremental``)
-------------------------------------------------------------------
Re-hashing the full keyspace per session costs O(keyspace) CPU and a full
leaf vector per exchange even when *nothing changed*.  Instead, every
storage engine flags the keys it mutates (``StorageEngine.dirty_keys``; all
mutations funnel through ``apply``), and the service keeps one persistent
:class:`_TreeCache` per datacenter: refreshing it drains the dirty sets and
re-folds only the touched keys, stamping changed leaves with a monotone
version.  A session then exchanges only the leaves either side saw change
since the pair's last completed session (per-pair markers in
:class:`_PairSync`), and streams only the keys of differing leaves via the
cache's inverse leaf -> keys index -- O(changed keys) end to end.

Safety falls back to a **full** exchange whenever the markers cannot be
trusted: the pair's first session, a liveness change in either site (a
node's data joining or leaving the view is not derivable from dirty flags)
and any fabric partition epoch change (messages -- including this
service's own streams -- may have been lost).  A session interrupted by a
partition simply stalls (its messages were dropped or parked); the service
notices at a later tick and starts a fresh session, so repair resumes
automatically after heal, exactly like re-running ``nodetool repair``.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.cluster.storage import Cell
from repro.network.fabric import MessageKind
from repro.network.topology import NodeAddress
from repro.sim.background import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import SimulatedCluster

__all__ = ["MerkleTree", "AntiEntropyConfig", "AntiEntropyService", "RepairPairStats"]

_EMPTY_SET: frozenset = frozenset()


def _key_digest(key: str, timestamp: float, value_id: int) -> int:
    """Stable 64-bit digest of one (key, version) pair."""
    payload = f"{key}\x00{timestamp!r}\x00{value_id}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


class MerkleTree:
    """A coarse hash tree over the token space.

    ``2**depth`` leaves partition the 64-bit token space into equal ranges;
    each leaf holds the XOR of the digests of every (key, newest-version)
    pair whose token falls in the range.  XOR folding is order-independent,
    so two datacenters that store the same versions build identical leaves
    regardless of iteration order.  Only the leaf vector is compared (the
    classic interior-node walk saves bandwidth on huge trees; at datacenter
    granularity the whole vector is a few KB and one round trip).
    """

    __slots__ = ("depth", "leaves")

    def __init__(self, depth: int, leaves: Optional[List[int]] = None) -> None:
        if depth < 1 or depth > 16:
            raise ValueError(f"depth must be in [1, 16], got {depth!r}")
        self.depth = depth
        self.leaves: List[int] = leaves if leaves is not None else [0] * (1 << depth)
        if len(self.leaves) != (1 << depth):
            raise ValueError(
                f"depth {depth} needs {1 << depth} leaves, got {len(self.leaves)}"
            )

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def leaf_of(self, token: int) -> int:
        """Leaf index owning a 64-bit token."""
        return token >> (64 - self.depth)

    def add(self, token: int, key: str, timestamp: float, value_id: int) -> None:
        """Fold one (key, version) pair into its leaf."""
        self.leaves[token >> (64 - self.depth)] ^= _key_digest(key, timestamp, value_id)

    @classmethod
    def build(
        cls,
        view: Mapping[str, Cell],
        token_of,
        depth: int,
    ) -> "MerkleTree":
        """Build a tree from a key -> newest-cell view (``token_of`` hashes keys)."""
        tree = cls(depth)
        leaves = tree.leaves
        shift = 64 - depth
        for key, cell in view.items():
            leaves[token_of(key) >> shift] ^= _key_digest(key, cell.timestamp, cell.value_id)
        return tree

    def root(self) -> int:
        """A digest of the whole tree (equal roots => equal leaf vectors)."""
        h = hashlib.blake2b(digest_size=8)
        for leaf in self.leaves:
            h.update(leaf.to_bytes(8, "little"))
        return int.from_bytes(h.digest(), "little")

    def diff(self, other: "MerkleTree") -> List[int]:
        """Indices of leaves whose hashes differ (depths must match)."""
        if self.depth != other.depth:
            raise ValueError(
                f"cannot diff trees of different depths ({self.depth} vs {other.depth})"
            )
        mine = self.leaves
        theirs = other.leaves
        return [index for index in range(len(mine)) if mine[index] != theirs[index]]

    def serialized_size(self, digest_size_bytes: int) -> int:
        """Bytes on the wire for one tree exchange."""
        return self.n_leaves * int(digest_size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        populated = sum(1 for leaf in self.leaves if leaf)
        return f"MerkleTree(depth={self.depth}, populated_leaves={populated})"


#: Merkle tree depth; ``2**TREE_DEPTH`` token ranges per tree.  Deeper trees
#: localize differences better (less over-streaming) at the cost of a bigger
#: tree exchange -- the classic repair trade-off.
TREE_DEPTH = 6
#: Wire size of one leaf digest (Cassandra uses 16-32 byte hashes).
DIGEST_SIZE_BYTES = 32
#: Wire size of the initial tree request.
REQUEST_SIZE_BYTES = 64
#: Wire size of one leaf *index* in an incremental exchange (requests name
#: their dirty leaves; responses carry ``(index, digest)`` pairs).
LEAF_INDEX_SIZE_BYTES = 2


@dataclass(frozen=True)
class AntiEntropyConfig:
    """Tunables of the cross-DC repair process.

    Attributes
    ----------
    interval:
        Virtual seconds between repair ticks.  Each tick starts one session
        per *due* DC pair (pairs are staggered inside the tick only by
        message latency, not by extra delay).  The interval doubles as every
        pair's initial cadence; a controller may retune individual pairs at
        run time through :meth:`AntiEntropyService.set_pair_interval` (the
        adaptive repair-scheduling policy does), in which case this value is
        the base tick driving the due-checks and should be the smallest
        cadence any pair may reach.  Every unordered DC pair of the
        cluster's topology is repaired.
    incremental:
        ``True`` (default) runs **incremental** repair: each datacenter
        keeps a persistent tree cache updated from per-key dirty flags, and
        a session only exchanges leaves that changed since the pair's last
        completed session -- O(changed keys) hashing and wire bytes in
        steady state.  ``False`` reproduces the original full-keyspace
        behaviour (every session re-hashes everything and ships the whole
        leaf vector), kept as the measurable baseline.
    """

    interval: float = 5.0
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("repair interval must be positive")


@dataclass
class RepairPairStats:
    """Cumulative repair accounting for one unordered DC pair.

    ``bytes_sent`` is the pair's **WAN** cost: tree exchange plus streamed
    cells whose source and target sit in different datacenters.  Streams
    that happen to repair a replica inside the source's own site still
    count in ``cells_streamed`` but ride the LAN and are excluded from the
    WAN byte tally.  ``leaves_exchanged`` counts the leaf digests that
    crossed the WAN (the whole vector per session in full mode, only the
    changed leaves in incremental mode); ``full_sessions`` counts sessions
    that could not use incremental markers (first contact, liveness change,
    partition epoch change).
    """

    sessions_started: int = 0
    sessions_completed: int = 0
    ranges_diffed: int = 0
    cells_streamed: int = 0
    bytes_sent: int = 0
    leaves_exchanged: int = 0
    full_sessions: int = 0
    #: Times a stream batch was deferred because the pair's link backlog
    #: exceeded the service's ``stream_backlog_limit`` (bandwidth modeling).
    stream_deferrals: int = 0
    last_session_at: float = -1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "sessions_started": self.sessions_started,
            "sessions_completed": self.sessions_completed,
            "ranges_diffed": self.ranges_diffed,
            "cells_streamed": self.cells_streamed,
            "bytes_sent": self.bytes_sent,
            "leaves_exchanged": self.leaves_exchanged,
            "full_sessions": self.full_sessions,
            "stream_deferrals": self.stream_deferrals,
        }


class _TreeCache:
    """Persistent per-datacenter Merkle state for incremental repair.

    ``view`` is the datacenter's key -> newest-cell map across its live
    replicas; ``leaves`` the XOR-folded leaf hashes over it; ``leaf_version``
    a monotone per-leaf change stamp (against which per-pair sync markers
    compare); ``keys_by_leaf`` the inverse index that makes streaming a
    differing leaf O(keys in that leaf).  A liveness change invalidates the
    whole cache (a node's data joining or leaving the view cannot be
    derived from dirty flags).
    """

    __slots__ = ("view", "leaves", "leaf_version", "version", "liveness", "keys_by_leaf")

    def __init__(self, n_leaves: int) -> None:
        self.view: Dict[str, Cell] = {}
        self.leaves: List[int] = [0] * n_leaves
        self.leaf_version: List[int] = [0] * n_leaves
        self.version = 0
        self.liveness: Tuple[NodeAddress, ...] = ()
        self.keys_by_leaf: Dict[int, set] = {}


class _PairSync:
    """Incremental-exchange markers of one DC pair.

    ``initiator_seen`` / ``partner_seen`` are the tree-cache versions up to
    which both sides' leaves have been mutually compared; ``epoch`` is the
    fabric partition epoch the markers are valid for.  ``-1`` forces a full
    exchange.
    """

    __slots__ = ("initiator_seen", "partner_seen", "epoch")

    def __init__(self) -> None:
        self.initiator_seen = -1
        self.partner_seen = -1
        self.epoch = -1


class _Session:
    """In-flight state of one repair session (initiator side)."""

    __slots__ = (
        "pair",
        "initiator",
        "partner",
        "partner_tree",
        "started_at",
        "full",
        "requested_leaves",
        "initiator_version",
        "partner_version",
        "epoch_at_start",
        "drops_at_start",
        "response_leaves",
    )

    def __init__(
        self,
        pair: Tuple[str, str],
        initiator: NodeAddress,
        partner: NodeAddress,
        started_at: float,
    ) -> None:
        self.pair = pair
        self.initiator = initiator
        self.partner = partner
        self.partner_tree: Optional[MerkleTree] = None
        self.started_at = started_at
        # Incremental-mode state.
        self.full = True
        self.requested_leaves: Optional[Tuple[int, ...]] = None
        self.initiator_version = -1
        self.partner_version = -1
        self.epoch_at_start = -1
        self.drops_at_start = -1
        self.response_leaves: Optional[Dict[int, int]] = None


class AntiEntropyService:
    """Periodic Merkle repair between datacenter pairs.

    Build with a cluster (typically via
    :meth:`SimulatedCluster.start_anti_entropy`), :meth:`start` it, and stop
    it before draining the engine.  All scheduling is deterministic: session
    endpoints rotate round-robin over live nodes and no randomness is
    consumed, so enabling repair does not perturb any other random stream.
    """

    def __init__(
        self, cluster: "SimulatedCluster", config: Optional[AntiEntropyConfig] = None
    ) -> None:
        self.cluster = cluster
        self.config = config or AntiEntropyConfig()
        names = cluster.topology.datacenter_names
        self._pairs: List[Tuple[str, str]] = [
            (a, b) if a <= b else (b, a) for a, b in itertools.combinations(names, 2)
        ]
        if not self._pairs:
            raise ValueError("anti-entropy needs at least two datacenters")
        self.stats: Dict[Tuple[str, str], RepairPairStats] = {
            pair: RepairPairStats() for pair in self._pairs
        }
        #: Per-pair repair cadence; starts at ``config.interval`` everywhere
        #: and is retuned at run time by the adaptive scheduling policy.
        self._pair_interval: Dict[Tuple[str, str], float] = {
            pair: self.config.interval for pair in self._pairs
        }
        self._sessions: Dict[Tuple[str, str], _Session] = {}
        self._rotation: Dict[str, int] = {name: 0 for name in names}
        self._process: Optional[PeriodicProcess] = None
        # Incremental-repair state: one persistent tree cache per DC that
        # participates in a pair, one sync-marker pair per DC pair, and
        # per-DC cache accounting (what the dirty-range tests assert on).
        self._caches: Dict[str, _TreeCache] = {}
        self._pair_sync: Dict[Tuple[str, str], _PairSync] = {
            pair: _PairSync() for pair in self._pairs
        }
        self.cache_stats: Dict[str, Dict[str, int]] = {
            dc: {"keys_rehashed": 0, "full_rebuilds": 0, "refreshes": 0}
            for dc in sorted({name for pair in self._pairs for name in pair})
        }
        #: The cluster's op-lifecycle tracer (see :mod:`repro.obs.tracer`):
        #: completed sessions are mirrored into the trace.
        self.tracer = cluster.tracer
        #: Physical repair backpressure (set by ``RepairSchedulePolicy``
        #: when the fabric models bandwidth): while a pair's unstreamed
        #: transfer backlog is at or above this many bytes,
        #: :meth:`_stream_keys` defers the rest of its batch instead of
        #: flooding the link.  ``None`` disables pacing.
        self.stream_backlog_limit: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, *, initial_delay: Optional[float] = None) -> None:
        """Begin the periodic repair ticks (one session per pair per tick)."""
        if self._process is not None and self._process.running:
            raise RuntimeError("anti-entropy service already started")
        self._process = PeriodicProcess(
            self.cluster.engine,
            self.config.interval,
            self._tick,
            name="anti-entropy",
            initial_delay=initial_delay,
        )

    def stop(self) -> None:
        """Stop ticking (in-flight session messages still drain normally)."""
        if self._process is not None:
            self._process.stop()

    def invalidate_caches(self) -> None:
        """Drop the persistent tree caches and force full exchanges.

        Called after a ring membership change: the per-DC views fold cells
        per *placement*, and the incremental sync markers assume the leaves
        kept meaning the same ranges.  Neither survives a topology change
        (liveness tracking alone cannot detect one -- the same nodes may be
        up while owning different ranges).
        """
        self._caches.clear()
        for sync in self._pair_sync.values():
            sync.initiator_seen = -1
            sync.partner_seen = -1

    @property
    def running(self) -> bool:
        return self._process is not None and self._process.running

    @property
    def pairs(self) -> List[Tuple[str, str]]:
        return list(self._pairs)

    # ------------------------------------------------------------------
    # Per-pair scheduling (the adaptive repair policy's knob)
    # ------------------------------------------------------------------
    def _normalize_pair(self, pair: Tuple[str, str]) -> Tuple[str, str]:
        a, b = pair
        ordered = (a, b) if a <= b else (b, a)
        if ordered not in self.stats:
            raise ValueError(f"unknown repair pair {pair!r}; configured pairs: {self._pairs}")
        return ordered

    def pair_interval(self, pair: Tuple[str, str]) -> float:
        """Current repair cadence of one DC pair (in either order)."""
        return self._pair_interval[self._normalize_pair(pair)]

    def set_pair_interval(self, pair: Tuple[str, str], interval: float) -> None:
        """Retune one pair's repair cadence.

        The service keeps ticking at ``config.interval`` (the base cadence);
        a pair only starts a new session once its own interval has elapsed
        since the previous one, so per-pair intervals below the base tick
        cannot take effect -- configure the base as the smallest cadence any
        pair may be tightened to.
        """
        if interval <= 0:
            raise ValueError(f"repair interval must be positive, got {interval!r}")
        self._pair_interval[self._normalize_pair(pair)] = float(interval)

    # ------------------------------------------------------------------
    # Traffic accounting (the one account of repair bytes; the series
    # recorder and the benches read it)
    # ------------------------------------------------------------------
    def traffic_by_pair(self) -> Dict[str, int]:
        """Cumulative repair bytes per unordered DC pair (``"a|b"`` keys)."""
        return {f"{a}|{b}": stats.bytes_sent for (a, b), stats in self.stats.items()}

    def wan_traffic_bytes(self, datacenter: Optional[str] = None) -> int:
        """Total repair bytes, optionally restricted to pairs touching a DC."""
        total = 0
        for (a, b), stats in self.stats.items():
            if datacenter is None or datacenter in (a, b):
                total += stats.bytes_sent
        return total

    # ------------------------------------------------------------------
    # Session machinery
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.cluster.engine.now
        for pair in self._pairs:
            interval = self._pair_interval[pair]
            session = self._sessions.get(pair)
            if session is not None:
                # A session that outlived the pair's full interval lost its
                # messages (partition, crash); forget it and start over --
                # repair state never survives a failure, like re-running
                # repair.  (The epsilon absorbs float accumulation in the
                # periodic tick times.)
                if now - session.started_at < interval - 1e-9:
                    continue
                self._sessions.pop(pair, None)
            stats = self.stats[pair]
            if stats.last_session_at >= 0 and now - stats.last_session_at < interval - 1e-9:
                continue  # the pair's (possibly relaxed) cadence is not due yet
            self._start_session(pair)

    def _live_node_in(self, datacenter: str) -> Optional[NodeAddress]:
        """Next live node of a DC, rotating deterministically."""
        members = self.cluster.addresses_in(datacenter)
        if not members:
            return None
        start = self._rotation[datacenter]
        for offset in range(len(members)):
            index = (start + offset) % len(members)
            address = members[index]
            if self.cluster.nodes[address].is_up:
                self._rotation[datacenter] = index + 1
                return address
        return None

    def _start_session(self, pair: Tuple[str, str]) -> None:
        dc_a, dc_b = pair
        initiator = self._live_node_in(dc_a)
        partner = self._live_node_in(dc_b)
        if initiator is None or partner is None:
            return  # a whole site is down; nothing to compare against
        stats = self.stats[pair]
        stats.sessions_started += 1
        stats.last_session_at = self.cluster.engine.now
        session = _Session(pair, initiator, partner, self.cluster.engine.now)
        self._sessions[pair] = session
        size = REQUEST_SIZE_BYTES
        if self.config.incremental:
            cache = self._refresh_cache(dc_a)
            sync = self._pair_sync[pair]
            fabric = self.cluster.fabric
            epoch = fabric.partition_epoch
            session.epoch_at_start = epoch
            session.drops_at_start = fabric.stats.dropped
            session.initiator_version = cache.version
            full = sync.initiator_seen < 0 or sync.partner_seen < 0 or sync.epoch != epoch
            session.full = full
            if full:
                stats.full_sessions += 1
            else:
                seen = sync.initiator_seen
                leaf_version = cache.leaf_version
                session.requested_leaves = tuple(
                    index
                    for index in range(len(leaf_version))
                    if leaf_version[index] > seen
                )
                # The request names the initiator's dirty leaves.
                size += LEAF_INDEX_SIZE_BYTES * len(session.requested_leaves)
        stats.bytes_sent += size
        self.cluster.fabric.send(
            initiator,
            partner,
            MessageKind.TREE_REQUEST,
            {"pair": pair},
            size_bytes=size,
            on_delivered=lambda message, session=session: self._on_tree_request(session),
        )

    def _on_tree_request(self, session: _Session) -> None:
        """Partner side: snapshot the partner DC's view and answer with its tree."""
        if self._sessions.get(session.pair) is not session:
            return  # superseded by a newer session
        if not self.cluster.nodes[session.partner].is_up:
            # The partner crashed while the request was in flight (the node
            # layer dropped the message; the delivery callback still fires).
            # Abandon the session -- it expires at the next tick.
            return
        dc_b = session.pair[1]
        if self.config.incremental:
            cache = self._refresh_cache(dc_b)
            session.partner_version = cache.version
            leaves = cache.leaves
            if session.full:
                send_indices = range(len(leaves))
                size = len(leaves) * DIGEST_SIZE_BYTES
            else:
                sync = self._pair_sync[session.pair]
                seen = sync.partner_seen
                leaf_version = cache.leaf_version
                dirty = [
                    index
                    for index in range(len(leaf_version))
                    if leaf_version[index] > seen
                ]
                assert session.requested_leaves is not None
                send_indices = sorted(set(session.requested_leaves) | set(dirty))
                # (index, digest) pairs for only the leaves either side saw
                # change -- the steady-state wire cost of a session.
                size = len(send_indices) * (DIGEST_SIZE_BYTES + LEAF_INDEX_SIZE_BYTES)
            session.response_leaves = {index: leaves[index] for index in send_indices}
            stats = self.stats[session.pair]
            stats.leaves_exchanged += len(session.response_leaves)
        else:
            tree = self._build_tree(dc_b)
            session.partner_tree = tree
            size = tree.serialized_size(DIGEST_SIZE_BYTES)
            self.stats[session.pair].leaves_exchanged += tree.n_leaves
        self.stats[session.pair].bytes_sent += size
        self.cluster.fabric.send(
            session.partner,
            session.initiator,
            MessageKind.TREE_RESPONSE,
            {"pair": session.pair},
            size_bytes=size,
            on_delivered=lambda message, session=session: self._on_tree_response(session),
        )

    def _on_tree_response(self, session: _Session) -> None:
        """Initiator side: diff the trees and stream differing ranges."""
        if self._sessions.pop(session.pair, None) is not session:
            return  # superseded; drop silently
        if not self.cluster.nodes[session.initiator].is_up:
            return  # initiator crashed mid-session; abandon
        dc_a, dc_b = session.pair
        stats = self.stats[session.pair]
        if self.config.incremental:
            assert session.response_leaves is not None
            cache_a = self._refresh_cache(dc_a)
            leaves_a = cache_a.leaves
            differing = {
                index
                for index, digest in session.response_leaves.items()
                if leaves_a[index] != digest
            }
            stats.sessions_completed += 1
            if differing:
                stats.ranges_diffed += len(differing)
                cache_b = self._refresh_cache(dc_b)
                keys: set = set()
                for index in differing:
                    keys |= cache_a.keys_by_leaf.get(index, _EMPTY_SET)
                    keys |= cache_b.keys_by_leaf.get(index, _EMPTY_SET)
                self._stream_keys(session, sorted(keys), cache_a.view, cache_b.view)
            if self.tracer is not None:
                self.tracer.repair_session(session.pair, len(differing), stats.bytes_sent)
            # Advance the pair's sync markers only if no message was lost
            # anywhere during the session: a changed partition epoch OR a
            # grown fabric drop counter (drop_probability losses, drop-mode
            # partitions -- including this session's own repair streams,
            # which were just sent above) means divergence may have escaped
            # this exchange, so the next session falls back to a full one.
            # Incremental repair never trusts state across message loss.
            sync = self._pair_sync[session.pair]
            fabric = self.cluster.fabric
            if (
                fabric.partition_epoch == session.epoch_at_start
                and fabric.stats.dropped == session.drops_at_start
            ):
                sync.initiator_seen = session.initiator_version
                sync.partner_seen = session.partner_version
                sync.epoch = session.epoch_at_start
            else:
                sync.initiator_seen = -1
                sync.partner_seen = -1
            return
        assert session.partner_tree is not None
        token_of = self.cluster.ring.partitioner.token
        view_a = self._dc_view(dc_a)
        local_tree = MerkleTree.build(view_a, token_of, TREE_DEPTH)
        differing = set(local_tree.diff(session.partner_tree))
        stats.sessions_completed += 1
        if not differing:
            if self.tracer is not None:
                self.tracer.repair_session(session.pair, 0, stats.bytes_sent)
            return
        stats.ranges_diffed += len(differing)
        self._stream_ranges(session, differing, view_a)
        if self.tracer is not None:
            self.tracer.repair_session(session.pair, len(differing), stats.bytes_sent)

    # ------------------------------------------------------------------
    # Incremental tree caches
    # ------------------------------------------------------------------
    def _refresh_cache(self, datacenter: str) -> _TreeCache:
        """Bring the datacenter's persistent tree cache up to date.

        Steady state: drain the dirty-key sets of the site's live nodes and
        re-fold only the touched (key, version) pairs -- O(changed keys).
        A liveness change (node/site down or up) rebuilds from scratch:
        which replicas contribute to the view cannot be derived from dirty
        flags.
        """
        cluster = self.cluster
        nodes = cluster.nodes
        alive = tuple(
            address
            for address in cluster.addresses_in(datacenter)
            if nodes[address].is_up
        )
        cache = self._caches.get(datacenter)
        cstats = self.cache_stats[datacenter]
        cstats["refreshes"] += 1
        token_of = cluster.ring.partitioner.token
        shift = 64 - TREE_DEPTH
        if cache is None or cache.liveness != alive:
            # Full rebuild; reset every node's dirty set (down nodes
            # included -- their data re-enters through the next rebuild
            # when liveness changes again).
            for address in cluster.addresses_in(datacenter):
                nodes[address].storage.drain_dirty()
            fresh = _TreeCache(1 << TREE_DEPTH)
            fresh.liveness = alive
            fresh.version = (cache.version + 1) if cache is not None else 1
            view = self._dc_view(datacenter)
            fresh.view = view
            leaves = fresh.leaves
            keys_by_leaf = fresh.keys_by_leaf
            for key, cell in view.items():
                leaf = token_of(key) >> shift
                leaves[leaf] ^= _key_digest(key, cell.timestamp, cell.value_id)
                members = keys_by_leaf.get(leaf)
                if members is None:
                    members = keys_by_leaf[leaf] = set()
                members.add(key)
            version = fresh.version
            fresh.leaf_version = [version] * len(leaves)
            self._caches[datacenter] = fresh
            cstats["full_rebuilds"] += 1
            cstats["keys_rehashed"] += len(view)
            return fresh
        dirty: set = set()
        for address in alive:
            dirty |= nodes[address].storage.drain_dirty()
        if not dirty:
            return cache
        live_nodes = [nodes[address] for address in alive]
        view = cache.view
        leaves = cache.leaves
        leaf_version = cache.leaf_version
        keys_by_leaf = cache.keys_by_leaf
        version = cache.version
        rehashed = 0
        for key in sorted(dirty):
            newest: Optional[Cell] = None
            for node in live_nodes:
                cell = node.peek(key)
                if cell is not None and cell.is_newer_than(newest):
                    newest = cell
            if newest is None:
                continue  # defensive: no live replica holds the key
            old = view.get(key)
            if old is not None and not newest.is_newer_than(old):
                continue  # dirty flag, but the newest version is unchanged
            leaf = token_of(key) >> shift
            if old is not None:
                leaves[leaf] ^= _key_digest(key, old.timestamp, old.value_id)
            else:
                members = keys_by_leaf.get(leaf)
                if members is None:
                    members = keys_by_leaf[leaf] = set()
                members.add(key)
            leaves[leaf] ^= _key_digest(key, newest.timestamp, newest.value_id)
            version += 1
            leaf_version[leaf] = version
            view[key] = newest
            rehashed += 1
        cache.version = version
        cstats["keys_rehashed"] += rehashed
        return cache

    # ------------------------------------------------------------------
    def _dc_view(self, datacenter: str) -> Dict[str, Cell]:
        """key -> newest cell across every live replica of one site."""
        view: Dict[str, Cell] = {}
        for address in self.cluster.addresses_in(datacenter):
            node = self.cluster.nodes[address]
            if not node.is_up:
                continue
            storage = node.storage
            for key in storage.keys():
                cell = storage.peek(key)
                if cell is not None and cell.is_newer_than(view.get(key)):
                    view[key] = cell
        return view

    def _build_tree(self, datacenter: str) -> MerkleTree:
        token_of = self.cluster.ring.partitioner.token
        return MerkleTree.build(self._dc_view(datacenter), token_of, TREE_DEPTH)

    def _stream_ranges(
        self, session: _Session, differing: set, view_a: Dict[str, Cell]
    ) -> None:
        """Full-mode streaming: scan the keyspace for keys in differing
        ranges and delegate to :meth:`_stream_keys`.

        ``view_a`` is the initiator-side view the caller already built for
        its tree (same engine event, so it is exactly current); the partner
        side is re-snapshotted because its tree was taken one WAN trip ago.
        """
        token_of = self.cluster.ring.partitioner.token
        shift = 64 - TREE_DEPTH
        view_b = self._dc_view(session.pair[1])
        keys = [
            key
            for key in sorted(set(view_a) | set(view_b))
            if (token_of(key) >> shift) in differing
        ]
        self._stream_keys(session, keys, view_a, view_b)

    def _stream_keys(
        self,
        session: _Session,
        keys: List[str],
        view_a: Dict[str, Cell],
        view_b: Dict[str, Cell],
    ) -> None:
        """Bring every behind replica (both sites) of ``keys`` up to the
        pairwise-newest version.

        With bandwidth modeling on and a ``stream_backlog_limit`` set, the
        batch self-paces: once the pair's link carries that many unstreamed
        bytes, the remaining keys are re-scheduled after roughly half the
        backlog's drain time.  Repair then trickles at the link's pace
        instead of dumping the whole diff into the fair share at once --
        which is what keeps the residual bandwidth (and so foreground
        latency) bounded during a post-heal repair storm.
        """
        cluster = self.cluster
        stats = self.stats[session.pair]
        fabric = cluster.fabric
        limit = self.stream_backlog_limit
        pace = limit is not None and fabric.bandwidth_enabled
        for index, key in enumerate(keys):
            if pace and index and fabric.transfer_backlog_bytes(*session.pair) >= limit:
                stats.stream_deferrals += 1
                delay = max(0.01, 0.5 * fabric.transfer_drain_estimate(*session.pair))
                cluster.engine.schedule(
                    delay,
                    self._stream_keys,
                    session,
                    keys[index:],
                    view_a,
                    view_b,
                )
                return
            cell_a = view_a.get(key)
            cell_b = view_b.get(key)
            newest = cell_a if cell_b is None or (
                cell_a is not None and cell_a.is_newer_than(cell_b)
            ) else cell_b
            if newest is None:
                continue
            # Stream from a live replica holding the newest version; prefer
            # replica order for determinism.
            replicas = cluster.replicas_for(key)
            source: Optional[NodeAddress] = None
            for replica in replicas:
                if replica.datacenter not in session.pair:
                    continue
                node = cluster.nodes[replica]
                if not node.is_up:
                    continue
                cell = node.peek(key)
                if cell is not None and not newest.is_newer_than(cell):
                    source = replica
                    break
            if source is None:
                continue
            source_dc = source.datacenter
            for replica in replicas:
                if replica is source or replica.datacenter not in session.pair:
                    continue
                node = cluster.nodes[replica]
                if not node.is_up:
                    continue
                cell = node.peek(key)
                if cell is None or newest.is_newer_than(cell):
                    stats.cells_streamed += 1
                    if replica.datacenter != source_dc:
                        stats.bytes_sent += newest.size_bytes
                    fabric.send(
                        source,
                        replica,
                        MessageKind.REPAIR_STREAM,
                        newest,
                        size_bytes=newest.size_bytes,
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(stats.sessions_completed for stats in self.stats.values())
        return (
            f"AntiEntropyService(pairs={len(self._pairs)}, interval={self.config.interval}, "
            f"sessions={total}, running={self.running})"
        )
