"""One shard of the sharded conservative-PDES engine.

A :class:`ShardRuntime` owns one :class:`~repro.sim.engine.SimulationEngine`
running a *full ghost replica* of the cluster: every shard builds the whole
topology, ring and node set (a pure function of the scenario and seed, no
randomness), but only the shard's *owned* nodes ever receive traffic --
clients are pinned to owned coordinators, and the fabric diverts any
delivery addressed to a non-owned node into the cross-shard outbox instead
of the local engine.  A ghost node costs no events and about 3.3 KB of build
allocations (its ring tokens, storage engine, counters and empty
coordinator books; its random streams are never created); in exchange,
token ownership, replica placement and message routing are byte-identical
to the single-process run of the same sharded configuration.

The runtime is a command state machine driven by the window controller in
:mod:`repro.sim.parallel.runner`:

``begin_run`` -> ``advance``* -> ``align`` -> ``finalize`` (the runner bulk-loads before).

Every command reply carries ``(next_event_time, outbox, clients_done)`` so
the controller can compute the next conservative window without extra round
trips.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pickle
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import ClusterConfig, SimulatedCluster
from repro.cluster.storage import Cell
from repro.network.fabric import Message, MessageKind
from repro.network.topology import NodeAddress
from repro.sim.rng import RandomStreams
from repro.staleness.auditor import StalenessAuditor
from repro.workload.executor import WorkloadExecutor
from repro.workload.workloads import WorkloadConfig

__all__ = ["ShardRuntime", "split_proportional", "wire_encode", "wire_decode"]

#: Reply shape of every shard command: (next local event time or None,
#: outbox entries ``(deliver_at, seq, dst_shard, message)``, local clients
#: all done).  Forked workers replace ``message`` with its pickle so the
#: controller routes opaque bytes instead of re-serialising objects.
ShardReply = Tuple[Optional[float], List[Tuple[float, int, int, Any]], bool]


# ----------------------------------------------------------------------
# Cross-shard wire codec
# ----------------------------------------------------------------------
# Pickling a Message directly costs ~14us: slots-dataclass + str-Enum +
# NamedTuple + frozen-dataclass payloads all take pickle's slow
# object-protocol path.  Flattening the known types into plain tuples first
# lets pickle stay on its C fast path (~3-4us per crossing, measured), and
# the decode side rebuilds value-equal objects, so determinism is
# unaffected.  Unknown payload types ride through verbatim -- the outer
# pickle still handles them, just without the speedup.

_W_TUPLE, _W_CELL, _W_ADDR, _W_RAW = 0, 1, 2, 3


def _encode_obj(obj: Any) -> Tuple[int, Any]:
    t = type(obj)
    if t is tuple:
        return (_W_TUPLE, tuple(_encode_obj(item) for item in obj))
    if t is Cell:
        return (_W_CELL, (obj.timestamp, obj.value_id, obj.key, obj.value, obj.size_bytes))
    if t is NodeAddress:
        return (_W_ADDR, tuple(obj))
    return (_W_RAW, obj)


def _decode_obj(data: Tuple[int, Any]) -> Any:
    tag, body = data
    if tag == _W_TUPLE:
        return tuple(_decode_obj(item) for item in body)
    if tag == _W_CELL:
        return Cell(body[0], body[1], body[2], body[3], body[4])
    if tag == _W_ADDR:
        return NodeAddress(body[0], body[1], body[2])
    return body


def wire_encode(message: Message) -> Tuple:
    """Flatten ``message`` into a builtins-only tuple for fast pickling."""
    kind = message.kind
    if type(kind) is not str:
        kind = kind.value
    return (
        message.msg_id,
        tuple(message.src),
        tuple(message.dst),
        kind,
        _encode_obj(message.payload),
        message.size_bytes,
        message.sent_at,
        message.delivered_at,
    )


def wire_decode(data: Tuple) -> Message:
    """Rebuild the value-equal :class:`Message` from its wire tuple."""
    return Message(
        data[0],
        NodeAddress(*data[1]),
        NodeAddress(*data[2]),
        MessageKind.intern(data[3]),
        _decode_obj(data[4]),
        data[5],
        data[6],
        data[7],
    )


def split_proportional(total: int, weights: List[int]) -> List[int]:
    """Split ``total`` into integer shares proportional to ``weights``.

    Largest-remainder apportionment with index order as the tie-break --
    fully deterministic, shares sum exactly to ``total``.
    """
    denominator = sum(weights)
    if denominator <= 0:
        raise ValueError("weights must sum to a positive value")
    shares = [total * w / denominator for w in weights]
    base = [int(share) for share in shares]
    remainder = total - sum(base)
    by_fraction = sorted(range(len(weights)), key=lambda i: (base[i] - shares[i], i))
    for index in by_fraction[:remainder]:
        base[index] += 1
    return base


class ShardRuntime:
    """One shard: ghost cluster + pinned clients + cross-shard mailbox ends.

    Built in the parent process before any worker forks, so the in-process
    (``workers=1``) and forked (``workers=N``) backends start from the same
    object state.

    Parameters
    ----------
    shard_index:
        This shard's position in the plan.
    owned:
        The node addresses this shard owns (``plan.shards[shard_index]``).
    cluster_config:
        The full-cluster config; every shard builds the whole (ghost) ring.
    workload_config:
        This shard's slice of the workload: own key prefix, proportional
        record/operation counts (see :func:`split_proportional`).
    policy:
        A *per-shard* consistency policy instance (never shared across
        shards -- adaptive policies keep per-cluster state).
    threads:
        Client threads pinned to this shard's coordinators.
    seed:
        The experiment seed; the shard derives its private stream root as
        ``RandomStreams(seed).fork("shard.<index>")``.
    shard_of:
        Maps a node address to its owning shard (``plan.shard_of``); the
        runtime stamps every outbox entry with the destination shard so the
        controller can route it without inspecting the message.
    """

    def __init__(
        self,
        shard_index: int,
        owned,
        cluster_config: ClusterConfig,
        workload_config: WorkloadConfig,
        policy,
        threads: int,
        *,
        seed: int = 0,
        think_time: float = 0.0,
        retry_policy=None,
        max_virtual_time: float = 3600.0,
        shard_of: Optional[Callable[..., int]] = None,
    ) -> None:
        self.shard_index = shard_index
        self.owned = tuple(owned)
        self._shard_of = shard_of if shard_of is not None else (lambda _address: 0)
        if cluster_config.spares_per_dc:
            raise ValueError(
                "sharded runs do not support elastic membership "
                "(spares_per_dc > 0): a topology change would invalidate the "
                "shard plan; run membership scenarios on the single engine"
            )
        streams = RandomStreams(seed=seed).fork(f"shard.{shard_index}")
        self.cluster = SimulatedCluster(cluster_config, streams=streams)
        # The shard plan is a pure function of the topology; a ring
        # membership change mid-run would silently invalidate node
        # ownership, so any epoch movement is a hard error (checked per
        # window in _advance/align).
        self._membership_epoch = self.cluster.membership_epoch
        self.engine = self.cluster.engine
        # Pin this shard's clients to its owned coordinators only; ghost
        # nodes must never coordinate (their completions would be invisible
        # to the owning shard).
        self.cluster._round_robin = itertools.cycle(
            [(self.cluster.nodes[a], self.cluster.coordinators[a]) for a in self.owned]
        )
        self._outbox: List[Tuple[float, int, Message]] = []
        self._out_seq = 0
        self.cluster.fabric.set_remote_sink(self.owned, self._sink)
        self.auditor = StalenessAuditor()
        self.executor = WorkloadExecutor(
            self.cluster,
            workload_config,
            policy,
            threads,
            auditor=self.auditor,
            think_time=think_time,
            retry_policy=retry_policy,
            max_virtual_time=max_virtual_time,
        )
        self._clients_done = False
        self._finish_time: Optional[float] = None
        self._deadline_handle = None

    # ------------------------------------------------------------------
    # Cross-shard mailbox (send side)
    # ------------------------------------------------------------------
    def _sink(self, deliver_at: float, message: Message) -> None:
        # The fabric already drew the latency and advanced FIFO-link state,
        # so shard-local randomness is unaffected by the divert.  The
        # monotone sequence number makes the controller's canonical inbound
        # sort (deliver_at, src_shard, seq) a total order.
        self._outbox.append((deliver_at, self._out_seq, self._shard_of(message.dst), message))
        self._out_seq += 1

    def _drain_outbox(self) -> List[Tuple[float, int, int, Message]]:
        outbox = self._outbox
        self._outbox = []
        return outbox

    def _reply(self) -> ShardReply:
        return (self.engine.next_event_time(), self._drain_outbox(), self._clients_done)

    # ------------------------------------------------------------------
    # Commands (invoked by the window controller)
    # ------------------------------------------------------------------
    def handle(self, command: Tuple) -> Any:
        op = command[0]
        if op == "advance":
            return self._advance(command[1], command[2])
        if op == "align":
            self.engine.run_until(command[1])
            self._check_membership_epoch()
            return self._reply()
        if op == "begin_run":
            return self._begin_run()
        if op == "finalize":
            return self._finalize()
        raise ValueError(f"unknown shard command {op!r}")

    def _advance(
        self, window: float, inbound: List[Tuple[float, int, int, Any]]
    ) -> ShardReply:
        fabric = self.cluster.fabric
        loads = pickle.loads
        for deliver_at, _src_shard, _seq, message in inbound:
            # Forked transport ships messages as pickled wire tuples (the
            # controller routes opaque bytes); the in-process backend passes
            # Message objects straight through.
            if type(message) is bytes:
                message = wire_decode(loads(message))
            # engine.call_at() raises if deliver_at < now, turning any violation
            # of the conservative window into a hard error instead of a
            # silently reordered delivery.
            fabric.inject_remote(deliver_at, message)
        self.engine.run_until(window)
        self._check_membership_epoch()
        return self._reply()

    def _check_membership_epoch(self) -> None:
        if self.cluster.membership_epoch != self._membership_epoch:
            raise RuntimeError(
                f"shard {self.shard_index}: ring membership changed mid-run "
                f"(epoch {self._membership_epoch} -> "
                f"{self.cluster.membership_epoch}); the shard plan is "
                f"invalidated -- sharded runs must keep the topology static"
            )

    def _begin_run(self) -> ShardReply:
        self.executor.begin_run(on_all_finished=self._on_clients_finished)
        # Safety bound on the run phase, mirroring WorkloadExecutor.run():
        # past the virtual deadline the clients are stopped, which flips
        # clients_done and lets the controller terminate the window loop.
        self._deadline_handle = self.engine.at(
            self.engine.now + self.executor.max_virtual_time,
            self.executor.stop_clients,
        )
        return self._reply()

    def _on_clients_finished(self) -> None:
        self._clients_done = True
        self._finish_time = self.engine.now

    def _finalize(self) -> Dict[str, Any]:
        if self._deadline_handle is not None:
            self._deadline_handle.cancel()
            self._deadline_handle = None
        metrics = self.executor.finalize_run()
        trace = self._trace(metrics)
        return {
            "metrics": metrics,
            "trace": trace,
            "trace_sha256": hashlib.sha256(
                json.dumps(trace, sort_keys=True).encode()
            ).hexdigest(),
            "finish_time": self._finish_time,
        }

    def _trace(self, metrics) -> Dict[str, Any]:
        """Deterministic per-shard fingerprint (the unit of reproducibility).

        Everything here is simulated-time state: identical between
        ``workers=1`` and ``workers=N`` by the determinism argument, and
        across repetitions of the same seed.
        """
        stats = self.cluster.fabric.stats
        return {
            "shard": self.shard_index,
            "summary": metrics.summary(),
            "events_processed": self.engine.events_processed,
            "messages_sent": stats.sent,
            "messages_delivered": stats.delivered,
            "bytes_sent": stats.bytes_sent,
            "mean_message_latency_us": round(stats.mean_latency() * 1e6, 3),
            "virtual_duration_s": round(self.engine.now, 9),
            "cross_messages_out": self._out_seq,
        }
