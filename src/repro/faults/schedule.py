"""Fault schedules: declarative, replayable failure timelines.

A :class:`FaultSchedule` is a list of timed :class:`FaultEvent`\\ s -- node
crashes, whole-datacenter outages, WAN partitions between DC pairs -- that
a :class:`FaultInjector` arms against a running cluster.  The injector
translates each event into plain engine callbacks, so a fault timeline is
exactly as deterministic as everything else in the simulator: the same seed
and the same schedule produce the same trace.

Each fault kind is one class, and the class is the only place that knows
the kind: its corpus ``tag``, its :meth:`~FaultEvent.start` action and, for
a kind with a ``duration``, its :meth:`~FaultEvent.end` action.  The
injector and the corpus format (:mod:`repro.chaos.corpus`) are generic over
kinds, so a new kind is one new class here plus its generator entry.

Event times are **relative to the arming instant** (the experiment runner
arms the schedule after the load phase, so ``at=5.0`` means "five virtual
seconds into the measured run").  Every event can be described before the
cluster exists, which lets :class:`~repro.experiments.scenarios.Scenario`
objects carry a fault timeline the same way they carry a topology.

The three failure axes map onto the cluster layers like this:

========================  ==========================================================
:class:`NodeCrash`        :meth:`SimulatedCluster.take_down` / ``bring_up`` --
                          the node drops queued work; recovery replays hints.
:class:`DatacenterOutage` every node of the site goes down at once; LOCAL_*
                          clients of *other* sites keep serving, EACH_QUORUM
                          surfaces ``Unavailable``.
:class:`DatacenterPartition` / the **fabric** severs the DC pair(s); nodes stay up
:class:`DatacenterIsolation`   and keep serving their own site, so both sides
                          diverge until heal + hinted handoff / anti-entropy.
:class:`AsymmetricPartition` / grey failures, also at the fabric level: one WAN
:class:`PacketLoss` /     *direction* severed, probabilistic per-pair message
:class:`SlowWan`          loss, or a slowed (but lossless) WAN pair.  Invisible
                          to the failure detector -- they surface as timeouts,
                          hints and staleness, which is what makes them the
                          interesting chaos-search axis.
:class:`WanCongestion`    a background bulk transfer saturates one WAN pair's
                          shared bandwidth (lazily enabling the fabric's
                          bandwidth model): nothing is lost or severed, but
                          foreground serialization runs at the residual rate
                          and repair streams contend in the fair share.
:class:`NodeBootstrap` /  elastic membership (see
:class:`NodeDecommission` :mod:`repro.cluster.membership`): a provisioned
                          spare begins joining the ring, or a member begins
                          leaving.  Both are *transition starts* -- streaming,
                          catch-up and cutover run asynchronously, so the
                          interesting chaos axis is everything that can fire
                          while a transition is in flight.
========================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, List, Optional, Sequence, Tuple

from repro.network.topology import NodeAddress

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cluster.cluster import SimulatedCluster

__all__ = [
    "FaultEvent",
    "NodeCrash",
    "DatacenterOutage",
    "DatacenterPartition",
    "DatacenterIsolation",
    "AsymmetricPartition",
    "PacketLoss",
    "SlowWan",
    "WanCongestion",
    "NodeBootstrap",
    "NodeDecommission",
    "FaultSchedule",
    "FaultInjector",
]


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one timed fault action.

    ``at`` is in virtual seconds relative to :meth:`FaultInjector.arm`.  A
    kind with a ``node`` field must name a node, one with a ``datacenter``
    field a site.
    """

    at: float

    #: The kind's ``type`` in the corpus format; every kind sets its own.
    tag: ClassVar[str]

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be non-negative, got {self.at!r}")
        if hasattr(self, "node") and self.node is None:
            raise ValueError(f"{type(self).__name__} needs a node address")
        if hasattr(self, "datacenter") and not self.datacenter:
            raise ValueError(f"{type(self).__name__} needs a datacenter name")

    def start(self, injector: "FaultInjector") -> str:
        """Apply the fault at ``at``; returns the line the injector logs."""
        raise NotImplementedError

    def end(self, injector: "FaultInjector") -> str:
        """Undo the fault at ``at + duration`` (kinds with a ``duration``
        only, and only when it is not ``None``); returns the log line."""
        raise NotImplementedError


def _check_sites(event: FaultEvent, needs: str, itself: str) -> None:
    sites = event.datacenters
    if len(sites) != 2 or not all(sites):
        raise ValueError(f"{type(event).__name__} needs {needs} site names, got {sites!r}")
    if sites[0] == sites[1]:
        raise ValueError(f"cannot {itself}")


def _check_duration(event: FaultEvent, noun: str) -> None:
    if event.duration is not None and event.duration <= 0:
        raise ValueError(f"{noun} duration must be positive, got {event.duration!r}")


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Take one node offline at ``at`` and restart it ``duration`` later.

    While down, the node drops queued and future requests.  ``duration=None``
    keeps it down for the rest of the run.  On restart, hints buffered
    anywhere in the cluster for the node are replayed unless
    ``replay_hints=False``.
    """

    node: NodeAddress = None  # type: ignore[assignment]
    duration: Optional[float] = None
    replay_hints: bool = True

    tag = "node_crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_duration(self, "crash")

    def start(self, injector: "FaultInjector") -> str:
        injector.cluster.take_down(self.node)
        return f"node {self.node} down"

    def end(self, injector: "FaultInjector") -> str:
        replayed = injector.cluster.bring_up(self.node, replay_hints=self.replay_hints)
        return f"node {self.node} up ({replayed} hints replayed)"


@dataclass(frozen=True)
class DatacenterOutage(FaultEvent):
    """Every node of one site goes down at ``at`` and recovers ``duration`` later.

    ``duration=None`` keeps the site down for the rest of the run.  On
    recovery, hints buffered anywhere in the cluster for the site's nodes are
    replayed (over the WAN, from remote coordinators) unless
    ``replay_hints=False``.
    """

    datacenter: str = ""
    duration: Optional[float] = None
    replay_hints: bool = True

    tag = "dc_outage"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_duration(self, "outage")

    def start(self, injector: "FaultInjector") -> str:
        injector.cluster.take_down_datacenter(self.datacenter)
        return f"datacenter {self.datacenter} down"

    def end(self, injector: "FaultInjector") -> str:
        replayed = injector.cluster.bring_up_datacenter(
            self.datacenter, replay_hints=self.replay_hints
        )
        return f"datacenter {self.datacenter} up ({replayed} hints replayed)"


@dataclass(frozen=True)
class DatacenterPartition(FaultEvent):
    """Sever the WAN between two sites at ``at``; heal ``duration`` later.

    ``mode`` is the fabric's partition mode (``"drop"`` loses blocked
    messages, ``"park"`` buffers and releases them on heal).  On heal,
    hinted handoff replays across the WAN in both directions unless
    ``replay_hints=False`` (the anti-entropy benchmarks disable it to
    isolate the Merkle repair path).  ``duration=None`` never heals.
    """

    datacenters: Tuple[str, str] = ("", "")
    duration: Optional[float] = None
    mode: str = "drop"
    replay_hints: bool = True

    tag = "partition"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_sites(self, "two", "partition a datacenter from itself")
        _check_duration(self, "partition")

    def start(self, injector: "FaultInjector") -> str:
        a, b = self.datacenters
        injector.cluster.partition_datacenters(a, b, mode=self.mode)
        return f"partition {a}|{b} ({self.mode})"

    def end(self, injector: "FaultInjector") -> str:
        a, b = self.datacenters
        released, replayed = injector.cluster.heal_datacenters(
            a, b, replay_hints=self.replay_hints
        )
        return f"heal {a}|{b} ({released} parked released, {replayed} hints replayed)"


@dataclass(frozen=True)
class DatacenterIsolation(FaultEvent):
    """Partition one site away from *every* other site (its WAN goes dark).

    The site's nodes stay up and keep serving their own LOCAL_* clients --
    the difference between an isolation and a :class:`DatacenterOutage` is
    exactly the difference between a WAN cut and a power cut.
    """

    datacenter: str = ""
    duration: Optional[float] = None
    mode: str = "drop"
    replay_hints: bool = True

    tag = "dc_isolation"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_duration(self, "isolation")

    def _others(self, cluster: "SimulatedCluster") -> List[str]:
        return [dc for dc in cluster.datacenter_names if dc != self.datacenter]

    def start(self, injector: "FaultInjector") -> str:
        for other in self._others(injector.cluster):
            injector.cluster.partition_datacenters(self.datacenter, other, mode=self.mode)
        return f"isolate {self.datacenter} ({self.mode})"

    def end(self, injector: "FaultInjector") -> str:
        released = replayed = 0
        for other in self._others(injector.cluster):
            r, h = injector.cluster.heal_datacenters(
                self.datacenter, other, replay_hints=self.replay_hints
            )
            released += r
            replayed += h
        return (
            f"deisolate {self.datacenter} ({released} parked released, "
            f"{replayed} hints replayed)"
        )


@dataclass(frozen=True)
class AsymmetricPartition(FaultEvent):
    """Sever one WAN *direction*: ``datacenters[0] -> datacenters[1]`` is
    blocked while the reverse keeps flowing (a grey failure: one-way
    firewall rule, broken route announcement).

    On heal, hints buffered for nodes of the destination site are replayed
    (the direction they travel is the one that just reopened) unless
    ``replay_hints=False``.  ``duration=None`` never heals.
    """

    datacenters: Tuple[str, str] = ("", "")
    duration: Optional[float] = None
    mode: str = "drop"
    replay_hints: bool = True

    tag = "partition_oneway"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_sites(self, "(src, dst)", "partition a datacenter from itself")
        _check_duration(self, "partition")

    def start(self, injector: "FaultInjector") -> str:
        src, dst = self.datacenters
        injector.cluster.partition_datacenters_oneway(src, dst, mode=self.mode)
        return f"partition {src}->{dst} ({self.mode})"

    def end(self, injector: "FaultInjector") -> str:
        src, dst = self.datacenters
        released, replayed = injector.cluster.heal_datacenters_oneway(
            src, dst, replay_hints=self.replay_hints
        )
        return f"heal {src}->{dst} ({released} parked released, {replayed} hints replayed)"


@dataclass(frozen=True)
class PacketLoss(FaultEvent):
    """Drop each message crossing one DC pair with ``probability`` for
    ``duration`` seconds (``None``: for the rest of the run).

    Pure grey failure: no detector signal, no Unavailable -- lost requests
    surface as timeouts and hinted writes with nothing to trigger their
    replay (the chaos harness's final hint flush models Cassandra's
    periodic hint delivery).
    """

    datacenters: Tuple[str, str] = ("", "")
    probability: float = 0.0
    duration: Optional[float] = None

    tag = "packet_loss"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_sites(self, "two", "lose packets between a datacenter and itself")
        if not 0.0 < self.probability < 1.0:
            raise ValueError(f"loss probability must be in (0, 1), got {self.probability!r}")
        _check_duration(self, "loss")

    def start(self, injector: "FaultInjector") -> str:
        a, b = self.datacenters
        injector.cluster.set_pair_loss(a, b, self.probability)
        return f"packet loss {a}|{b} p={self.probability}"

    def end(self, injector: "FaultInjector") -> str:
        a, b = self.datacenters
        injector.cluster.set_pair_loss(a, b, 0.0)
        return f"packet loss {a}|{b} cleared"


@dataclass(frozen=True)
class SlowWan(FaultEvent):
    """Multiply the sampled WAN latency of one DC pair by ``scale`` for
    ``duration`` seconds (``None``: for the rest of the run).

    Lossless brown-out: everything still arrives, late.  FIFO links keep
    their ordering guarantee; quorum paths crossing the pair slow down and
    DC-local staleness windows stretch.
    """

    datacenters: Tuple[str, str] = ("", "")
    scale: float = 1.0
    duration: Optional[float] = None

    tag = "slow_wan"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_sites(self, "two", "slow the WAN between a datacenter and itself")
        if self.scale <= 1.0:
            raise ValueError(f"slow-WAN scale must be > 1, got {self.scale!r}")
        _check_duration(self, "slow-WAN")

    def start(self, injector: "FaultInjector") -> str:
        a, b = self.datacenters
        injector.cluster.set_pair_latency_scale(a, b, self.scale)
        return f"slow wan {a}|{b} x{self.scale}"

    def end(self, injector: "FaultInjector") -> str:
        a, b = self.datacenters
        injector.cluster.set_pair_latency_scale(a, b, 1.0)
        return f"slow wan {a}|{b} cleared"


@dataclass(frozen=True)
class WanCongestion(FaultEvent):
    """Saturate one WAN pair with a seeded background bulk transfer for
    ``duration`` seconds.

    At ``at``, a background transfer of ``bytes`` enters the pair's
    fair-share scheduler (lazily enabling the fabric's bandwidth model with
    defaults if the scenario did not configure one); at ``at + duration``
    whatever is left unstreamed is aborted, so the link is guaranteed clean
    again inside the schedule horizon.  ``rate_cap`` optionally bounds the
    transfer's own rate (a throttled bulk load rather than a greedy one).

    Pure grey failure: nothing is dropped or severed -- foreground messages
    just serialize at the link's residual bandwidth and concurrent repair /
    hint-replay transfers slow down in the fair share.
    """

    datacenters: Tuple[str, str] = ("", "")
    bytes: float = 0.0
    duration: float = 0.0
    rate_cap: Optional[float] = None

    tag = "wan_congestion"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_sites(self, "two", "congest the WAN between a datacenter and itself")
        if self.bytes <= 0:
            raise ValueError(f"congestion bytes must be positive, got {self.bytes!r}")
        _check_duration(self, "congestion")
        if self.rate_cap is not None and self.rate_cap <= 0:
            raise ValueError(f"congestion rate cap must be positive, got {self.rate_cap!r}")

    def start(self, injector: "FaultInjector") -> str:
        a, b = self.datacenters
        injector._congestion_handles[self] = injector.cluster.fabric.start_background_transfer(
            a, b, self.bytes, rate_cap=self.rate_cap
        )
        cap = f" cap={self.rate_cap:g}B/s" if self.rate_cap is not None else ""
        return f"wan congestion {a}|{b} {self.bytes:g}B{cap}"

    def end(self, injector: "FaultInjector") -> str:
        a, b = self.datacenters
        handle = injector._congestion_handles.pop(self, None)
        aborted = 0.0
        if handle is not None:
            aborted = injector.cluster.fabric.cancel_background_transfer(handle)
        return f"wan congestion {a}|{b} cleared ({aborted:g}B aborted)"


@dataclass(frozen=True)
class NodeBootstrap(FaultEvent):
    """Begin joining a provisioned spare into the ring at ``at``.

    The transition itself (pending-range registration, range streaming over
    the fabric, catch-up verification, cutover) runs asynchronously under the
    cluster's :class:`~repro.cluster.membership.MembershipManager`; the
    injector creates and starts one on demand.  A begin the manager refuses
    (node already a member, transition already in flight) is logged as
    rejected rather than failing the run -- it models an admin command being
    turned away.
    """

    node: NodeAddress = None  # type: ignore[assignment]

    tag = "node_bootstrap"

    def start(self, injector: "FaultInjector") -> str:
        return injector._begin_transition("bootstrap", self.node)


@dataclass(frozen=True)
class NodeDecommission(FaultEvent):
    """Begin removing a ring member at ``at``.

    The new owners of its ranges become pending write targets; the node
    leaves only once they have caught up, draining its hints on the way out.
    Refused begins (not a member, would shrink below the replication factor)
    are logged as rejected, same as :class:`NodeBootstrap`.
    """

    node: NodeAddress = None  # type: ignore[assignment]

    tag = "node_decommission"

    def start(self, injector: "FaultInjector") -> str:
        return injector._begin_transition("decommission", self.node)


class FaultSchedule:
    """An immutable, time-ordered collection of fault events.

    The constructor sorts events by time (stable, so same-time events keep
    insertion order) and validates them eagerly -- a malformed schedule
    should fail when the scenario is built, not mid-run.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"expected FaultEvent instances, got {event!r}")
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda event: event.at)
        )

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def horizon(self) -> float:
        """Virtual time (relative to arming) at which the last action fires."""
        horizon = 0.0
        for event in self._events:
            end = event.at
            duration = getattr(event, "duration", None)
            if duration is not None:
                end += duration
            horizon = max(horizon, end)
        return horizon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self._events)} events, horizon={self.horizon:.1f}s)"


class FaultInjector:
    """Arms a :class:`FaultSchedule` against a live cluster.

    The injector is one-shot: build, :meth:`arm`, run the engine.  Every
    action it performs is appended to :attr:`log` as ``(virtual_time,
    description)`` so tests and reports can assert the exact fault timeline
    that was applied.
    """

    def __init__(self, cluster: "SimulatedCluster", schedule: FaultSchedule) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.log: List[Tuple[float, str]] = []
        self._armed = False
        #: The cluster's op-lifecycle tracer (see :mod:`repro.obs.tracer`).
        self.tracer = cluster.tracer
        # Background-transfer handles of active WanCongestion events.
        self._congestion_handles: dict = {}

    @property
    def armed(self) -> bool:
        return self._armed

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every event of the timeline relative to *now*: its start
        at ``at`` and, when it has a duration, its end at ``at + duration``."""
        if self._armed:
            raise RuntimeError("a FaultInjector can only be armed once")
        self._armed = True
        engine = self.cluster.engine
        for event in self.schedule:
            engine.schedule(event.at, self._apply, event.start)
            duration = getattr(event, "duration", None)
            if duration is not None:
                engine.schedule(event.at + duration, self._apply, event.end)

    # ------------------------------------------------------------------
    def _apply(self, action) -> None:
        tracer = self.tracer
        # The line is known only once the action has run, but the fault goes
        # into the trace ahead of what the action emitted (a bootstrap's
        # ``bootstrap.start``).
        index = len(tracer.events) if tracer is not None else 0
        description = action(self)
        self.log.append((self.cluster.engine.now, description))
        if tracer is not None:
            tracer.fault(description)
            tracer.events.insert(index, tracer.events.pop())

    def _begin_transition(self, kind: str, node: NodeAddress) -> str:
        """Begin a bootstrap or decommission through the cluster's membership
        manager (created and started on demand); a refused begin is logged,
        not raised."""
        try:
            manager = self.cluster.membership
            if manager is None:
                from repro.cluster.membership import MembershipManager

                manager = MembershipManager(self.cluster)
            if not manager.running:
                manager.start()
            # MembershipManager.begin_bootstrap / begin_decommission
            getattr(manager, f"begin_{kind}")(node)
        except ValueError as exc:
            return f"{kind} of {node} rejected: {exc}"
        return f"{kind} of {node} started"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self._armed else "idle"
        return f"FaultInjector({state}, {len(self.schedule)} events, {len(self.log)} applied)"
