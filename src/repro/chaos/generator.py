"""Seeded fault-schedule generation over the grey-failure space.

The generator maps ``(seed, scenario, budget)`` deterministically to a
:class:`~repro.faults.schedule.FaultSchedule`.  "Budget" counts *fault
actions*.  Every action but ``membership`` is one windowed event that undoes
itself ``duration`` after it begins (a crash restarts its node, a partition
heals); a ``membership`` action is a bootstrap and, half the time, a later
decommission.

Action menu (multi-datacenter scenarios)::

    crash        node crash window (down, then restarted)   weight 0.30
    outage       whole-datacenter outage + recovery         weight 0.10
    partition    symmetric DC partition (drop or park)      weight 0.15
    asym         asymmetric (one-way) DC partition          weight 0.15
    loss         per-pair packet-loss probability window    weight 0.10
    slow         per-pair WAN latency-scaling window        weight 0.10
    congestion   bulk background transfer saturating a pair weight 0.10

Single-datacenter scenarios only draw node crashes (the other actions are
cross-DC by construction).

Scenarios that provision ring spares (``spares_per_dc > 0``, e.g.
``grid5000_3sites_elastic``) draw from an *extended* menu that adds a
``membership`` action: a spare begins bootstrapping at the window start and,
half the time, begins decommissioning again at the window end -- so the
streaming / catch-up / cutover machinery runs concurrently with every other
fault kind.  Each spare is used at most once per schedule, which is what
makes "no overlapping join/leave of the same node" hold by construction.
Scenarios without spares keep the original menus, so their schedules stay
byte-identical.

Determinism contract
--------------------
All randomness comes from one named stream,
``RandomStreams(seed).stream("chaos.<scenario>")``, so the same
``(seed, scenario, budget)`` yields a byte-identical schedule (see
:func:`repro.chaos.corpus.schedule_signature`) regardless of what else the
process has sampled.  Times and durations are rounded to milliseconds so the
serialized corpus form is exact.

Structural sanity
-----------------
:func:`validate_schedule` enforces the invariants the rest of the chaos
stack assumes: every fault heals (all windows, crashes included, carry a
duration), windows end by ``0.92 * horizon`` so the run always has a
post-heal tail, no two windows of one key overlap (one key per node for
crashes, per site for outages, per kind and DC pair for loss / slow-WAN /
congestion), and no node crash falls in its datacenter's outage.
The generator asserts it on every schedule it returns; the property tests
re-check it over hundreds of seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster.cluster import resolve_spares, resolve_topology
from repro.constants import DEFAULT_BANDWIDTH_BYTES_PER_S
from repro.experiments.scenarios import Scenario
from repro.faults.schedule import (
    AsymmetricPartition,
    DatacenterOutage,
    DatacenterPartition,
    FaultEvent,
    FaultSchedule,
    NodeBootstrap,
    NodeCrash,
    NodeDecommission,
    PacketLoss,
    SlowWan,
    WanCongestion,
)
from repro.network.topology import NodeAddress
from repro.sim.rng import RandomStreams

__all__ = ["ScheduleGenerator", "ScheduleValidationError", "validate_schedule"]

# Fault windows must end by this fraction of the horizon so every run has a
# guaranteed post-heal tail for hint replay and repair to act in.
HEAL_FRACTION = 0.92

# (action, cumulative-probability) menu for multi-DC scenarios.  Drawn via a
# single uniform sample so the stream advances one draw per attempt.
_MULTI_DC_MENU: Sequence[Tuple[str, float]] = (
    ("crash", 0.30),
    ("outage", 0.40),
    ("partition", 0.55),
    ("asym", 0.70),
    ("loss", 0.80),
    ("slow", 0.90),
    ("congestion", 1.00),
)

# Extended menus for scenarios provisioning ring spares: every original
# weight shrinks proportionally to make room for the membership action.
_MULTI_DC_ELASTIC_MENU: Sequence[Tuple[str, float]] = (
    ("crash", 0.26),
    ("outage", 0.34),
    ("partition", 0.47),
    ("asym", 0.60),
    ("loss", 0.69),
    ("slow", 0.78),
    ("congestion", 0.86),
    ("membership", 1.00),
)
_SINGLE_DC_ELASTIC_MENU: Sequence[Tuple[str, float]] = (
    ("crash", 0.80),
    ("membership", 1.00),
)

_PLACEMENT_ATTEMPTS = 8


class ScheduleValidationError(ValueError):
    """A generated or deserialized schedule violates structural sanity."""


def _overlaps(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> bool:
    return any(not (end < s or start > e) for s, e in intervals)


def _unordered(pair: Tuple[str, str]) -> Tuple[str, str]:
    a, b = pair
    return (a, b) if a <= b else (b, a)


def _window_key(event: FaultEvent):
    """The key no two windows may share while they overlap: ``("node",
    node)`` for a crash, ``("dc", dc)`` for an outage, ``(tag, unordered
    pair)`` for a loss / slow-WAN / congestion window; ``None`` otherwise."""
    if isinstance(event, NodeCrash):
        return ("node", event.node)
    if isinstance(event, DatacenterOutage):
        return ("dc", event.datacenter)
    if isinstance(event, (PacketLoss, SlowWan, WanCongestion)):
        return (event.tag, _unordered(event.datacenters))
    return None


@dataclass(frozen=True)
class _Shape:
    """Topology facts the generator needs, precomputed once."""

    nodes: Tuple[NodeAddress, ...]
    datacenters: Tuple[str, ...]
    spares: Tuple[NodeAddress, ...] = ()


class ScheduleGenerator:
    """Deterministic ``(seed, budget) -> FaultSchedule`` for one scenario."""

    def __init__(self, scenario: Scenario, *, horizon: float = 12.0) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon!r}")
        self.scenario = scenario
        self.horizon = float(horizon)
        cluster_config = scenario.cluster_config()
        topology = resolve_topology(cluster_config)
        self._shape = _Shape(
            nodes=tuple(topology.nodes),
            datacenters=tuple(topology.datacenter_names),
            spares=resolve_spares(cluster_config, topology),
        )
        bandwidth = getattr(scenario, "bandwidth", None)
        #: Link capacity congestion bytes are sized against: the scenario's
        #: modeled capacity when it sets one, otherwise the shared default.
        self._capacity = (
            bandwidth.capacity_bytes_per_s
            if bandwidth is not None
            else DEFAULT_BANDWIDTH_BYTES_PER_S
        )

    # -- public API ------------------------------------------------------

    def generate(self, seed: int, budget: int) -> FaultSchedule:
        """Draw a schedule of up to ``budget`` fault actions.

        An action that cannot be placed without violating structural sanity
        after a bounded number of attempts forfeits its slot, so the
        returned schedule may contain fewer actions than ``budget`` -- but
        the draw sequence (hence determinism) never depends on wall state.
        """
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget!r}")
        rng = RandomStreams(seed).stream(f"chaos.{self.scenario.name}")
        multi_dc = len(self._shape.datacenters) > 1
        events: List[FaultEvent] = []
        busy: Dict[tuple, List[Tuple[float, float]]] = {}
        membership_used: set = set()

        for _ in range(budget):
            for _attempt in range(_PLACEMENT_ATTEMPTS):
                kind = self._draw_kind(rng, multi_dc)
                window = self._draw_window(rng)
                if window is None:
                    continue
                if self._place(kind, rng, *window, events, busy, membership_used):
                    break

        events.sort(key=lambda e: (e.at, type(e).__name__))
        schedule = FaultSchedule(events)
        validate_schedule(schedule, horizon=self.horizon)
        return schedule

    # -- draw helpers ----------------------------------------------------

    def _draw_kind(self, rng, multi_dc: bool) -> str:
        if self._shape.spares:
            menu = _MULTI_DC_ELASTIC_MENU if multi_dc else _SINGLE_DC_ELASTIC_MENU
        elif not multi_dc:
            return "crash"
        else:
            menu = _MULTI_DC_MENU
        u = rng.random()
        for kind, cumulative in menu:
            if u < cumulative:
                return kind
        return menu[-1][0]

    def _draw_window(self, rng):
        """One (start, end) fault window, ms-rounded, ending by the heal cap."""
        cap = HEAL_FRACTION * self.horizon
        start = round(rng.random() * 0.55 * self.horizon, 3)
        duration = round(0.8 + rng.random() * 0.30 * self.horizon, 3)
        end = round(min(start + duration, cap), 3)
        if end - start < 0.3:
            return None
        return start, end

    def _draw_dc_pair(self, rng) -> Tuple[str, str]:
        dcs = self._shape.datacenters
        i = int(rng.integers(len(dcs)))
        j = (i + 1 + int(rng.integers(len(dcs) - 1))) % len(dcs)
        return dcs[i], dcs[j]

    def _place(
        self, kind: str, rng, start: float, end: float, events, busy, membership_used
    ) -> bool:
        """Draw one ``kind`` action into ``start..end``; ``False`` when it
        would overlap a window of the same key in ``busy``."""
        duration = round(end - start, 3)

        def free(key) -> bool:
            return not _overlaps(busy.get(key, ()), start, end)

        def take(event: FaultEvent) -> bool:
            events.append(event)
            key = _window_key(event)
            if key is not None:
                busy.setdefault(key, []).append((start, end))
            return True

        if kind == "crash":
            node = self._shape.nodes[int(rng.integers(len(self._shape.nodes)))]
            if not free(("node", node)) or not free(("dc", node.datacenter)):
                return False
            return take(NodeCrash(at=start, node=node, duration=duration))
        if kind == "outage":
            dc = self._shape.datacenters[int(rng.integers(len(self._shape.datacenters)))]
            if not free(("dc", dc)):
                return False
            if not all(free(("node", node)) for node in self._shape.nodes if node.datacenter == dc):
                return False
            return take(DatacenterOutage(at=start, datacenter=dc, duration=duration))
        if kind == "partition":
            a, b = self._draw_dc_pair(rng)
            mode = "drop" if rng.random() < 0.7 else "park"
            return take(
                DatacenterPartition(at=start, datacenters=(a, b), duration=duration, mode=mode)
            )
        if kind == "asym":
            src, dst = self._draw_dc_pair(rng)
            mode = "drop" if rng.random() < 0.7 else "park"
            return take(
                AsymmetricPartition(at=start, datacenters=(src, dst), duration=duration, mode=mode)
            )
        if kind == "loss":
            pair = _unordered(self._draw_dc_pair(rng))
            if not free((PacketLoss.tag, pair)):
                return False
            probability = round(0.05 + 0.30 * rng.random(), 3)
            return take(
                PacketLoss(at=start, datacenters=pair, probability=probability, duration=duration)
            )
        if kind == "slow":
            pair = _unordered(self._draw_dc_pair(rng))
            if not free((SlowWan.tag, pair)):
                return False
            scale = round(2.0 + 10.0 * rng.random(), 2)
            return take(SlowWan(at=start, datacenters=pair, scale=scale, duration=duration))
        if kind == "congestion":
            pair = _unordered(self._draw_dc_pair(rng))
            if not free((WanCongestion.tag, pair)):
                return False
            # Size the bulk transfer to 0.6x..1.4x of what the link can move
            # in the window, so roughly half the draws keep the link pinned
            # for the whole window (the injector aborts leftovers on heal).
            fraction = 0.6 + 0.8 * rng.random()
            size = float(round(self._capacity * duration * fraction))
            if size <= 0:
                return False
            return take(
                WanCongestion(at=start, datacenters=pair, bytes=size, duration=duration)
            )
        if kind == "membership":
            spares = self._shape.spares
            spare = spares[int(rng.integers(len(spares)))]
            # Draw the leave coin before the used-check so the stream
            # consumption per attempt never depends on placement state.
            leave = rng.random() < 0.5
            if spare in membership_used:
                return False
            events.append(NodeBootstrap(at=start, node=spare))
            if leave:
                events.append(NodeDecommission(at=end, node=spare))
            membership_used.add(spare)
            return True
        raise AssertionError(f"unknown action kind {kind!r}")


def validate_schedule(schedule: FaultSchedule, *, horizon: float) -> None:
    """Raise :class:`ScheduleValidationError` unless ``schedule`` is sane.

    Sanity means: every window (crashes included) heals by
    ``HEAL_FRACTION * horizon``; windows of one :func:`_window_key` never
    overlap (a node's crashes, a site's outages, one pair's loss / slow-WAN /
    congestion windows); and no crash window intersects its datacenter's
    outage.

    Membership events carry two rules of their own: every bootstrap /
    decommission must *begin* by the heal cap (the transition then has the
    run's convergence tail to complete or be aborted in), and consecutive
    membership events for the same node must alternate in kind -- two
    bootstraps (or two decommissions) of one node in a row necessarily
    describe an overlapping or invalid join/leave.
    """
    cap = HEAL_FRACTION * horizon + 1e-9
    windows: Dict[tuple, List[Tuple[float, float]]] = {}
    last_membership: Dict[NodeAddress, str] = {}

    for event in schedule.events:
        if event.at < 0:
            raise ScheduleValidationError(f"event before time zero: {event!r}")

    for event in sorted(schedule.events, key=lambda e: (e.at, type(e).__name__)):
        if isinstance(event, (NodeBootstrap, NodeDecommission)):
            kind = "bootstrap" if isinstance(event, NodeBootstrap) else "decommission"
            if event.at > cap:
                raise ScheduleValidationError(
                    f"{kind} of {event.node} at {event.at} past heal cap {cap:.3f}"
                )
            if last_membership.get(event.node) == kind:
                raise ScheduleValidationError(
                    f"consecutive {kind} events for {event.node} (overlapping join/leave)"
                )
            last_membership[event.node] = kind
            continue
        duration = getattr(event, "duration", None)
        if duration is None:
            raise ScheduleValidationError(f"unhealed fault window: {event!r}")
        end = event.at + duration
        if end > cap:
            raise ScheduleValidationError(
                f"window ending at {end:.3f} past heal cap {cap:.3f}: {event!r}"
            )
        key = _window_key(event)
        if key is None:
            continue
        if _overlaps(windows.get(key, ()), event.at, end):
            raise ScheduleValidationError(f"overlapping {key[0]} windows on {key[1]}")
        windows.setdefault(key, []).append((event.at, end))

    for (kind, node), spans in windows.items():
        if kind != "node":
            continue
        for start, end in spans:
            if _overlaps(windows.get(("dc", node.datacenter), ()), start, end):
                raise ScheduleValidationError(
                    f"crash of {node} overlaps outage of {node.datacenter}"
                )
