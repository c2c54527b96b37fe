"""Bandwidth-aware WAN transfers: per-link capacity shared max-min fair.

The fabric models message *latency*; this module models message *volume*.
Every inter-DC link gets a finite capacity, and large payloads (repair
streams, hint replay, Merkle tree exchanges, injected bulk traffic) become
first-class **transfers** that share that capacity under max-min fairness.
Small foreground messages never enter the scheduler -- they keep the
fabric's fast path and only feel contention through the *residual*
bandwidth used for their serialization delay (see
:meth:`TransferScheduler.foreground_rate`).

Event-driven, not tick-driven
-----------------------------
CloudSim-style bandwidth models re-divide link capacity on a fixed tick.
That couples accuracy to tick rate and costs events even on idle links.
Here rates change only when the *set of contenders* changes:

* a transfer arrives or completes,
* a capacity change (slow-WAN scaling, a partition pausing or aborting
  flows, a group-cap update from the repair policy).

At each such event every active transfer's ``remaining`` is advanced by
``rate * dt`` (progress is exact because rates are piecewise constant),
rates are recomputed by water-filling, and the link's single completion
timer is re-armed for the *earliest* remaining completion.  A generation
counter invalidates stale timers, so each change is O(active transfers)
with no cancellation churn.  The scheduler consumes no randomness -- the
propagation latency of a transfer's delivery is sampled by the fabric at
send time -- so enabling bandwidth modeling keeps same-seed runs
byte-identical.

Fair-share allocation
---------------------
Per link, rates are assigned by classic water-filling (max-min fairness)
over the unpaused transfers, honouring per-transfer rate caps.  Then each
capped *group* (e.g. ``"repair"`` once ``RepairSchedulePolicy`` installs
``wan_budget_bytes_per_s`` as a physical cap) is scaled down to its
aggregate allowance and the freed capacity is re-water-filled over the
transfers of uncapped groups.  Group caps are what turn the repair
budget from accounting into backpressure: repair flows cannot exceed the
budget no matter how many streams are live, so the residual seen by
foreground traffic is bounded below.

Delivery order
--------------
Completed transfers deliver after their sampled propagation latency, with
delivery times clamped monotonically per *direction* of the link --
transfers on one direction never overtake each other (TCP-like), mirroring
the fabric's ``fifo`` clamp for small messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constants import DEFAULT_BANDWIDTH_BYTES_PER_S

__all__ = ["BandwidthConfig", "TransferScheduler", "Transfer"]

#: Transfer group per kind; groups are the unit of aggregate rate caps
#: (:meth:`TransferScheduler.set_group_cap`).
KIND_GROUPS: Mapping[str, str] = {
    "repair_stream": "repair",
    "tree_request": "repair",
    "tree_response": "repair",
    "hint_replay": "hints",
    # Membership range streaming rides the shared background-transfer group
    # so bootstrap traffic competes fairly with other bulk flows.
    "range_stream": "background",
}

#: Group assigned to injected background bulk transfers (wan_congestion).
BACKGROUND_GROUP = "background"

#: Fallback group for transfer kinds without an explicit mapping.
DEFAULT_GROUP = "bulk"

#: Fraction of link capacity always reserved for foreground serialization:
#: the residual rate quoted to the fabric never drops below
#: ``capacity * MIN_FOREGROUND_FRACTION``, so bulk transfers can inflate
#: foreground latency but never starve it entirely.
MIN_FOREGROUND_FRACTION = 0.05

# Remaining-byte tolerance when declaring a transfer complete; progress
# arithmetic is exact in theory (piecewise-constant rates) but float
# division in the completion-time computation can leave dust.
_EPS_BYTES = 1e-6


@dataclass(frozen=True)
class BandwidthConfig:
    """Configuration of the bandwidth model.

    Attributes
    ----------
    capacity_bytes_per_s:
        Default capacity of every inter-DC link (each unordered DC pair is
        one shared link, both directions drawing from the same capacity --
        the WAN bottleneck is the provisioned pipe, not the direction).

    Which messages become transfers is fixed by the fabric
    (:data:`~repro.network.fabric.TRANSFER_KINDS` at or above
    :data:`~repro.network.fabric.TRANSFER_THRESHOLD_BYTES`).
    """

    capacity_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S

    def __post_init__(self) -> None:
        if self.capacity_bytes_per_s <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bytes_per_s!r}")


class Transfer:
    """One in-flight bulk transfer on a link.

    ``message``/``on_delivered`` are set for message-borne transfers and
    ``None`` for injected background traffic.  ``rate`` is the current
    fair-share allocation; ``remaining`` is advanced lazily at each
    allocation event.
    """

    __slots__ = (
        "seq",
        "pair_key",
        "direction",
        "group",
        "total_bytes",
        "remaining",
        "rate",
        "rate_cap",
        "latency",
        "message",
        "on_delivered",
        "paused",
        "started_at",
    )

    def __init__(
        self,
        seq: int,
        pair_key: str,
        direction: Tuple[str, str],
        group: str,
        total_bytes: float,
        latency: float,
        message: Any,
        on_delivered: Optional[Callable],
        rate_cap: Optional[float],
        started_at: float,
    ) -> None:
        self.seq = seq
        self.pair_key = pair_key
        self.direction = direction
        self.group = group
        self.total_bytes = float(total_bytes)
        self.remaining = float(total_bytes)
        self.rate = 0.0
        self.rate_cap = rate_cap
        self.latency = latency
        self.message = message
        self.on_delivered = on_delivered
        self.paused = False
        self.started_at = started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "paused" if self.paused else f"{self.rate:.0f} B/s"
        return (
            f"Transfer(#{self.seq} {self.direction[0]}->{self.direction[1]} "
            f"{self.group} {self.remaining:.0f}/{self.total_bytes:.0f} B, {state})"
        )


class _TransferLink:
    """Shared-capacity state of one unordered DC pair."""

    __slots__ = (
        "key",
        "base_capacity",
        "scale",
        "capacity",
        "active",
        "last_update",
        "allocated",
        "timer_gen",
        "last_delivery",
        "bytes_completed",
    )

    def __init__(self, key: str, base_capacity: float) -> None:
        self.key = key
        self.base_capacity = base_capacity
        self.scale = 1.0
        self.capacity = base_capacity
        self.active: List[Transfer] = []
        self.last_update = 0.0
        self.allocated = 0.0
        #: Bumped on every re-arm; a completion timer carrying an older
        #: generation is stale and returns without touching the link.
        self.timer_gen = 0
        #: Monotone delivery clamp per direction ("a->b" FIFO, like TCP).
        self.last_delivery: Dict[Tuple[str, str], float] = {}
        self.bytes_completed = 0.0


class TransferScheduler:
    """Event-driven max-min fair-share bandwidth scheduler.

    Parameters
    ----------
    engine:
        The simulation engine (timers and ``now``).
    config:
        The :class:`BandwidthConfig` in force.
    deliver:
        ``deliver(message, on_delivered, deliver_at)`` -- invoked when a
        message-borne transfer finishes streaming; the callee (the fabric)
        owns delivery bookkeeping and the sharded-engine seam.
    severed:
        ``severed(src_dc, dst_dc) -> bool`` -- directional partition query
        used when resuming paused transfers on heal.
    stats:
        Object carrying fabric counters; the scheduler bumps
        ``transfers_started`` / ``transfers_completed`` /
        ``transfers_aborted`` / ``transfer_bytes_completed`` and, for
        aborted message transfers, ``dropped`` (so the anti-entropy
        distrust guard sees lost streams exactly like lost messages).
    """

    def __init__(
        self,
        engine,
        config: BandwidthConfig,
        *,
        deliver: Callable[[Any, Optional[Callable], float], None],
        severed: Callable[[str, str], bool],
        stats,
    ) -> None:
        self._engine = engine
        self.config = config
        self._deliver = deliver
        self._severed = severed
        self._stats = stats
        self._links: Dict[str, _TransferLink] = {}
        self._group_caps: Dict[str, float] = {}
        self._seq = 0
        self._background: Dict[int, Transfer] = {}
        self._next_background = 0

    # ------------------------------------------------------------------
    # Link lookup
    # ------------------------------------------------------------------
    @staticmethod
    def pair_key(dc_a: str, dc_b: str) -> str:
        return f"{dc_a}|{dc_b}" if dc_a <= dc_b else f"{dc_b}|{dc_a}"

    def _link(self, dc_a: str, dc_b: str) -> _TransferLink:
        key = self.pair_key(dc_a, dc_b)
        link = self._links.get(key)
        if link is None:
            link = _TransferLink(key, self.config.capacity_bytes_per_s)
            link.last_update = self._engine.now
            self._links[key] = link
        return link

    def group_for_kind(self, kind: str) -> str:
        return KIND_GROUPS.get(kind, DEFAULT_GROUP)

    # ------------------------------------------------------------------
    # Submitting work
    # ------------------------------------------------------------------
    def submit(
        self,
        src_dc: str,
        dst_dc: str,
        size_bytes: float,
        latency: float,
        *,
        message: Any = None,
        on_delivered: Optional[Callable] = None,
        group: str = DEFAULT_GROUP,
        rate_cap: Optional[float] = None,
    ) -> Transfer:
        """Enter a transfer into the fair share of the ``src_dc``/``dst_dc``
        link; message-borne transfers deliver ``latency`` after streaming
        completes."""
        now = self._engine.now
        link = self._link(src_dc, dst_dc)
        self._advance(link, now)
        self._seq += 1
        transfer = Transfer(
            self._seq,
            link.key,
            (src_dc, dst_dc),
            group,
            size_bytes,
            latency,
            message,
            on_delivered,
            rate_cap,
            now,
        )
        link.active.append(transfer)
        self._stats.transfers_started += 1
        self._allocate(link)
        self._arm(link, now)
        return transfer

    def start_background(
        self, dc_a: str, dc_b: str, total_bytes: float, *, rate_cap: Optional[float] = None
    ) -> int:
        """Start an injected bulk transfer (the ``wan_congestion`` fault);
        returns a handle for :meth:`cancel_background`."""
        if total_bytes <= 0:
            raise ValueError(f"background transfer needs positive bytes, got {total_bytes!r}")
        transfer = self.submit(
            dc_a, dc_b, total_bytes, 0.0, group=BACKGROUND_GROUP, rate_cap=rate_cap
        )
        self._next_background += 1
        handle = self._next_background
        self._background[handle] = transfer
        return handle

    def cancel_background(self, handle: int) -> float:
        """Abort a background transfer; returns the bytes left unstreamed
        (0.0 when it already completed)."""
        transfer = self._background.pop(handle, None)
        if transfer is None:
            return 0.0
        link = self._links[transfer.pair_key]
        if transfer not in link.active:
            return 0.0
        now = self._engine.now
        self._advance(link, now)
        self._abort(link, transfer)
        self._allocate(link)
        self._arm(link, now)
        return max(transfer.remaining, 0.0)

    # ------------------------------------------------------------------
    # Capacity / topology change hooks (called by the fabric)
    # ------------------------------------------------------------------
    def on_partition(self, directions: Sequence[Tuple[str, str]], mode: str) -> None:
        """Partitions cut ``directions`` of one link (both for a symmetric
        partition, one for an asymmetric one): ``drop`` aborts every active
        transfer flowing that way, ``park`` pauses them (rate 0) until heal;
        the other direction keeps streaming."""
        link = self._links.get(self.pair_key(*directions[0]))
        if link is None or not link.active:
            return
        now = self._engine.now
        self._advance(link, now)
        affected = [t for t in link.active if t.direction in directions]
        if mode == "drop":
            for transfer in affected:
                self._abort(link, transfer)
        else:  # park
            for transfer in affected:
                transfer.paused = True
        self._allocate(link)
        self._arm(link, now)

    def on_heal(self, dc_a: str, dc_b: str) -> None:
        """The pair (or one direction of it) reopened: resume paused
        transfers whose direction is no longer severed."""
        link = self._links.get(self.pair_key(dc_a, dc_b))
        if link is None:
            return
        now = self._engine.now
        self._advance(link, now)
        changed = False
        for transfer in link.active:
            if transfer.paused and not self._severed(*transfer.direction):
                transfer.paused = False
                changed = True
        if changed:
            self._allocate(link)
            self._arm(link, now)

    def set_capacity_scale(self, dc_a: str, dc_b: str, scale: float) -> None:
        """Slow WAN: divide the pair's capacity by ``scale`` (1.0 restores).

        The same knob that stretches propagation latency narrows the pipe;
        in-flight transfers keep their already-sampled latency but stream
        slower from this instant on.
        """
        if scale <= 0:
            raise ValueError(f"capacity scale must be positive, got {scale!r}")
        link = self._link(dc_a, dc_b)
        now = self._engine.now
        self._advance(link, now)
        link.scale = scale
        link.capacity = link.base_capacity / scale
        self._allocate(link)
        self._arm(link, now)

    def clear_capacity_scales(self) -> None:
        now = self._engine.now
        for link in self._links.values():
            if link.scale != 1.0:
                self._advance(link, now)
                link.scale = 1.0
                link.capacity = link.base_capacity
                self._allocate(link)
                self._arm(link, now)

    def set_group_cap(self, group: str, cap: Optional[float]) -> None:
        """Cap the aggregate rate of one transfer group on every link
        (``None`` clears).  This is the repair policy's physical throttle:
        ``set_group_cap("repair", wan_budget_bytes_per_s)``."""
        if cap is not None and cap < 0:
            raise ValueError(f"group cap must be non-negative, got {cap!r}")
        if cap is None:
            self._group_caps.pop(group, None)
        else:
            self._group_caps[group] = float(cap)
        now = self._engine.now
        for link in self._links.values():
            if link.active:
                self._advance(link, now)
                self._allocate(link)
                self._arm(link, now)

    def group_cap(self, group: str) -> Optional[float]:
        return self._group_caps.get(group)

    # ------------------------------------------------------------------
    # Observability (read-only; polling advances progress but not rates)
    # ------------------------------------------------------------------
    def foreground_rate(self, src_dc: str, dst_dc: str) -> float:
        """Residual bandwidth quoted to foreground serialization on the
        pair: capacity minus allocated transfer rate, floored at
        ``MIN_FOREGROUND_FRACTION`` of capacity."""
        link = self._links.get(self.pair_key(src_dc, dst_dc))
        if link is None:
            return self.config.capacity_bytes_per_s
        if not link.active:
            return link.capacity
        residual = link.capacity - link.allocated
        floor = link.capacity * MIN_FOREGROUND_FRACTION
        return residual if residual > floor else floor

    def backlog_bytes(self, dc_a: Optional[str] = None, dc_b: Optional[str] = None) -> float:
        """Unstreamed bytes queued on one pair (or every link when no pair
        is named), advanced to the current instant."""
        now = self._engine.now
        if dc_a is not None:
            link = self._links.get(self.pair_key(dc_a, dc_b))
            if link is None:
                return 0.0
            self._advance(link, now)
            return sum(max(t.remaining, 0.0) for t in link.active)
        total = 0.0
        for link in self._links.values():
            self._advance(link, now)
            total += sum(max(t.remaining, 0.0) for t in link.active)
        return total

    def drain_estimate(self, dc_a: str, dc_b: str) -> float:
        """Seconds to stream the pair's current backlog at full capacity --
        a lower bound used to pace repair issue."""
        link = self._links.get(self.pair_key(dc_a, dc_b))
        if link is None or link.capacity <= 0:
            return 0.0
        return self.backlog_bytes(dc_a, dc_b) / link.capacity

    def active_count(self, dc_a: Optional[str] = None, dc_b: Optional[str] = None) -> int:
        if dc_a is not None:
            link = self._links.get(self.pair_key(dc_a, dc_b))
            return len(link.active) if link is not None else 0
        return sum(len(link.active) for link in self._links.values())

    def messages_streaming(self) -> int:
        """Message-borne transfers not yet complete or aborted (paused ones
        included): messages the fabric has sent but not delivered."""
        return sum(
            1 for link in self._links.values() for t in link.active if t.message is not None
        )

    # ------------------------------------------------------------------
    # Core: advance / allocate / arm
    # ------------------------------------------------------------------
    def _advance(self, link: _TransferLink, now: float) -> None:
        """Advance every active transfer by the elapsed interval at the
        rates in force (exact: rates are piecewise constant)."""
        dt = now - link.last_update
        if dt <= 0.0:
            return
        link.last_update = now
        if link.allocated > 0.0:
            for transfer in link.active:
                rate = transfer.rate
                if rate > 0.0:
                    transfer.remaining -= rate * dt

    def _allocate(self, link: _TransferLink) -> None:
        """Recompute fair-share rates: water-fill over unpaused transfers,
        then enforce group caps and re-fill the freed capacity over the
        uncapped groups."""
        for transfer in link.active:
            transfer.rate = 0.0
        runnable = [t for t in link.active if not t.paused]
        if not runnable:
            link.allocated = 0.0
            return
        _water_fill(runnable, link.capacity)
        if self._group_caps:
            for group in sorted(self._group_caps):
                cap = self._group_caps[group]
                members = [t for t in runnable if t.group == group]
                if not members:
                    continue
                total = sum(t.rate for t in members)
                if total <= cap or total <= 0.0:
                    continue
                # Scale the group down to its allowance (proportional, so
                # intra-group fairness is preserved) and hand the freed
                # capacity to transfers of uncapped groups.
                factor = cap / total
                for t in members:
                    t.rate *= factor
                freed = total - cap
                others = [t for t in runnable if t.group not in self._group_caps]
                if others and freed > 0.0:
                    _water_fill(others, sum(t.rate for t in others) + freed)
        link.allocated = sum(t.rate for t in runnable)

    def _arm(self, link: _TransferLink, now: float) -> None:
        """Re-arm the link's single completion timer for the earliest
        remaining completion (stale timers are invalidated by generation)."""
        link.timer_gen += 1
        next_dt: Optional[float] = None
        for transfer in link.active:
            rate = transfer.rate
            if rate <= 0.0:
                continue
            remaining = transfer.remaining
            dt = 0.0 if remaining <= _EPS_BYTES else remaining / rate
            if next_dt is None or dt < next_dt:
                next_dt = dt
        if next_dt is not None:
            engine = self._engine
            engine.call_at(engine.now + next_dt, self._fire, link, link.timer_gen)

    def _fire(self, link: _TransferLink, gen: int) -> None:
        if gen != link.timer_gen:
            return
        now = self._engine.now
        self._advance(link, now)
        done = [t for t in link.active if not t.paused and t.remaining <= _EPS_BYTES]
        for transfer in done:
            self._complete(link, transfer, now)
        self._allocate(link)
        self._arm(link, now)

    def _complete(self, link: _TransferLink, transfer: Transfer, now: float) -> None:
        link.active.remove(transfer)
        link.bytes_completed += transfer.total_bytes
        stats = self._stats
        stats.transfers_completed += 1
        stats.transfer_bytes_completed += transfer.total_bytes
        if transfer.message is None:
            return
        deliver_at = now + transfer.latency
        last = link.last_delivery.get(transfer.direction, 0.0)
        if deliver_at < last:
            deliver_at = last
        link.last_delivery[transfer.direction] = deliver_at
        self._deliver(transfer.message, transfer.on_delivered, deliver_at)

    def _abort(self, link: _TransferLink, transfer: Transfer) -> None:
        link.active.remove(transfer)
        stats = self._stats
        stats.transfers_aborted += 1
        if transfer.message is not None:
            # A mid-stream partition kills the stream like a lost message;
            # counting into ``dropped`` keeps the anti-entropy distrust
            # guard honest about lost repair data.
            stats.dropped += 1


def _water_fill(transfers: List[Transfer], capacity: float) -> None:
    """Max-min fair allocation of ``capacity`` over ``transfers`` honouring
    per-transfer ``rate_cap``; writes each transfer's ``rate``."""
    if capacity <= 0.0:
        for t in transfers:
            t.rate = 0.0
        return
    unfixed = list(transfers)
    remaining = capacity
    while unfixed:
        fair = remaining / len(unfixed)
        capped = [t for t in unfixed if t.rate_cap is not None and t.rate_cap <= fair]
        if not capped:
            for t in unfixed:
                t.rate = fair
            return
        for t in capped:
            t.rate = t.rate_cap
            remaining -= t.rate_cap
        if remaining < 0.0:
            remaining = 0.0
        fixed = set(id(t) for t in capped)
        unfixed = [t for t in unfixed if id(t) not in fixed]
