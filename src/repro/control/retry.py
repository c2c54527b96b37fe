"""Client-side retry policies: the control plane's answer to Unavailable.

A coordinator that provably cannot meet a consistency requirement rejects
the operation up front (Cassandra's ``UnavailableException``); what the
*client* does next is application policy.  Real drivers expose exactly this
seam (the DataStax driver's ``RetryPolicy.onUnavailable``), and the classic
production answer is to **downgrade**: an ``EACH_QUORUM`` write that cannot
reach a quorum in a partitioned datacenter is retried at ``LOCAL_QUORUM``,
trading cross-DC durability for availability and *metering the trade* so
the operator sees it happen.

Two policies ship:

* :class:`RetryPolicy` -- the default: never retry, back off
  :data:`BACKOFF_INITIAL` (50 ms) before the next operation;
* :class:`DowngradeRetryPolicy` -- retry up to ``max_retries`` times with
  exponential backoff, downgrading the consistency level along a
  configurable ladder (default: ``EACH_QUORUM -> LOCAL_QUORUM``).

Backoff delays are a fixed schedule (:func:`backoff_delay`): no randomness
is consumed, so same-seed runs stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.cluster.consistency import ConsistencyLevel

__all__ = ["RetryDecision", "RetryPolicy", "DowngradeRetryPolicy"]

#: Exponential backoff: the delay before attempt ``k + 1`` (after the
#: ``k``-th failure, counted from 0) is
#: ``min(BACKOFF_MAX_DELAY, BACKOFF_INITIAL * BACKOFF_MULTIPLIER**k)``.
BACKOFF_INITIAL = 0.05
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX_DELAY = 1.0


def backoff_delay(attempt: int) -> float:
    """Backoff in seconds after the ``attempt``-th failure (0-based)."""
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    return min(BACKOFF_MAX_DELAY, BACKOFF_INITIAL * BACKOFF_MULTIPLIER**attempt)


@dataclass(frozen=True)
class RetryDecision:
    """What the client should do after one Unavailable rejection.

    ``retry=False`` surfaces the failure to the workload (after ``backoff``
    seconds, matching the old post-failure pause); ``retry=True`` re-issues
    the operation after ``backoff`` seconds, at ``level`` if given (a
    *downgrade*, metered by the executor) or at the original level.
    """

    retry: bool
    backoff: float
    level: Optional[ConsistencyLevel] = None


class RetryPolicy:
    """Default policy: no retries, back off before the next operation."""

    name = "no-retry"

    def on_unavailable(
        self,
        level: Optional[ConsistencyLevel],
        attempt: int,
        *,
        datacenter: Optional[str] = None,
    ) -> RetryDecision:
        """Decide after the ``attempt``-th Unavailable of one operation."""
        return RetryDecision(retry=False, backoff=backoff_delay(attempt))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


#: The downgrade every real application reaches for first: give up cross-DC
#: synchrony, keep local quorum durability.
DEFAULT_LADDER: Mapping[ConsistencyLevel, ConsistencyLevel] = {
    ConsistencyLevel.EACH_QUORUM: ConsistencyLevel.LOCAL_QUORUM,
}


class DowngradeRetryPolicy(RetryPolicy):
    """Retry with exponential backoff, downgrading along a level ladder.

    Parameters
    ----------
    ladder:
        Level -> weaker level to retry at.  Levels not in the ladder are
        retried unchanged (the outage may be transient).  Default:
        ``EACH_QUORUM -> LOCAL_QUORUM``.
    max_retries:
        Retries per operation before the failure is surfaced.
    """

    name = "downgrade"

    def __init__(
        self,
        ladder: Optional[Mapping[ConsistencyLevel, ConsistencyLevel]] = None,
        max_retries: int = 3,
    ) -> None:
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        self.ladder: Dict[ConsistencyLevel, ConsistencyLevel] = dict(
            DEFAULT_LADDER if ladder is None else ladder
        )
        for source, target in self.ladder.items():
            if source is target:
                raise ValueError(f"ladder maps {source} onto itself")
        self.max_retries = int(max_retries)

    def on_unavailable(
        self,
        level: Optional[ConsistencyLevel],
        attempt: int,
        *,
        datacenter: Optional[str] = None,
    ) -> RetryDecision:
        delay = backoff_delay(attempt)
        if attempt >= self.max_retries:
            return RetryDecision(retry=False, backoff=delay)
        downgraded = self.ladder.get(level) if level is not None else None
        return RetryDecision(retry=True, backoff=delay, level=downgraded)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rungs = ", ".join(f"{a.value}->{b.value}" for a, b in self.ladder.items())
        return f"DowngradeRetryPolicy([{rungs}], max_retries={self.max_retries})"
