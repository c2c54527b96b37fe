"""Reference audit history: one key's acknowledged versions as lists of tuples.

This is the per-key history ``repro.staleness.auditor`` kept before it became
typed columns: a list of ack times and a list of ``(timestamp, value_id)``
versions, searched with ``bisect`` over the tuples.  :func:`judge` is the
auditor's verdict on one read against it -- stale / fresh / unknown, the
staleness age and the version lag ``k`` -- so a difference between this and
the columns shows up as a failing property
(``tests/properties/test_auditor_equivalence.py``).
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

Version = Tuple[float, int]


class KeyHistory:
    """Acknowledged-write history of one key (both lists grow monotonically)."""

    def __init__(self) -> None:
        self.ack_times: List[float] = []
        self.versions: List[Version] = []

    def record(self, ack_time: float, version: Version) -> None:
        """Append an acknowledgement; keeps the version sequence monotone."""
        if self.versions and version <= self.versions[-1]:
            return
        if self.ack_times and ack_time < self.ack_times[-1]:
            ack_time = self.ack_times[-1]
        self.ack_times.append(ack_time)
        self.versions.append(version)

    def acked_before(self, time: float) -> int:
        """Number of versions acknowledged strictly before ``time``."""
        return bisect.bisect_left(self.ack_times, time)

    def lag_of(self, version: Version, acked: int) -> int:
        """How many of the first ``acked`` versions are newer than ``version``."""
        return acked - bisect.bisect_right(self.versions, version, 0, acked)

    def newest(self) -> Optional[Version]:
        return self.versions[-1] if self.versions else None


def judge(
    history: KeyHistory, started_at: float, returned: Optional[Version]
) -> Tuple[Optional[bool], Optional[float], Optional[int]]:
    """``(verdict, age, k)`` of a read started at ``started_at`` that returned
    ``returned`` (``None``: a miss).  Age and ``k`` are ``None`` unless stale."""
    acked = history.acked_before(started_at)
    if acked == 0:
        return None, None, None
    age = started_at - history.ack_times[acked - 1]
    if returned is None:
        return True, age, acked
    if returned < history.versions[acked - 1]:
        return True, age, history.lag_of(returned, acked)
    return False, None, None
