"""Ground-truth staleness auditor.

Definition used (matching the paper's measurement): a read of key ``k`` is
**stale** when the cell it returns is older than the newest write of ``k``
that had already been acknowledged to a client *before the read was issued*.
Writes acknowledged while the read is in flight do not make it stale --
the read could not have been expected to observe them.

Protocol with the workload executor:

1. when a write completes, the executor calls :meth:`observe_write`; the
   auditor appends ``(ack_time, cell_version)`` to the key's history;
2. when a read completes, the executor calls :meth:`judge`, which looks up
   the newest write acknowledged strictly before the read's ``started_at``
   and compares it with the returned cell.  The verdict is ``True`` (stale),
   ``False`` (fresh) or ``None`` (no acknowledged prior write, so freshness
   is undefined and the read is excluded from the rate).

Because the expected version is resolved from the read's own start time, the
verdict is independent of the completion order of concurrent reads -- a
property the tests rely on (a strongly consistent configuration must report
exactly zero stale reads).

Beyond the boolean verdict, every judged read is quantified (PBS-style,
see :mod:`repro.staleness.stats`):

* **staleness age** -- read start minus the ack time of the newest write
  acknowledged before the read started (0 for fresh reads);
* **version lag k** -- how many acknowledged-before-start versions are newer
  than the returned cell (0 for fresh reads; a miss on a written key counts
  every acknowledged version as missed).

Each verdict, unknown ones included, updates one aggregate per scope:
:attr:`StalenessAuditor.stats` (cluster-wide) and
:attr:`StalenessAuditor.stats_by_dc` (keyed by the datacenter of the
coordinator that served the read, in first-read order).  They are the run's
only staleness account: the executor hands them to its metrics as they are.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Dict, List, Optional, Tuple

from repro.cluster.coordinator import OperationResult
from repro.staleness.stats import StalenessStats

__all__ = ["StalenessAuditor"]

#: A cell version: (write timestamp, value id) -- the last-write-wins key.
Version = Tuple[float, int]


class _KeyHistory:
    """Acknowledged-write history of one key: one row (ack time, timestamp,
    value id) per version that moved it forward, in three parallel columns.
    Ack times never decrease and versions strictly increase."""

    __slots__ = ("ack_times", "timestamps", "value_ids")

    def __init__(self) -> None:
        self.ack_times = array("d")
        self.timestamps = array("d")
        self.value_ids = array("q")

    def record(self, ack_time: float, version: Version) -> None:
        """Append an acknowledgement; keeps the version sequence monotone."""
        ack_times = self.ack_times
        if ack_times and version <= (self.timestamps[-1], self.value_ids[-1]):
            # A slower write acknowledged after a newer one: it does not move
            # the "newest acknowledged version" forward, so skip it.
            return
        if ack_times and ack_time < ack_times[-1]:
            ack_time = ack_times[-1]
        ack_times.append(ack_time)
        self.timestamps.append(version[0])
        self.value_ids.append(version[1])

    def acked_before(self, time: float) -> int:
        """Number of versions acknowledged strictly before ``time``."""
        return bisect.bisect_left(self.ack_times, time)

    def lag_of(self, version: Version, acked: int) -> int:
        """Version lag of ``version`` among the first ``acked`` versions.

        How many of the ``acked`` acknowledged-before-read versions are
        strictly newer than the returned one: bisect the timestamps, then the
        value ids among the rows with the returned timestamp.
        """
        timestamp, value_id = version
        timestamps = self.timestamps
        low = bisect.bisect_left(timestamps, timestamp, 0, acked)
        high = bisect.bisect_right(timestamps, timestamp, low, acked)
        return acked - bisect.bisect_right(self.value_ids, value_id, low, high)

    def newest(self) -> Optional[Version]:
        return (self.timestamps[-1], self.value_ids[-1]) if self.ack_times else None


class StalenessAuditor:
    """Tracks acknowledged writes and judges read freshness.

    The auditor is deliberately independent of the cluster internals: it only
    consumes the :class:`OperationResult` objects the executor already has,
    so it imposes zero simulated cost and does not perturb the run (unlike
    the paper's dual-read methodology, which the authors note changes the
    latency, the throughput and the monitoring inputs).
    """

    def __init__(self) -> None:
        self._history: Dict[str, _KeyHistory] = {}
        self.writes_observed = 0
        #: Cluster-wide verdict counts and staleness-age / version-lag aggregates.
        self.stats = StalenessStats()
        #: Per-datacenter aggregates, keyed by the coordinator's datacenter;
        #: a site's scope is created at its first read, whatever the verdict.
        self.stats_by_dc: Dict[str, StalenessStats] = {}

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def observe_write(self, result: OperationResult) -> None:
        """Record a client-acknowledged write (or read-modify-write)."""
        if result.cell is None:
            return
        self.writes_observed += 1
        history = self._history.get(result.key)
        if history is None:
            history = self._history[result.key] = _KeyHistory()
        history.record(result.completed_at, (result.cell.timestamp, result.cell.value_id))

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def judge(self, key: str, result: OperationResult) -> Optional[bool]:
        """Return the staleness verdict for a completed read.

        ``True``  -- stale (an acknowledged newer write existed at issue time),
        ``False`` -- fresh,
        ``None``  -- no acknowledged write existed before the read was issued.
        """
        datacenter = result.datacenter
        by_dc: Optional[StalenessStats] = None
        if datacenter is not None:
            by_dc = self.stats_by_dc.get(datacenter)
            if by_dc is None:
                by_dc = self.stats_by_dc[datacenter] = StalenessStats()
        history = self._history.get(key)
        acked = history.acked_before(result.started_at) if history else 0
        if acked == 0:
            self.stats.record_unknown()
            if by_dc is not None:
                by_dc.record_unknown()
            return None
        assert history is not None
        expected = (history.timestamps[acked - 1], history.value_ids[acked - 1])
        cell = result.cell
        if cell is None:
            # The key had an acknowledged write but the read saw nothing at
            # all: that is the most stale a read can be -- it missed every
            # acknowledged version.
            k = acked
        else:
            version = (cell.timestamp, cell.value_id)
            if version >= expected:
                self.stats.record_fresh()
                if by_dc is not None:
                    by_dc.record_fresh()
                return False
            k = history.lag_of(version, acked)
        # The newest missed write is exactly the expected version: its ack
        # time is strictly before the read's start (bisect_left semantics),
        # so the age is strictly positive.
        age = result.started_at - history.ack_times[acked - 1]
        self.stats.record_stale(age, k)
        if by_dc is not None:
            by_dc.record_stale(age, k)
        return True

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def newest_acknowledged(self, key: str) -> Optional[Version]:
        """The newest acknowledged (timestamp, value_id) for ``key``, if any."""
        history = self._history.get(key)
        return history.newest() if history else None

    def audited_keys(self) -> List[str]:
        """Keys with at least one acknowledged write on record.

        The chaos invariant checker walks this to assert every acked write
        is still readable after heal and repair."""
        return [key for key, history in self._history.items() if history.ack_times]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StalenessAuditor(judged={self.stats.judged_reads}, "
            f"stale={self.stats.stale_reads}, rate={self.stats.stale_rate():.3f})"
        )
