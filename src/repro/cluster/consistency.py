"""Consistency levels and quorum arithmetic.

Cassandra expresses per-operation consistency as either a named level
(ONE, TWO, THREE, QUORUM, ALL, ...) or -- conceptually -- as the number of
replicas that must acknowledge the operation before the coordinator replies
to the client.  Harmony's adaptive module computes a *replica count* ``Xn``
and maps it onto the closest level, so this module supports both views:

* :class:`ConsistencyLevel` is the named enumeration;
* :func:`level_for_replicas` converts a replica count into a level;
* :meth:`ConsistencyLevel.blocked_for` converts a level back into the number
  of replicas the coordinator must block for, given the replication factor.

Geo-replication adds the *datacenter-aware* levels of modern Cassandra:

* ``LOCAL_ONE`` / ``LOCAL_QUORUM`` block only on replicas in the
  coordinator's own datacenter (remote datacenters converge asynchronously
  over the WAN);
* ``EACH_QUORUM`` blocks on a quorum in *every* datacenter.  Real Cassandra
  restricts ``EACH_QUORUM`` to writes (reads with it raise
  ``InvalidRequest``); the simulator additionally supports ``EACH_QUORUM``
  *reads* as a deliberate extension, so the geo evaluation can bracket the
  latency/staleness spectrum with a strongest-possible partial-quorum read.

These levels have no single blocked-for count -- the requirement is a map
from datacenter to acknowledgement count, computed by
:func:`blocked_for_datacenters` from the per-DC replica counts of the key.
:func:`local_level_for_replicas` is the geo analogue of
:func:`level_for_replicas`: it maps a per-DC replica count chosen by the
Harmony model onto the cheapest DC-aware level that covers it.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Mapping

__all__ = [
    "ConsistencyLevel",
    "quorum_size",
    "level_for_replicas",
    "local_level_for_replicas",
    "blocked_for_datacenters",
    "is_strongly_consistent",
]


def quorum_size(replication_factor: int) -> int:
    """The quorum for a replication factor: ``floor(RF / 2) + 1``.

    This is the formula from the paper's Section II (and Cassandra's
    definition).  With ``RF = 5`` the quorum is 3.
    """
    if replication_factor < 1:
        raise ValueError(f"replication factor must be >= 1, got {replication_factor!r}")
    return replication_factor // 2 + 1


class ConsistencyLevel(enum.Enum):
    """Per-operation consistency levels, mirroring Cassandra 1.0.

    ``ANY`` is accepted for writes only (a hint on any node satisfies it);
    it is included for interface completeness but the Harmony controller
    never selects it.  ``LOCAL_ONE``, ``LOCAL_QUORUM`` and ``EACH_QUORUM``
    are datacenter-aware: their blocked-for requirement depends on how the
    key's replicas are spread over datacenters, so :meth:`blocked_for`
    rejects them -- coordinators resolve them through
    :func:`blocked_for_datacenters` instead.
    """

    ANY = "ANY"
    ONE = "ONE"
    TWO = "TWO"
    THREE = "THREE"
    QUORUM = "QUORUM"
    ALL = "ALL"
    LOCAL_ONE = "LOCAL_ONE"
    LOCAL_QUORUM = "LOCAL_QUORUM"
    EACH_QUORUM = "EACH_QUORUM"

    #: Members hash by identity, as ``Enum`` compares them: a C-level slot
    #: where ``Enum.__hash__`` is a Python call, paid on every operation by
    #: the coordinator's and the control plane's tables keyed by level.
    __hash__ = object.__hash__

    # ------------------------------------------------------------------
    def blocked_for(self, replication_factor: int) -> int:
        """Number of replica acknowledgements the coordinator waits for.

        Raises
        ------
        ValueError
            If the level requires more replicas than the replication factor
            provides (e.g. ``THREE`` with ``RF = 2``), matching Cassandra's
            ``UnavailableException`` semantics at request time.
        """
        rf = int(replication_factor)
        if rf < 1:
            raise ValueError(f"replication factor must be >= 1, got {replication_factor!r}")
        if self.is_datacenter_aware:
            raise ValueError(
                f"consistency level {self.value} is datacenter-aware; its blocked-for "
                "requirement depends on the per-DC replica layout -- use "
                "blocked_for_datacenters()"
            )
        if self is ConsistencyLevel.ANY:
            required = 1
        elif self is ConsistencyLevel.ONE:
            required = 1
        elif self is ConsistencyLevel.TWO:
            required = 2
        elif self is ConsistencyLevel.THREE:
            required = 3
        elif self is ConsistencyLevel.QUORUM:
            required = quorum_size(rf)
        elif self is ConsistencyLevel.ALL:
            required = rf
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown consistency level {self!r}")
        if required > rf:
            raise ValueError(
                f"consistency level {self.value} requires {required} replicas but the "
                f"replication factor is only {rf}"
            )
        return required

    @property
    def is_write_only(self) -> bool:
        """``ANY`` can only be used for writes."""
        return self is ConsistencyLevel.ANY

    @property
    def is_datacenter_aware(self) -> bool:
        """Whether the blocked-for requirement depends on the DC layout."""
        return self in (
            ConsistencyLevel.LOCAL_ONE,
            ConsistencyLevel.LOCAL_QUORUM,
            ConsistencyLevel.EACH_QUORUM,
        )

    def __str__(self) -> str:
        return self.value


def level_for_replicas(replicas: int, replication_factor: int) -> ConsistencyLevel:
    """Map a replica count onto the smallest named level that covers it.

    Harmony computes a real-valued ``Xn`` and rounds it up; this helper then
    chooses the Cassandra level whose blocked-for count is the smallest one
    that is ``>= replicas``.  Counts above the replication factor are clamped
    to ``ALL``; counts below one are clamped to ``ONE``.
    """
    rf = int(replication_factor)
    if rf < 1:
        raise ValueError(f"replication factor must be >= 1, got {replication_factor!r}")
    count = int(math.ceil(replicas))
    count = max(1, min(count, rf))
    if count == rf:
        # Asking for every replica is, semantically, strong consistency.
        return ConsistencyLevel.ALL
    candidates = [
        ConsistencyLevel.ONE,
        ConsistencyLevel.TWO,
        ConsistencyLevel.THREE,
        ConsistencyLevel.QUORUM,
        ConsistencyLevel.ALL,
    ]
    best: ConsistencyLevel | None = None
    best_blocked = None
    for level in candidates:
        try:
            blocked = level.blocked_for(rf)
        except ValueError:
            continue
        if blocked >= count and (best_blocked is None or blocked < best_blocked):
            best = level
            best_blocked = blocked
    if best is None:  # pragma: no cover - ALL always satisfies count <= rf
        best = ConsistencyLevel.ALL
    return best


def blocked_for_datacenters(
    level: ConsistencyLevel, replicas_by_dc: Mapping[str, int], local_dc: str
) -> Dict[str, int]:
    """Per-datacenter acknowledgement requirement of a DC-aware level.

    Parameters
    ----------
    level:
        One of ``LOCAL_ONE``, ``LOCAL_QUORUM`` or ``EACH_QUORUM``.
    replicas_by_dc:
        How many replicas of the key live in each datacenter (datacenters
        holding no replica may be present with count 0 or absent).
    local_dc:
        The coordinator's datacenter (what "local" resolves against).

    Returns
    -------
    Dict[str, int]
        Datacenter -> number of acknowledgements the coordinator must block
        for.  Only datacenters with a requirement appear.

    Raises
    ------
    ValueError
        For non-DC-aware levels, and when the requirement is unsatisfiable
        (no local replicas for a LOCAL level), matching Cassandra's
        ``UnavailableException`` semantics at request time.
    """
    if not level.is_datacenter_aware:
        raise ValueError(
            f"consistency level {level.value} is not datacenter-aware; use blocked_for()"
        )
    counts = {dc: int(n) for dc, n in replicas_by_dc.items() if int(n) > 0}
    if any(n < 0 for n in replicas_by_dc.values()):
        raise ValueError(f"replica counts must be non-negative, got {dict(replicas_by_dc)!r}")
    if not counts:
        raise ValueError("the key has no replicas in any datacenter")
    if level is ConsistencyLevel.EACH_QUORUM:
        return {dc: quorum_size(n) for dc, n in counts.items()}
    local = counts.get(local_dc, 0)
    if local < 1:
        raise ValueError(
            f"consistency level {level.value} requires replicas in the coordinator's "
            f"datacenter {local_dc!r} but the key has none there"
        )
    if level is ConsistencyLevel.LOCAL_ONE:
        return {local_dc: 1}
    return {local_dc: quorum_size(local)}


def local_level_for_replicas(replicas: int, local_replication_factor: int) -> ConsistencyLevel:
    """Map a per-DC replica count onto the cheapest level covering it.

    This is the geo analogue of :func:`level_for_replicas`: the per-DC
    Harmony controller computes ``Xn`` against the *local* replication
    factor and needs a level the coordinator can execute.  One replica is
    ``LOCAL_ONE``; anything up to the local quorum is ``LOCAL_QUORUM``.
    Beyond the local quorum no named level blocks on more local replicas
    without blocking on every replica -- ``EACH_QUORUM`` only waits for a
    local *quorum*, fewer local replicas than the model demanded -- so the
    mapping escalates to ``ALL``, whose blocked-for set contains all
    ``Xn`` local replicas (plus every remote one) and therefore dominates
    the requirement.
    """
    rf = int(local_replication_factor)
    if rf < 1:
        raise ValueError(
            f"local replication factor must be >= 1, got {local_replication_factor!r}"
        )
    count = int(math.ceil(replicas))
    count = max(1, min(count, rf))
    if count <= 1:
        return ConsistencyLevel.LOCAL_ONE
    if count <= quorum_size(rf):
        return ConsistencyLevel.LOCAL_QUORUM
    return ConsistencyLevel.ALL


def is_strongly_consistent(
    read_level: ConsistencyLevel, write_level: ConsistencyLevel, replication_factor: int
) -> bool:
    """Whether ``R + W > N`` holds, guaranteeing reads observe the latest write.

    This is the classic quorum-intersection condition; the integration tests
    use it as an oracle (a configuration satisfying it must never produce a
    stale read in the simulator).
    """
    r = read_level.blocked_for(replication_factor)
    w = write_level.blocked_for(replication_factor)
    return r + w > replication_factor
