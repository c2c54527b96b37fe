"""Geo-aware level policies, as constructors.

The executor's client threads can be pinned to datacenters (see
``WorkloadExecutor(datacenters=...)``); every level policy answers
``read_level(datacenter)`` / ``write_level(datacenter)``, and the one rule
that resolves a datacenter to a level -- pinned to a replica-holding site,
pinned to a replica-less one, unpinned -- is
:func:`repro.control.plane.resolve_level`.  The classes live in
:mod:`repro.control`; the names here build them with geo defaults:

* :func:`GeoHarmonyPolicy` -- a
  :class:`~repro.control.policies.GeoReadPolicy`: every site's reads follow
  that site's own adaptive decision;
* :func:`GeoHarmonyRWPolicy` -- a
  :class:`~repro.control.policies.GeoReadWritePolicy`: each site's reads
  *and* writes follow the cost-optimal ``(X, W)`` pair that meets the
  site's tolerated stale rate;
* :func:`StaticGeoPolicy` -- every operation at one fixed DC-aware level
  (``LOCAL_QUORUM``, ``EACH_QUORUM``, ...): the static baselines the geo
  benchmark compares against.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import LevelPolicy, site_agnostic_level
from repro.control.policies import GeoReadPolicy, GeoReadWritePolicy
from repro.core.config import HarmonyConfig

__all__ = [
    "GeoHarmonyPolicy",
    "GeoHarmonyRWPolicy",
    "StaticGeoPolicy",
    "site_agnostic_level",
]


def StaticGeoPolicy(
    read: ConsistencyLevel = ConsistencyLevel.LOCAL_QUORUM,
    write: ConsistencyLevel = ConsistencyLevel.LOCAL_ONE,
) -> LevelPolicy:
    """Fixed (possibly DC-aware) read/write levels for every datacenter."""
    return LevelPolicy(read, write, name=f"static-geo({read.value}/{write.value})")


def GeoHarmonyPolicy(
    tolerated_stale_rates: Optional[Mapping[str, float]] = None,
    config: Optional[HarmonyConfig] = None,
    write: ConsistencyLevel = ConsistencyLevel.LOCAL_ONE,
) -> GeoReadPolicy:
    """Per-datacenter adaptive reads: one stale-read model instance per site.

    ``tolerated_stale_rates`` overrides the ASR per datacenter (sites
    without an entry use ``config.tolerated_stale_rate``); writes stay at
    ``write`` (``LOCAL_ONE``: acknowledge on one local replica, replicate
    across the WAN asynchronously).
    """
    return GeoReadPolicy(config, tolerated_stale_rates, write=write)


def GeoHarmonyRWPolicy(
    tolerated_stale_rates: Optional[Mapping[str, float]] = None,
    config: Optional[HarmonyConfig] = None,
) -> GeoReadWritePolicy:
    """Joint per-datacenter read *and* write adaptation.

    Read-heavy sites push the consistency burden onto their rare writes
    (reads stay at ``LOCAL_ONE``); write-heavy sites keep the paper's
    read-led behaviour.
    """
    return GeoReadWritePolicy(config, tolerated_stale_rates)
