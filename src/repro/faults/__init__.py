"""Fault injection: node crashes, datacenter outages and WAN partitions.

Harmony's promise is a *bounded* stale-read rate, and the interesting bound
is the one that holds while the world is on fire: a site losing power, a
transatlantic link flapping, a node rejoining with cold replicas.  This
package turns the simulator into that adversarial testbed.  It has two
parts:

:mod:`repro.faults.schedule`
    :class:`FaultSchedule` / :class:`FaultInjector` -- declarative, seeded,
    replayable failure timelines (:class:`NodeCrash`,
    :class:`DatacenterOutage`, :class:`DatacenterPartition`,
    :class:`DatacenterIsolation`, ...).  Every fault is one event; one with
    a ``duration`` undoes itself that long after it began (a crashed node
    restarts, a partition heals).  Partitions act at the **fabric** level:
    cross-DC messages are dropped or parked while both sides keep serving
    their own clients, and on heal the fabric releases parked traffic and
    the coordinators replay hinted handoff across the WAN.

:mod:`repro.faults.timeline`
    :class:`FaultTimeline` -- a staleness auditor that timestamps every
    verdict and operation so stale rate, latency and Unavailable counts can
    be sliced per datacenter into before/during/after windows.

A crashed node or site is seen by the cluster's shared failure detector
(:class:`repro.cluster.FailureDetector`): coordinators reject requests whose
consistency level it proves unmeetable with an ``unavailable`` result.
``LOCAL_ONE`` / ``LOCAL_QUORUM`` requirements never mention remote sites,
which is why surviving datacenters sail through a remote outage with zero
Unavailable errors while ``EACH_QUORUM`` degrades immediately.

Convergence after the fault is the other half of the story: hinted handoff
covers writes the coordinator *knows* went missing, and the cross-DC
Merkle repair process (:mod:`repro.cluster.antientropy`) covers everything
else.  ``benchmarks/bench_repair.py`` measures exactly that division of
labour; ``docs/determinism.md`` explains why fault timelines replay
byte-identically under a fixed seed.
"""

from repro.faults.schedule import (
    AsymmetricPartition,
    DatacenterIsolation,
    DatacenterOutage,
    DatacenterPartition,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    NodeCrash,
    PacketLoss,
    SlowWan,
)
from repro.faults.timeline import FaultTimeline, OpEvent

__all__ = [
    "AsymmetricPartition",
    "DatacenterIsolation",
    "DatacenterOutage",
    "DatacenterPartition",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FaultTimeline",
    "NodeCrash",
    "OpEvent",
    "PacketLoss",
    "SlowWan",
]
