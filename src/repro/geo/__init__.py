"""Geo-replication: multi-datacenter placement, DC-aware levels, per-DC Harmony.

Harmony targets geo-distributed cloud stores -- the paper's two platforms,
Grid'5000 and EC2, are both multi-site testbeds -- and this package threads
datacenter awareness through the whole reproduction:

* **placement** -- :class:`repro.cluster.replication.NetworkTopologyStrategy`
  places an explicit number of replicas in every datacenter
  (``{"rennes": 3, "sophia": 2}``);
* **consistency** -- the DC-aware levels ``LOCAL_ONE``, ``LOCAL_QUORUM`` and
  ``EACH_QUORUM`` (:mod:`repro.cluster.consistency`) let coordinators block
  only on their own site while the WAN copies converge asynchronously;
* **monitoring** -- :class:`repro.core.monitor.ClusterMonitor` samples
  read/write rates and the propagation time ``Tp`` *per datacenter*;
* **control** -- :class:`~repro.control.policies.GeoReadPolicy` on a
  :class:`~repro.control.plane.ControlPlane` runs one stale-read model
  instance per datacenter, so every site independently picks the replica
  involvement ``Xn`` that keeps its own stale-read estimate under its own
  tolerance, and maps it onto the local levels;
* **workload** -- :func:`GeoHarmonyPolicy` constructs that policy for the
  workload executor, whose client threads can be pinned to datacenters.

The WAN itself is modelled by per-DC-pair latency links on the topology
(:meth:`repro.network.topology.TopologyBuilder.inter_dc_link`); the
:data:`repro.experiments.scenarios.GRID5000_3SITES` and
:data:`repro.experiments.scenarios.EC2_MULTIREGION` scenarios instantiate
measured-scale site meshes.

The adversarial counterpart of this package is :mod:`repro.faults`: WAN
partitions and whole-site outages injected at the fabric level, with
``LOCAL_*`` sites continuing to serve while ``EACH_QUORUM`` surfaces
``Unavailable``, and cross-DC convergence restored after heal by hinted
handoff plus the Merkle repair process in :mod:`repro.cluster.antientropy`
(scenario :func:`repro.experiments.scenarios.grid5000_3sites_faults`).
"""

from repro.geo.policy import GeoHarmonyPolicy, GeoHarmonyRWPolicy, StaticGeoPolicy

__all__ = [
    "GeoHarmonyPolicy",
    "GeoHarmonyRWPolicy",
    "StaticGeoPolicy",
]
