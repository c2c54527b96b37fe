"""Harmony: automated self-adaptive consistency for quorum-replicated cloud storage.

A full reproduction of *Harmony: Towards Automated Self-Adaptive Consistency
in Cloud Storage* (Chihoub, Ibrahim, Antoniu, Pérez -- IEEE CLUSTER 2012),
built on a discrete-event-simulated Cassandra-like store and a YCSB-style
workload generator so the entire evaluation runs on a laptop.

Quick start
-----------
>>> from repro import (
...     ClusterConfig, SimulatedCluster, WORKLOAD_A, WorkloadExecutor,
...     StalenessAuditor, make_policy,
... )
>>> cluster = SimulatedCluster(ClusterConfig(n_nodes=6, replication_factor=3, seed=7))
>>> auditor = StalenessAuditor()
>>> executor = WorkloadExecutor(
...     cluster,
...     WORKLOAD_A.scaled(record_count=200, operation_count=2000),
...     make_policy("harmony-20%"),
...     threads=8,
...     auditor=auditor,
... )
>>> metrics = executor.run()
>>> metrics.staleness.stale_rate() <= 0.2 + 0.1   # tolerance + noise margin
True

Package layout
--------------
``repro.control``
    the Harmony contribution and every other adaptive knob, on one loop:
    the monitoring module (:class:`~repro.control.ClusterMonitor`,
    cluster-wide and per-datacenter), the stale-read model
    (:class:`~repro.control.StalenessEstimator`, per scope, paper Eq. 1-8),
    the ``Decision``/``ControlPolicy``/:class:`~repro.control.ControlPlane`
    spine -- one plane per run, owned by the workload executor --
    :class:`~repro.control.LevelPolicy` (the policy the executor asks for
    ``read_level(dc)`` / ``write_level(dc)``: fixed levels, or a subclass
    such as the paper's decision scheme,
    :class:`~repro.control.HarmonyReadPolicy`, and its per-datacenter form
    :class:`~repro.control.GeoReadPolicy`), repair cadence, scale-out, the
    client-side retry/downgrade policies, and
    :func:`~repro.control.make_policy`, the one way to name a level policy
    (``"eventual"``, ``"strong"``, ``"harmony-20%"``, ``"geo-harmony"``,
    ...);
``repro.cluster``
    the simulated quorum-replicated store (ring, replication strategies
    including the per-DC ``NetworkTopologyStrategy``, storage engines,
    coordinator read/write paths with the DC-aware levels ``LOCAL_ONE`` /
    ``LOCAL_QUORUM`` / ``EACH_QUORUM``, read repair, hints, and the
    cross-DC Merkle anti-entropy service);
``repro.faults``
    fault injection: declarative fault schedules (node crashes, full-DC
    outages, WAN partitions at the fabric level), the shared failure
    detector behind the coordinators' Unavailable fail-fast path, and the
    windowed fault timeline for before/during/after analysis;
``repro.chaos``
    seeded search over the fault-schedule space: a schedule generator, the
    post-heal invariant suite, the deterministic replay every caller
    shares, ddmin shrinking and the reproducer corpus format;
``repro.network``
    latency models (Grid'5000-like, EC2-like), topology with per-DC-pair
    WAN links, and the message fabric;
``repro.workload``
    YCSB-style workloads A-D, key distributions and closed-loop clients
    (optionally pinned to datacenters);
``repro.staleness``
    ground-truth staleness auditing and the paper's dual-read probe, with
    exact per-read quantification (staleness age, version lag) aggregated
    into t-visibility curves and k-staleness histograms per scope;
``repro.obs``
    run observability: the opt-in zero-engine-event op-lifecycle
    :class:`~repro.obs.Tracer` (deterministic JSONL spans) and the periodic
    :class:`~repro.obs.RunSeriesRecorder` time-series export;
``repro.metrics``
    latency histograms, operation counters, time series and reports;
``repro.experiments``
    scenarios (GRID5000, EC2, and the geo-distributed GRID5000_3SITES and
    EC2_MULTIREGION), the experiment runner and per-figure regenerators
    used by the benchmark harness;
``repro.sim``
    the discrete-event simulation engine everything runs on.

Compatibility
-------------
The names this module exports (``__all__``) are the only compatibility
promise; submodule paths and implementation-selecting options are internal
and are removed, not shimmed, once nothing needs them (``CHANGES.md`` names
the replacement of any name that leaves ``__all__``).

Geo quick start
---------------
>>> from repro import ConsistencyLevel, SimulatedCluster
>>> from repro.experiments.scenarios import GRID5000_3SITES
>>> cluster = SimulatedCluster(GRID5000_3SITES.cluster_config(seed=1))
>>> w = cluster.write_sync("k", "v", ConsistencyLevel.LOCAL_QUORUM,
...                        datacenter="rennes")
>>> {cluster.topology.datacenter_of(r) for r in w.responded} == {"rennes"}
True
"""

from repro.cluster import (
    ClusterConfig,
    ConsistencyLevel,
    SimulatedCluster,
    quorum_size,
)
from repro.cluster.antientropy import AntiEntropyConfig, AntiEntropyService, MerkleTree
from repro.control import (
    ClusterMonitor,
    HarmonyConfig,
    StalenessEstimator,
    make_policy,
    propagation_time,
)
from repro.experiments import (
    EC2,
    EC2_MULTIREGION,
    GRID5000,
    GRID5000_3SITES,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.experiments.scenarios import GRID5000_3SITES_FAULTS, grid5000_3sites_faults
from repro.faults import (
    DatacenterIsolation,
    DatacenterOutage,
    DatacenterPartition,
    FailureDetector,
    FaultInjector,
    FaultSchedule,
    FaultTimeline,
    NodeCrash,
    NodeRestart,
)
from repro.metrics import LatencyHistogram, MetricsReport, TimeSeries, format_table
from repro.staleness import DualReadProbe, StalenessAuditor
from repro.workload import (
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    WORKLOAD_D,
    CoreWorkload,
    WorkloadConfig,
    WorkloadExecutor,
)

__version__ = "1.0.0"

__all__ = [
    "AntiEntropyConfig",
    "AntiEntropyService",
    "ClusterConfig",
    "ClusterMonitor",
    "ConsistencyLevel",
    "CoreWorkload",
    "DatacenterIsolation",
    "DatacenterOutage",
    "DatacenterPartition",
    "DualReadProbe",
    "EC2",
    "EC2_MULTIREGION",
    "ExperimentConfig",
    "ExperimentResult",
    "FailureDetector",
    "FaultInjector",
    "FaultSchedule",
    "FaultTimeline",
    "GRID5000",
    "GRID5000_3SITES",
    "GRID5000_3SITES_FAULTS",
    "HarmonyConfig",
    "LatencyHistogram",
    "MerkleTree",
    "MetricsReport",
    "NodeCrash",
    "NodeRestart",
    "SimulatedCluster",
    "StalenessAuditor",
    "StalenessEstimator",
    "TimeSeries",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
    "WorkloadConfig",
    "WorkloadExecutor",
    "__version__",
    "format_table",
    "grid5000_3sites_faults",
    "make_policy",
    "propagation_time",
    "quorum_size",
    "run_experiment",
]
