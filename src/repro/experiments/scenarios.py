"""Evaluation platform scenarios.

The paper deploys Cassandra with a replication factor of 5 on two platforms:

* **Grid'5000** (Sophia site): bare-metal nodes on Gigabit Ethernet -- low,
  stable network latency.  The paper's Harmony settings there are 20% and
  40% tolerated stale reads.
* **Amazon EC2** (20 Large instances, one availability zone): network latency
  roughly five times higher than Grid'5000 and much more variable.  Harmony
  settings there are 40% and 60%.

A :class:`Scenario` bundles the cluster configuration (topology, latency
models, node performance envelope, replication factor) plus the Harmony
tolerated-stale-rate pair used on that platform, so every figure bench asks
for the same platform the same way.

Both platforms are *geo-distributed* in reality -- Grid'5000 is a federation
of sites across France, EC2 spans regions -- so two additional scenarios
model true multi-datacenter deployments with per-site replica placement
(``NetworkTopologyStrategy``) and measured-scale WAN latencies:

* ``GRID5000_3SITES`` -- Rennes, Sophia and Nancy with the ~10-18 ms
  inter-site RTTs of the Grid'5000 backbone;
* ``EC2_MULTIREGION`` -- us-east-1, eu-west-1 and ap-southeast-1 with
  transatlantic/transpacific one-way latencies in the 40-90 ms range.

Simulation scale note: the paper's Grid'5000 deployment has 84 nodes and runs
3-10 million operations; the default scenarios use 20 nodes and the figure
benches use 10^4-10^5 operations so the full evaluation completes in minutes
on a laptop.  Node counts and operation counts are parameters, not constants,
so larger runs only cost time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.cluster.antientropy import AntiEntropyConfig
from repro.cluster.cluster import ClusterConfig
from repro.cluster.coordinator import CoordinatorConfig
from repro.cluster.node import NodeConfig
from repro.control.policies import RepairControlConfig
from repro.faults.schedule import DatacenterIsolation, FaultSchedule
from repro.network.latency import (
    EC2LikeLatency,
    Grid5000LikeLatency,
    LatencyModel,
    LogNormalLatency,
)
from repro.network.topology import Topology, TopologyBuilder
from repro.network.transfers import BandwidthConfig

__all__ = [
    "Scenario",
    "GRID5000",
    "EC2",
    "GRID5000_3SITES",
    "EC2_MULTIREGION",
    "GRID5000_3SITES_FAULTS",
    "grid5000_3sites_faults",
    "GRID5000_3SITES_ADAPTIVE",
    "GRID5000_3SITES_WAN",
    "GRID5000_3SITES_ELASTIC",
    "SCALE_100",
    "SCALE_300",
    "SCALE_1000",
    "ScenarioRegistry",
]


@dataclass(frozen=True)
class Scenario:
    """One evaluation platform.

    Attributes
    ----------
    name:
        Platform name used in reports.
    n_nodes / replication_factor / racks_per_dc / datacenters:
        Cluster shape (the paper uses RF=5 on both platforms).
    intra_rack_latency / inter_rack_latency / inter_dc_latency:
        Latency models of the platform's network.
    node:
        Node performance envelope (EC2 "Large" VMs are slower and noisier
        than Grid'5000 bare metal).
    coordinator:
        Coordinator tunables.
    harmony_stale_rates:
        The pair of tolerated stale-read rates the paper evaluates on this
        platform (lenient, restrictive).
    topology:
        Explicit topology for geo scenarios (per-site racks and WAN links);
        overrides ``n_nodes`` / ``racks_per_dc`` / ``datacenters``.
    replication_factors:
        Per-datacenter replication factors; selects
        ``NetworkTopologyStrategy`` (geo scenarios only).
    harmony_stale_rates_by_dc:
        Per-datacenter ASR map for the per-DC Harmony controller (geo
        scenarios only; sites missing from the map use the controller's
        default).
    fabric_delivery:
        Network-fabric delivery mode (see
        :class:`~repro.network.fabric.NetworkFabric`).  The scale scenarios
        use ``"fifo"`` in-order links; the paper-faithful scenarios keep the
        default time-faithful ``"coalesced"`` delivery.
    bandwidth:
        Optional :class:`~repro.network.transfers.BandwidthConfig` enabling
        shared-link WAN bandwidth modeling (see ``GRID5000_3SITES_WAN``).
    fault_schedule:
        Optional :class:`~repro.faults.schedule.FaultSchedule`; the
        experiment runner arms it after the load phase, so event times are
        relative to the start of the measured run.
    anti_entropy:
        Optional :class:`~repro.cluster.antientropy.AntiEntropyConfig`; the
        runner starts the cross-DC Merkle repair process with it for the
        duration of the measured run.
    adaptive_repair:
        Optional :class:`~repro.control.policies.RepairControlConfig`; the
        runner then registers a
        :class:`~repro.control.policies.RepairSchedulePolicy` on the run's
        control plane, adapting each DC pair's repair interval to measured leaf-diff
        divergence (requires ``anti_entropy``; its ``interval`` is the base
        tick and should equal ``adaptive_repair.min_interval``).
    description:
        Free-text summary used in logs.
    """

    name: str
    n_nodes: int = 20
    replication_factor: int = 5
    racks_per_dc: int = 2
    datacenters: int = 2
    intra_rack_latency: Optional[LatencyModel] = None
    inter_rack_latency: Optional[LatencyModel] = None
    inter_dc_latency: Optional[LatencyModel] = None
    node: NodeConfig = field(default_factory=NodeConfig)
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    harmony_stale_rates: Tuple[float, float] = (0.4, 0.2)
    topology: Optional[Topology] = None
    replication_factors: Optional[Dict[str, int]] = None
    harmony_stale_rates_by_dc: Optional[Dict[str, float]] = None
    fabric_delivery: str = "coalesced"
    spares_per_dc: int = 0
    bandwidth: Optional[BandwidthConfig] = None
    fault_schedule: Optional[FaultSchedule] = None
    anti_entropy: Optional[AntiEntropyConfig] = None
    adaptive_repair: Optional[RepairControlConfig] = None
    description: str = ""

    @property
    def datacenter_names(self) -> list[str]:
        """Datacenter names of the scenario's topology (geo scenarios)."""
        if self.topology is not None:
            return self.topology.datacenter_names
        return [f"dc{i + 1}" for i in range(self.datacenters)]

    def cluster_config(self, *, seed: int = 0, n_nodes: Optional[int] = None) -> ClusterConfig:
        """Build the :class:`ClusterConfig` for this platform.

        ``n_nodes`` may be overridden (smaller clusters for quick tests,
        larger for fidelity runs); the replication factor and latency models
        stay those of the platform.  Scenarios with an explicit ``topology``
        ignore the override -- their node layout is part of the platform.
        """
        nodes = n_nodes if n_nodes is not None else self.n_nodes
        return ClusterConfig(
            n_nodes=nodes,
            replication_factor=self.replication_factor,
            racks_per_dc=self.racks_per_dc,
            datacenters=self.datacenters,
            topology=self.topology,
            replication_factors=self.replication_factors,
            node=self.node,
            coordinator=self.coordinator,
            intra_rack_latency=self.intra_rack_latency,
            inter_rack_latency=self.inter_rack_latency,
            inter_dc_latency=self.inter_dc_latency,
            seed=seed,
            fabric_delivery=self.fabric_delivery,
            bandwidth=self.bandwidth,
            spares_per_dc=self.spares_per_dc,
        )

    def with_overrides(self, **kwargs) -> "Scenario":
        """A copy of the scenario with some fields replaced."""
        return replace(self, **kwargs)


#: Grid'5000-like platform: bare-metal LAN, low stable latency (paper Section V-C).
GRID5000 = Scenario(
    name="grid5000",
    n_nodes=20,
    replication_factor=5,
    racks_per_dc=2,
    datacenters=2,
    intra_rack_latency=Grid5000LikeLatency(),
    inter_rack_latency=Grid5000LikeLatency(
        median=1.2 * Grid5000LikeLatency.DEFAULT_MEDIAN, sigma=0.2
    ),
    inter_dc_latency=LogNormalLatency(median=0.00006, sigma=0.25, floor=0.00003),
    node=NodeConfig(
        concurrency=24,
        read_service_time=0.005,
        write_service_time=0.0035,
        service_time_cv=0.45,
    ),
    harmony_stale_rates=(0.4, 0.2),
    description=(
        "Bare-metal Gigabit-Ethernet clusters (two Grid'5000 clusters at the "
        "Sophia site); low and stable network latency; Harmony evaluated at "
        "40% and 20% tolerated stale reads."
    ),
)

#: EC2-like platform: virtualised network, ~5x the latency, heavy jitter.
EC2 = Scenario(
    name="ec2",
    n_nodes=20,
    replication_factor=5,
    racks_per_dc=2,
    datacenters=2,
    intra_rack_latency=EC2LikeLatency(),
    inter_rack_latency=EC2LikeLatency(
        median=1.2 * EC2LikeLatency.DEFAULT_MEDIAN, sigma=0.5
    ),
    inter_dc_latency=EC2LikeLatency(
        median=1.5 * EC2LikeLatency.DEFAULT_MEDIAN,
        sigma=0.55,
        spike_probability=0.03,
    ),
    node=NodeConfig(
        concurrency=12,
        read_service_time=0.008,
        write_service_time=0.006,
        service_time_cv=0.6,
    ),
    harmony_stale_rates=(0.6, 0.4),
    description=(
        "20 virtualised 'Large' instances in one availability zone; network "
        "latency roughly five times Grid'5000 with heavy-tailed jitter and "
        "occasional spikes; Harmony evaluated at 60% and 40% tolerated stale "
        "reads."
    ),
)


def _grid5000_3sites_topology(nodes_per_rack: int = 2) -> Topology:
    """Rennes / Sophia / Nancy: two racks per site, measured-scale WAN links.

    One-way inter-site latencies follow the Grid'5000 Renater backbone
    (RTTs of roughly 11 ms Rennes-Nancy, 17 ms Rennes-Sophia and 13 ms
    Nancy-Sophia), with narrow log-normal jitter -- dedicated academic
    fibre, not the public internet.
    """
    builder = (
        TopologyBuilder()
        .datacenter("rennes")
        .rack("r1", nodes=nodes_per_rack)
        .rack("r2", nodes=nodes_per_rack)
        .datacenter("sophia")
        .rack("r1", nodes=nodes_per_rack)
        .rack("r2", nodes=nodes_per_rack)
        .datacenter("nancy")
        .rack("r1", nodes=nodes_per_rack)
        .rack("r2", nodes=nodes_per_rack)
        .latencies(
            intra_rack=Grid5000LikeLatency(),
            inter_rack=Grid5000LikeLatency(
                median=1.2 * Grid5000LikeLatency.DEFAULT_MEDIAN, sigma=0.2
            ),
        )
        .inter_dc_link("rennes", "nancy", LogNormalLatency(median=0.0055, sigma=0.12, floor=0.004))
        .inter_dc_link("rennes", "sophia", LogNormalLatency(median=0.0085, sigma=0.12, floor=0.006))
        .inter_dc_link("nancy", "sophia", LogNormalLatency(median=0.0065, sigma=0.12, floor=0.005))
    )
    return builder.build()


_GRID5000_3SITES_TOPOLOGY = _grid5000_3sites_topology()
_GRID5000_3SITES_FACTORS = {"rennes": 3, "sophia": 2, "nancy": 2}

#: Geo-distributed Grid'5000: three sites, per-site replicas, WAN in the ms range.
GRID5000_3SITES = Scenario(
    name="grid5000_3sites",
    # Derived, not hand-maintained: the topology and the per-site factors
    # are the single source of truth.
    n_nodes=_GRID5000_3SITES_TOPOLOGY.size,
    replication_factor=sum(_GRID5000_3SITES_FACTORS.values()),
    topology=_GRID5000_3SITES_TOPOLOGY,
    replication_factors=_GRID5000_3SITES_FACTORS,
    harmony_stale_rates=(0.4, 0.2),
    harmony_stale_rates_by_dc={"rennes": 0.2, "sophia": 0.4, "nancy": 0.4},
    node=NodeConfig(
        concurrency=24,
        read_service_time=0.005,
        write_service_time=0.0035,
        service_time_cv=0.45,
    ),
    description=(
        "Three Grid'5000 sites (Rennes, Sophia, Nancy) with per-site replica "
        "counts {3, 2, 2} under NetworkTopologyStrategy and measured-scale "
        "inter-site latency (5.5-8.5 ms one-way); Rennes runs the restrictive "
        "20% tolerance, the remote sites 40%."
    ),
)


def _ec2_multiregion_topology(nodes_per_rack: int = 2) -> Topology:
    """us-east-1 / eu-west-1 / ap-southeast-1: two AZ-racks per region.

    One-way inter-region latencies at public-internet scale (~40 ms
    transatlantic, ~85-90 ms to Singapore) with the heavy-tailed jitter and
    spikes of the EC2 preset.
    """

    def wan(median: float) -> LatencyModel:
        return EC2LikeLatency(
            median=median, sigma=0.25, floor=0.8 * median, spike_probability=0.01
        )

    builder = (
        TopologyBuilder()
        .datacenter("us-east-1")
        .rack("az-a", nodes=nodes_per_rack)
        .rack("az-b", nodes=nodes_per_rack)
        .datacenter("eu-west-1")
        .rack("az-a", nodes=nodes_per_rack)
        .rack("az-b", nodes=nodes_per_rack)
        .datacenter("ap-southeast-1")
        .rack("az-a", nodes=nodes_per_rack)
        .rack("az-b", nodes=nodes_per_rack)
        .latencies(
            intra_rack=EC2LikeLatency(),
            inter_rack=EC2LikeLatency(
                median=1.2 * EC2LikeLatency.DEFAULT_MEDIAN, sigma=0.5
            ),
        )
        .inter_dc_link("us-east-1", "eu-west-1", wan(0.040))
        .inter_dc_link("us-east-1", "ap-southeast-1", wan(0.090))
        .inter_dc_link("eu-west-1", "ap-southeast-1", wan(0.085))
    )
    return builder.build()


_EC2_MULTIREGION_TOPOLOGY = _ec2_multiregion_topology()
_EC2_MULTIREGION_FACTORS = {"us-east-1": 3, "eu-west-1": 2, "ap-southeast-1": 2}

#: Geo-distributed EC2: three regions, per-region replicas, WAN in the tens of ms.
EC2_MULTIREGION = Scenario(
    name="ec2_multiregion",
    n_nodes=_EC2_MULTIREGION_TOPOLOGY.size,
    replication_factor=sum(_EC2_MULTIREGION_FACTORS.values()),
    topology=_EC2_MULTIREGION_TOPOLOGY,
    replication_factors=_EC2_MULTIREGION_FACTORS,
    harmony_stale_rates=(0.6, 0.4),
    harmony_stale_rates_by_dc={"us-east-1": 0.4, "eu-west-1": 0.6, "ap-southeast-1": 0.6},
    node=NodeConfig(
        concurrency=12,
        read_service_time=0.008,
        write_service_time=0.006,
        service_time_cv=0.6,
    ),
    description=(
        "Three EC2 regions (us-east-1, eu-west-1, ap-southeast-1) with "
        "per-region replica counts {3, 2, 2}, 40-90 ms one-way inter-region "
        "latency with spikes; the home region runs the 40% tolerance, the "
        "remote regions 60%."
    ),
)


#: 100-node single-datacenter ring: the scale-axis workhorse.  The paper's
#: Grid'5000 deployment is 84 bare-metal nodes; this rounds up to 100 and
#: keeps the Grid'5000 latency and node envelope, so sweeps that saturate the
#: 20-node scenarios can be re-run at realistic cluster width.  Uses the
#: lean runtime fabric (in-order FIFO links, pooled latency draws).
SCALE_100 = Scenario(
    name="scale_100",
    n_nodes=100,
    replication_factor=5,
    racks_per_dc=5,
    datacenters=1,
    intra_rack_latency=Grid5000LikeLatency(),
    inter_rack_latency=Grid5000LikeLatency(
        median=1.2 * Grid5000LikeLatency.DEFAULT_MEDIAN, sigma=0.2
    ),
    node=NodeConfig(
        concurrency=24,
        read_service_time=0.005,
        write_service_time=0.0035,
        service_time_cv=0.45,
    ),
    harmony_stale_rates=(0.4, 0.2),
    fabric_delivery="fifo",
    description=(
        "100-node single-site ring (5 racks of 20) with Grid'5000-like "
        "latency and bare-metal node envelope; exercises the vectorized "
        "latency pools, FIFO link delivery and cached replica walks at "
        "paper-realistic cluster width."
    ),
)

#: 300-node, three-datacenter ring with per-DC replica placement -- the
#: multi-DC companion of SCALE_100 (geo strategy at width, WAN in the ms
#: range as on the Grid'5000 backbone).
SCALE_300 = Scenario(
    name="scale_300",
    n_nodes=300,
    racks_per_dc=5,
    datacenters=3,
    replication_factor=7,
    replication_factors={"dc1": 3, "dc2": 2, "dc3": 2},
    intra_rack_latency=Grid5000LikeLatency(),
    inter_rack_latency=Grid5000LikeLatency(
        median=1.2 * Grid5000LikeLatency.DEFAULT_MEDIAN, sigma=0.2
    ),
    inter_dc_latency=LogNormalLatency(median=0.0065, sigma=0.12, floor=0.005),
    node=NodeConfig(
        concurrency=24,
        read_service_time=0.005,
        write_service_time=0.0035,
        service_time_cv=0.45,
    ),
    harmony_stale_rates=(0.4, 0.2),
    harmony_stale_rates_by_dc={"dc1": 0.2, "dc2": 0.4, "dc3": 0.4},
    fabric_delivery="fifo",
    description=(
        "300 nodes across three datacenters (100 each, 5 racks per DC) with "
        "per-DC replica counts {3, 2, 2} and ~6.5 ms one-way WAN latency; "
        "the multi-DC scale scenario for DC-aware levels at cluster width."
    ),
)


#: 1000-node single-datacenter ring: the headroom proof for the op-path
#: overhaul.  Same Grid'5000 latency and node envelope as SCALE_100, ten
#: racks of a hundred nodes; the zero-Waiter client scheduler, shared timer
#: queues and O(1) per-message link paths are what make closed-loop sweeps
#: at this width finish in CI-tolerable wall time.
SCALE_1000 = Scenario(
    name="scale_1000",
    n_nodes=1000,
    replication_factor=5,
    racks_per_dc=10,
    datacenters=1,
    intra_rack_latency=Grid5000LikeLatency(),
    inter_rack_latency=Grid5000LikeLatency(
        median=1.2 * Grid5000LikeLatency.DEFAULT_MEDIAN, sigma=0.2
    ),
    node=NodeConfig(
        concurrency=24,
        read_service_time=0.005,
        write_service_time=0.0035,
        service_time_cv=0.45,
    ),
    harmony_stale_rates=(0.4, 0.2),
    fabric_delivery="fifo",
    description=(
        "1000-node single-site ring (10 racks of 100) with Grid'5000-like "
        "latency and bare-metal node envelope; the scale ceiling the "
        "batched client scheduler and shared timer queues are benchmarked "
        "against (the perf ledger's scale1000_wide and scale1000_sharded rows)."
    ),
)


def grid5000_3sites_faults(
    *,
    partition_duration: float = 60.0,
    repair_interval: Optional[float] = 10.0,
    isolated: str = "sophia",
    lead_time: float = 10.0,
    mode: str = "drop",
    replay_hints: bool = False,
    read_repair_chance: float = 0.0,
) -> Scenario:
    """The 3-site Grid'5000 ring under an adversarial WAN timeline.

    ``lead_time`` seconds into the measured run, the ``isolated`` site loses
    its WAN to both other sites for ``partition_duration`` seconds (its
    nodes stay up and keep serving their own LOCAL_* clients); cross-DC
    Merkle repair runs every ``repair_interval`` seconds (``None`` disables
    it -- the control arm of the repair benchmarks).

    Two defaults deliberately differ from the healthy scenario so the
    anti-entropy effect is isolated and measurable: hinted handoff is *not*
    replayed on heal (``replay_hints=False``) and the global read-repair
    round is off (``read_repair_chance=0``) -- otherwise both side channels
    also converge the partitioned site and the repair-on/off comparison
    measures three mechanisms at once.  Sweep ``partition_duration`` and
    ``repair_interval`` to map the stale-rate-vs-WAN-traffic trade-off.
    """
    if isolated not in _GRID5000_3SITES_TOPOLOGY.datacenter_names:
        raise ValueError(
            f"unknown site {isolated!r}; topology has "
            f"{_GRID5000_3SITES_TOPOLOGY.datacenter_names}"
        )
    schedule = FaultSchedule(
        [
            DatacenterIsolation(
                at=lead_time,
                datacenter=isolated,
                duration=partition_duration,
                mode=mode,
                replay_hints=replay_hints,
            )
        ]
    )
    anti_entropy = (
        AntiEntropyConfig(interval=repair_interval) if repair_interval is not None else None
    )
    repair_text = (
        f"Merkle repair every {repair_interval:g} s" if repair_interval is not None else "no repair"
    )
    return GRID5000_3SITES.with_overrides(
        name="grid5000_3sites_faults",
        coordinator=CoordinatorConfig(read_repair_chance=read_repair_chance),
        fault_schedule=schedule,
        anti_entropy=anti_entropy,
        description=(
            f"GRID5000_3SITES with {isolated} cut off from the WAN ({mode}) from "
            f"t={lead_time:g}s to t={lead_time + partition_duration:g}s of the "
            f"measured run; {repair_text}; hint replay on heal "
            f"{'on' if replay_hints else 'off'} and global read-repair rounds "
            f"{'on' if read_repair_chance else 'off'} so convergence is "
            "attributable to anti-entropy."
        ),
    )


#: Canonical fault scenario: 60 s WAN isolation of Sophia, repair every 10 s.
GRID5000_3SITES_FAULTS = grid5000_3sites_faults()


#: The unified-control-plane scenario: the healthy 3-site Grid'5000 ring with
#: cross-DC Merkle repair whose per-pair cadence is *adapted* -- tightened
#: toward 5 s while sessions find differing Merkle leaves, relaxed toward
#: 60 s while they come back clean, with each pair's repair WAN traffic fed
#: back as a cost cap.  Pair it with the ``geo-harmony-rw`` policy for joint
#: per-DC read/write adaptation on the same control plane idiom; the control
#: benchmark (`benchmarks/bench_control.py`) compares both knobs against
#: their static counterparts.
GRID5000_3SITES_ADAPTIVE = GRID5000_3SITES.with_overrides(
    name="grid5000_3sites_adaptive",
    anti_entropy=AntiEntropyConfig(interval=5.0),
    adaptive_repair=RepairControlConfig(
        min_interval=5.0,
        max_interval=60.0,
        wan_budget_bytes_per_s=2_000_000.0,
    ),
    description=(
        "GRID5000_3SITES with divergence-driven anti-entropy scheduling: "
        "repair cadence per DC pair adapts between 5 s and 60 s from "
        "measured leaf-diff divergence (x0.5 under divergence, x1.5 when "
        "clean, relaxed when a pair's repair traffic exceeds 2 MB/s), and "
        "the geo-harmony-rw policy additionally adapts per-site write "
        "levels alongside reads."
    ),
)


#: The bandwidth-realism scenario: the canonical fault timeline on a
#: *finite* WAN.  Each inter-site link carries 4 MB/s (a provisioned WAN
#: pipe, not the 1 Gbit/s LAN default), so the post-heal repair storm and
#: hint replay become fair-share transfers that contend with foreground
#: traffic -- the contention the paper's Grid'5000 runs actually faced.
#: ``benchmarks/bench_repair.py`` compares this against the infinite-pipe
#: arm and against the repair policy's physical WAN budget throttle.
GRID5000_3SITES_WAN = GRID5000_3SITES_FAULTS.with_overrides(
    name="grid5000_3sites_wan",
    bandwidth=BandwidthConfig(capacity_bytes_per_s=4_000_000.0),
    description=(
        "GRID5000_3SITES_FAULTS on a finite WAN: every inter-site link has "
        "4 MB/s shared capacity, repair streams / hint replay / tree "
        "exchanges are max-min fair-share transfers, and foreground "
        "serialization runs at the residual bandwidth, so repair storms "
        "after the heal visibly inflate foreground latency."
    ),
)


#: Elastic-membership scenario: the three-site platform with one provisioned
#: spare per site kept out of the initial token ring.  Membership transitions
#: (bootstrap / decommission) move the spares in and out; the chaos generator
#: only draws membership actions for scenarios like this one, so every
#: pre-existing scenario's schedules stay byte-identical.
GRID5000_3SITES_ELASTIC = GRID5000_3SITES.with_overrides(
    name="grid5000_3sites_elastic",
    spares_per_dc=1,
    description=(
        "GRID5000_3SITES with one provisioned spare per site outside the "
        "initial ring: elastic bootstrap / decommission transitions (and the "
        "chaos schedules that exercise them) move spares in and out while "
        "pending-range writes keep acked data safe."
    ),
)


class ScenarioRegistry:
    """Name -> scenario lookup used by the CLI-ish helpers and benches."""

    _scenarios: Dict[str, Scenario] = {
        GRID5000.name: GRID5000,
        EC2.name: EC2,
        GRID5000_3SITES.name: GRID5000_3SITES,
        EC2_MULTIREGION.name: EC2_MULTIREGION,
        GRID5000_3SITES_FAULTS.name: GRID5000_3SITES_FAULTS,
        GRID5000_3SITES_ADAPTIVE.name: GRID5000_3SITES_ADAPTIVE,
        GRID5000_3SITES_WAN.name: GRID5000_3SITES_WAN,
        GRID5000_3SITES_ELASTIC.name: GRID5000_3SITES_ELASTIC,
        SCALE_100.name: SCALE_100,
        SCALE_300.name: SCALE_300,
        SCALE_1000.name: SCALE_1000,
    }

    @classmethod
    def get(cls, name: str) -> Scenario:
        """Look up a scenario by name (case-insensitive)."""
        key = name.lower()
        if key not in cls._scenarios:
            raise KeyError(
                f"unknown scenario {name!r}; available: {sorted(cls._scenarios)}"
            )
        return cls._scenarios[key]

    @classmethod
    def register(cls, scenario: Scenario) -> None:
        """Add a custom scenario (used by tests and user extensions)."""
        cls._scenarios[scenario.name.lower()] = scenario

    @classmethod
    def names(cls) -> list[str]:
        return sorted(cls._scenarios)
