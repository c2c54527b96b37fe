"""Monitoring module (paper Fig. 3, left half).

The paper's monitoring module collects two kinds of information, feeding the
adaptive-consistency module:

* read and write counts from Cassandra's ``nodetool``, sampled in a
  multithreaded fashion across the nodes and aggregated; the elapsed
  monitoring time is accounted for when converting counts to rates;
* inter-node network latency from the ``ping`` tool.

The simulated monitor mirrors this:

* :meth:`ClusterMonitor.sample` snapshots the cluster-wide coordinator
  counters (see :class:`repro.cluster.stats.ClusterStats`) and converts the
  deltas against the previous snapshot into read/write arrival rates;
* it probes a configurable number of replica pairs through the network
  fabric's ``ping`` facility and aggregates the measured latency;
* rates are optionally exponentially smoothed so a single quiet/busy window
  does not whipsaw the consistency level.

The monitor is passive: it never touches the simulated data path, exactly as
the real monitoring module sits outside Cassandra's request path.

Geo-replication extends the monitor with a **per-datacenter view**:

* the *read* rate comes from the counter deltas of the datacenter's own
  coordinators -- it is that site's read intensity that decides how many
  reads race a propagating write;
* the *write* rate stays **cluster-wide**: under ``NetworkTopologyStrategy``
  every write, wherever it is coordinated, replicates into every datacenter,
  so the inter-write time that drives staleness at a site is a property of
  the data, not of the site's own coordinators (a read-only site next to a
  write-heavy site is exactly as exposed as the writer);
* latency probes aim at that site's nodes, so the ``Tp`` each site sees
  reflects the WAN links inbound writes must cross to reach its replicas.

Each datacenter keeps its own previous-snapshot and smoothing state, so
per-DC sampling composes with the cluster-wide view without interference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.stats import CounterSnapshot
from repro.core.config import HarmonyConfig
from repro.core.model import propagation_time

__all__ = ["MonitoringSample", "ClusterMonitor"]


@dataclass(frozen=True)
class MonitoringSample:
    """One aggregated observation of the cluster state.

    Attributes
    ----------
    time:
        Virtual time at which the sample was taken.
    read_rate / write_rate:
        Client-operation arrival rates (ops per second) over the window,
        after smoothing.
    raw_read_rate / raw_write_rate:
        Unsmoothed rates of the window itself.
    network_latency:
        Aggregated one-way inter-replica latency estimate (seconds).
    propagation_time:
        ``Tp`` derived from the latency, the average write size and the
        bandwidth (what the estimation model consumes).
    window:
        Length of the measurement window in seconds.
    datacenter:
        ``None`` for the cluster-wide aggregate; the datacenter name for a
        per-DC sample (geo monitoring).
    repair_bytes:
        Anti-entropy repair traffic sent during the window: cluster-wide for
        the aggregate sample, or summed over the DC pairs touching this
        datacenter for a per-DC sample.  Zero unless an
        :class:`~repro.cluster.antientropy.AntiEntropyService` was attached
        via :meth:`ClusterMonitor.attach_anti_entropy` -- this is the WAN
        cost axis of the stale-rate-vs-repair-traffic trade-off.
    stale_rate / stale_age_p99:
        Measured ground-truth staleness of the scope: the fraction of reads
        judged stale during the window, and the cumulative 99th-percentile
        staleness age in seconds.  Zero unless a
        :class:`~repro.staleness.auditor.StalenessAuditor` was attached via
        :meth:`ClusterMonitor.attach_staleness` -- the feedback signal the
        SLA policy steers on (the estimator-driven policies ignore it).
    """

    time: float
    read_rate: float
    write_rate: float
    raw_read_rate: float
    raw_write_rate: float
    network_latency: float
    propagation_time: float
    window: float
    datacenter: Optional[str] = None
    repair_bytes: float = 0.0
    stale_rate: float = 0.0
    stale_age_p99: float = 0.0


class ClusterMonitor:
    """Samples cluster counters and network latency on demand.

    Parameters
    ----------
    cluster:
        The cluster being monitored.
    config:
        Harmony configuration (monitoring interval, smoothing, ``Tp`` terms).
    """

    def __init__(self, cluster: SimulatedCluster, config: Optional[HarmonyConfig] = None) -> None:
        self.cluster = cluster
        self.config = config or HarmonyConfig()
        self._previous: Optional[CounterSnapshot] = None
        self._previous_by_dc: Dict[str, CounterSnapshot] = {}
        # Cluster-wide snapshots tracked per datacenter window (the write
        # rate each site's model consumes is cluster-wide; see module doc).
        self._previous_global_by_dc: Dict[str, CounterSnapshot] = {}
        #: Smoothing state per scope: ``None`` for the cluster-wide view,
        #: the datacenter name for per-DC views; value is [read, write].
        self._smoothed: Dict[Optional[str], List[float]] = {}
        self._ping_rng = cluster.streams.stream("harmony.monitor.ping")
        self.samples: List[MonitoringSample] = []
        self.samples_by_dc: Dict[str, List[MonitoringSample]] = {}
        # Anti-entropy accounting: the attached service's cumulative byte
        # totals at the previous sample, per scope (None = cluster-wide).
        self._anti_entropy = None
        self._repair_prev: Dict[Optional[str], int] = {}
        # Staleness accounting: the attached auditor's cumulative judged /
        # stale counts at the previous sample, per scope.
        self._staleness = None
        self._staleness_prev: Dict[Optional[str], tuple] = {}

    # ------------------------------------------------------------------
    # Anti-entropy accounting
    # ------------------------------------------------------------------
    def attach_anti_entropy(self, service) -> None:
        """Count the repair traffic of an anti-entropy service in samples.

        Subsequent samples carry the per-window ``repair_bytes`` delta
        (per-DC samples sum the pairs touching that DC), making the repair
        traffic observable through the same channel as the rates the
        controller consumes.  Explicit attachment is only needed for a
        service the cluster facade does not know about: a service started
        through :meth:`SimulatedCluster.start_anti_entropy` is discovered
        automatically via ``cluster.anti_entropy``.
        """
        self._anti_entropy = service
        self._repair_prev.clear()

    def _anti_entropy_service(self):
        if self._anti_entropy is not None:
            return self._anti_entropy
        return getattr(self.cluster, "anti_entropy", None)

    def repair_traffic_by_pair(self) -> Dict[str, int]:
        """Cumulative repair bytes per DC pair (empty without a service)."""
        service = self._anti_entropy_service()
        if service is None:
            return {}
        return service.traffic_by_pair()

    def _repair_window_bytes(self, datacenter: Optional[str]) -> float:
        service = self._anti_entropy_service()
        if service is None:
            return 0.0
        total = service.wan_traffic_bytes(datacenter)
        previous = self._repair_prev.get(datacenter, 0)
        self._repair_prev[datacenter] = total
        return float(total - previous)

    # ------------------------------------------------------------------
    # Staleness accounting (ground truth from the auditor)
    # ------------------------------------------------------------------
    def attach_staleness(self, auditor) -> None:
        """Carry the auditor's measured staleness in subsequent samples.

        Samples then report the windowed stale-read fraction and the
        cumulative staleness-age p99 of the sampled scope, making ground
        truth observable through the same channel as the rates -- what
        closed-loop policies (e.g.
        :class:`~repro.control.policies.StalenessSLAPolicy`) steer on.
        """
        self._staleness = auditor
        self._staleness_prev.clear()

    def _staleness_window(self, datacenter: Optional[str]) -> tuple:
        """``(window stale rate, cumulative age p99)`` for one scope."""
        auditor = self._staleness
        if auditor is None:
            return 0.0, 0.0
        stats = (
            auditor.stats
            if datacenter is None
            else auditor.stats_by_dc.get(datacenter)
        )
        if stats is None:
            return 0.0, 0.0
        judged, stale = stats.judged, stats.stale
        prev_judged, prev_stale = self._staleness_prev.get(datacenter, (0, 0))
        self._staleness_prev[datacenter] = (judged, stale)
        window_judged = judged - prev_judged
        rate = (stale - prev_stale) / window_judged if window_judged > 0 else 0.0
        return rate, stats.age_percentile(99)

    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Take the initial counter snapshot without producing a sample.

        Call once before the measured run starts so the first real sample has
        a well-defined window.  Per-datacenter windows are primed at the same
        instant so both views cover identical time spans.
        """
        now = self.cluster.engine.now
        self._previous = self.cluster.stats.snapshot(now)
        for dc in self.cluster.topology.datacenter_names:
            self._previous_by_dc[dc] = self.cluster.stats.snapshot_for(
                now, self.cluster.topology.nodes_in_datacenter(dc)
            )
            # The cluster-wide snapshot just taken doubles as every site's
            # initial global-write window.
            self._previous_global_by_dc[dc] = self._previous

    def sample(self) -> MonitoringSample:
        """Take one monitoring sample (counters + latency probes)."""
        now = self.cluster.engine.now
        if self._previous is None:
            self.prime()
        assert self._previous is not None
        current = self.cluster.stats.snapshot(now)
        rates = self.cluster.stats.window_rates(self._previous, current)
        self._previous = current
        return self._assemble_sample(
            now,
            raw_read=rates["read_rate"],
            raw_write=rates["write_rate"],
            window=rates["elapsed"],
            datacenter=None,
        )

    # ------------------------------------------------------------------
    # Per-datacenter view (geo monitoring)
    # ------------------------------------------------------------------
    def sample_datacenter(
        self, datacenter: str, *, global_snapshot: Optional[CounterSnapshot] = None
    ) -> MonitoringSample:
        """Take one monitoring sample for one datacenter.

        ``global_snapshot`` lets :meth:`sample_per_datacenter` scan the
        cluster-wide counters once per tick instead of once per site; it
        must have been taken at the current virtual time.

        The read rate comes from the counter deltas of the datacenter's own
        coordinators (the reads its clients issued).  The write rate is
        **cluster-wide**: every write replicates into this datacenter
        regardless of where it was coordinated, so the site's staleness is
        driven by the global inter-write time.  The latency probe targets
        the datacenter's nodes from anywhere in the cluster, so the
        resulting ``Tp`` reflects how long a write takes to reach this
        site's replicas across the WAN.
        """
        members = self.cluster.topology.nodes_in_datacenter(datacenter)
        if not members:
            raise ValueError(f"unknown datacenter {datacenter!r}")
        now = self.cluster.engine.now
        local_current = self.cluster.stats.snapshot_for(now, members)
        local_previous = self._previous_by_dc.get(datacenter, local_current)
        read_rates = self.cluster.stats.window_rates(local_previous, local_current)
        self._previous_by_dc[datacenter] = local_current

        global_current = (
            global_snapshot
            if global_snapshot is not None
            else self.cluster.stats.snapshot_for(now, self.cluster.addresses)
        )
        global_previous = self._previous_global_by_dc.get(datacenter, global_current)
        write_rates = self.cluster.stats.window_rates(global_previous, global_current)
        self._previous_global_by_dc[datacenter] = global_current

        return self._assemble_sample(
            now,
            raw_read=read_rates["read_rate"],
            raw_write=write_rates["write_rate"],
            window=read_rates["elapsed"],
            datacenter=datacenter,
        )

    def _assemble_sample(
        self,
        now: float,
        *,
        raw_read: float,
        raw_write: float,
        window: float,
        datacenter: Optional[str],
    ) -> MonitoringSample:
        """Smooth the raw rates, probe latency, derive ``Tp``, record the sample."""
        alpha = self.config.rate_smoothing
        smoothed = self._smoothed.get(datacenter)
        if window <= 0:
            # A zero-length window (cold call at the priming instant) carries
            # no rate information: report the raw zeros but leave the EWMA
            # state untouched so later, real windows are not dragged down.
            smoothed = smoothed if smoothed is not None else [raw_read, raw_write]
        elif smoothed is None:
            smoothed = [raw_read, raw_write]
            self._smoothed[datacenter] = smoothed
        else:
            smoothed[0] = alpha * raw_read + (1 - alpha) * smoothed[0]
            smoothed[1] = alpha * raw_write + (1 - alpha) * smoothed[1]

        latency = self.measure_network_latency(datacenter=datacenter)
        tp = propagation_time(
            network_latency=latency,
            avg_write_size=self.config.avg_write_size,
            bandwidth_bytes_per_s=self.config.bandwidth_bytes_per_s,
            overhead=self.config.propagation_overhead,
        )
        stale_rate, stale_age_p99 = self._staleness_window(datacenter)
        sample = MonitoringSample(
            time=now,
            read_rate=float(smoothed[0]),
            write_rate=float(smoothed[1]),
            raw_read_rate=float(raw_read),
            raw_write_rate=float(raw_write),
            network_latency=float(latency),
            propagation_time=float(tp),
            window=float(window),
            datacenter=datacenter,
            repair_bytes=self._repair_window_bytes(datacenter),
            stale_rate=float(stale_rate),
            stale_age_p99=float(stale_age_p99),
        )
        if datacenter is None:
            self.samples.append(sample)
        else:
            self.samples_by_dc.setdefault(datacenter, []).append(sample)
        return sample

    def sample_per_datacenter(self) -> Dict[str, MonitoringSample]:
        """One sample per datacenter, in topology order."""
        whole = self.cluster.stats.snapshot_for(
            self.cluster.engine.now, self.cluster.addresses
        )
        return {
            dc: self.sample_datacenter(dc, global_snapshot=whole)
            for dc in self.cluster.topology.datacenter_names
        }

    # ------------------------------------------------------------------
    def measure_network_latency(self, datacenter: Optional[str] = None) -> float:
        """Probe random node pairs and return the mean one-way latency.

        The paper's monitor pings the storage nodes; here the fabric's
        ``ping`` samples the same latency models the data path uses (scaled
        by the fabric's current ``latency_scale``), halved to convert RTT to
        a one-way figure.  Pings draw from pools of their own, so probing
        never shifts a data message's latency.  With ``datacenter`` given,
        every probe's *target* lies in that datacenter while the source is
        drawn from the whole cluster -- the inbound-propagation latency that
        site's replicas see.
        """
        nodes = self.cluster.addresses
        if len(nodes) < 2:
            return 0.0
        probes = self.config.latency_probes_per_sample
        rtts = np.empty(probes, dtype=float)
        if datacenter is None:
            for i in range(probes):
                a_idx, b_idx = self._ping_rng.choice(len(nodes), size=2, replace=False)
                a, b = nodes[int(a_idx)], nodes[int(b_idx)]
                rtts[i] = self.cluster.fabric.ping(a, b)
            return float(np.mean(rtts) / 2.0)
        targets = self.cluster.topology.nodes_in_datacenter(datacenter)
        if not targets:
            raise ValueError(f"unknown datacenter {datacenter!r}")
        for i in range(probes):
            b = targets[int(self._ping_rng.integers(len(targets)))]
            a = b
            while a == b:
                a = nodes[int(self._ping_rng.integers(len(nodes)))]
            rtts[i] = self.cluster.fabric.ping(a, b)
        return float(np.mean(rtts) / 2.0)

    # ------------------------------------------------------------------
    @property
    def last_sample(self) -> Optional[MonitoringSample]:
        """Most recent sample, or ``None`` before the first call."""
        return self.samples[-1] if self.samples else None

    def reset(self) -> None:
        """Forget history (used when reusing a monitor across runs)."""
        self._previous = None
        self._previous_by_dc.clear()
        self._previous_global_by_dc.clear()
        self._smoothed.clear()
        self.samples.clear()
        self.samples_by_dc.clear()
        self._repair_prev.clear()
        self._staleness_prev.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterMonitor(samples={len(self.samples)})"
