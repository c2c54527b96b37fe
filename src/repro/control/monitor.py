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
* it probes ``LATENCY_PROBES_PER_SAMPLE`` replica pairs through the network
  fabric's ``ping`` facility, aggregates the measured latency and turns it
  into the propagation time ``Tp`` (:func:`propagation_time`);
* rates are exponentially smoothed (``RATE_SMOOTHING``) so a single
  quiet/busy window does not whipsaw the consistency level.

The monitor is passive: it never touches the simulated data path, exactly as
the real monitoring module sits outside Cassandra's request path.  It keeps
only what its next sample needs (the previous counter snapshots and the
smoothing state) and no history: what each sample led to is recorded once,
in the control plane's decision log (:attr:`ControlPlane.decisions
<repro.control.plane.ControlPlane.decisions>`).

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
from repro.constants import DEFAULT_BANDWIDTH_BYTES_PER_S

__all__ = ["MonitoringSample", "ClusterMonitor", "propagation_time"]

#: Exponential-smoothing factor applied to the measured read/write rates
#: (1.0 = use only the latest window, lower values smooth more).
RATE_SMOOTHING = 0.6
#: Node pairs probed (``ping``) per monitoring sample.
LATENCY_PROBES_PER_SAMPLE = 8
#: Average write payload size in bytes used in the ``Tp`` computation.
AVG_WRITE_SIZE = 1024.0
#: Fixed per-write overhead added to ``Tp`` (serialisation, commit-log
#: append on the receiving replica).
PROPAGATION_OVERHEAD = 0.000005


def propagation_time(
    network_latency: float,
    avg_write_size: float = 0.0,
    bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S,
    overhead: float = 0.0,
) -> float:
    """The paper's ``Tp(Ln, avg_w)``: time to propagate a write to all replicas.

    Parameters
    ----------
    network_latency:
        One-way inter-replica network latency ``Ln`` in seconds.
    avg_write_size:
        Average write payload size in bytes (``avg_w``); its contribution is
        the transfer time at ``bandwidth_bytes_per_s``.
    bandwidth_bytes_per_s:
        Replication-link bandwidth (default 1 Gbit/s, the paper's testbed).
    overhead:
        Fixed per-write processing overhead at the receiving replica.

    Returns
    -------
    float
        ``Tp`` in seconds (never negative).
    """
    if network_latency < 0:
        raise ValueError(f"network latency must be non-negative, got {network_latency!r}")
    if avg_write_size < 0:
        raise ValueError(f"average write size must be non-negative, got {avg_write_size!r}")
    if bandwidth_bytes_per_s <= 0:
        raise ValueError("bandwidth must be positive")
    if overhead < 0:
        raise ValueError("overhead must be non-negative")
    return network_latency + avg_write_size / bandwidth_bytes_per_s + overhead


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


class ClusterMonitor:
    """Samples cluster counters and network latency on demand.

    The monitor takes no tunables: when it samples is the control plane's
    business (:class:`~repro.control.plane.ControlPlane`), and how it
    samples is fixed by the module constants above.
    """

    def __init__(self, cluster: SimulatedCluster) -> None:
        self.cluster = cluster
        self._previous: Optional[CounterSnapshot] = None
        self._previous_by_dc: Dict[str, CounterSnapshot] = {}
        # Cluster-wide snapshots tracked per datacenter window (the write
        # rate each site's model consumes is cluster-wide; see module doc).
        self._previous_global_by_dc: Dict[str, CounterSnapshot] = {}
        #: Smoothing state per scope: ``None`` for the cluster-wide view,
        #: the datacenter name for per-DC views; value is [read, write].
        self._smoothed: Dict[Optional[str], List[float]] = {}
        self._ping_rng = cluster.streams.stream("harmony.monitor.ping")

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
        """Smooth the raw rates, probe latency, derive ``Tp``, build the sample."""
        alpha = RATE_SMOOTHING
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
            avg_write_size=AVG_WRITE_SIZE,
            bandwidth_bytes_per_s=DEFAULT_BANDWIDTH_BYTES_PER_S,
            overhead=PROPAGATION_OVERHEAD,
        )
        return MonitoringSample(
            time=now,
            read_rate=float(smoothed[0]),
            write_rate=float(smoothed[1]),
            raw_read_rate=float(raw_read),
            raw_write_rate=float(raw_write),
            network_latency=float(latency),
            propagation_time=float(tp),
            window=float(window),
            datacenter=datacenter,
        )

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
        probes = LATENCY_PROBES_PER_SAMPLE
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
