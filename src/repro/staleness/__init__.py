"""Staleness measurement.

The paper measures stale reads by issuing a *second* read with the strongest
consistency level for every workload read and comparing the returned
timestamps, while noting that this methodology perturbs latency, throughput
and the monitoring data itself.

The simulator can do better: :class:`~repro.staleness.auditor.StalenessAuditor`
observes the ground truth (the newest client-acknowledged write for each key
at the moment a read is issued) at zero simulated cost, so the measured
workload is not disturbed.  The paper-faithful dual-read probe is also
provided (:class:`~repro.staleness.probe.DualReadProbe`) for methodological
comparison.
"""

from repro.staleness.auditor import StalenessAuditor
from repro.staleness.probe import DualReadProbe

__all__ = ["StalenessAuditor", "DualReadProbe"]
