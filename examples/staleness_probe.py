#!/usr/bin/env python
"""Measuring staleness: ground-truth auditing vs. the paper's dual-read probe.

Section V-F of the paper measures stale reads by issuing a second, strongly
consistent read for every workload read and comparing timestamps -- and then
notes that this methodology perturbs the system: it changes latency and
throughput, affects the monitoring data, and gives writes extra time to
propagate (making the *next* read more likely to be fresh).

The simulator can observe ground truth for free, so both instruments are
available.  This example runs the same workload twice:

1. with the zero-cost :class:`StalenessAuditor` only, and
2. with the intrusive :class:`DualReadProbe` issuing a verification read at
   level ALL after every workload read (the paper's methodology),

and compares throughput, latency and the measured stale fraction.

Run with::

    python examples/staleness_probe.py
"""

from __future__ import annotations

from repro import (
    ClusterConfig,
    DualReadProbe,
    SimulatedCluster,
    StalenessAuditor,
    WORKLOAD_A,
    WorkloadExecutor,
    format_table,
    make_policy,
)

THREADS = 20
WORKLOAD = WORKLOAD_A.scaled(record_count=500, operation_count=4000)


def run(with_probe: bool, seed: int = 9):
    cluster = SimulatedCluster(
        ClusterConfig(
            n_nodes=8,
            replication_factor=5,
            datacenters=2,
            racks_per_dc=2,
            seed=seed,
        )
    )
    auditor = StalenessAuditor()
    probe = DualReadProbe(cluster) if with_probe else None
    if probe is not None:
        # Issue a verification read for every completed workload read,
        # exactly like the paper's measurement harness.
        def verify(result):
            if result.op_type == "read":
                probe.probe(result)

        cluster.add_operation_observer(verify)

    executor = WorkloadExecutor(
        cluster,
        WORKLOAD,
        make_policy("eventual"),
        threads=THREADS,
        auditor=auditor,
    )
    metrics = executor.run()
    row = {
        "measurement": "dual-read probe (paper)" if with_probe else "ground-truth auditor",
        "throughput_ops_s": round(metrics.ops_per_second(), 1),
        "read_p99_ms": round(metrics.read_latency.p99() * 1e3, 2),
        "ground_truth_stale_rate": round(metrics.staleness.stale_rate(), 4),
        "probe_stale_rate": round(probe.stale_rate(), 4) if probe else None,
        "extra_reads_issued": probe.probes_issued if probe else 0,
    }
    return row, auditor


def render_visibility_cdf(stats, width: int = 50) -> str:
    """ASCII t-visibility CDF: P(read at most t stale) over a log t grid.

    The auditor quantifies every stale read's age, so the curve is exact --
    the same data `benchmarks/bench_staleness.py` records as JSON.
    """
    lines = ["t-visibility (ground truth): P(read is at most t seconds stale)"]
    for row in stats.visibility_curve():
        bar = "#" * round(row["visibility"] * width)
        lines.append(f"  t <= {row['t'] * 1e3:8.1f} ms |{bar:<{width}}| {row['visibility']:7.2%}")
    lines.append(
        f"  stale reads: {stats.stale_reads}/{stats.judged_reads}"
        f"  age p99: {stats.age_percentile(99) * 1e3:.1f} ms"
        f"  max version lag k: {stats.max_k()}"
    )
    return "\n".join(lines)


def main() -> None:
    row_auditor, auditor = run(with_probe=False)
    row_probe, _ = run(with_probe=True)
    rows = [row_auditor, row_probe]
    print(
        format_table(
            rows,
            title="Eventual consistency under workload A: measurement methodology comparison",
        )
    )
    print()
    print(render_visibility_cdf(auditor.stats))
    print()
    print(
        "The dual-read methodology consumes cluster capacity (one extra strong read\n"
        "per workload read), which lowers throughput and inflates latency -- the\n"
        "perturbation the paper acknowledges.  The ground-truth auditor observes the\n"
        "same system without touching it, which is what the figure benches use."
    )


if __name__ == "__main__":
    main()
