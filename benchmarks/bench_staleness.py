"""Staleness benchmark: measured t-visibility vs the closed-form estimator.

The paper's control loop trusts a closed-form estimate of the stale-read
probability.  This benchmark validates that trust quantitatively, on three
platforms (the 3-site Grid'5000 ring, the 3-region EC2 topology, and the
100-node single-DC cluster), by comparing the estimator against the
auditor's exact ground truth:

* **eventual arm** (R=ONE, W=ONE): the paper's model (Eq. 1-6) against the
  measured stale rate, plus the measured t-visibility curve (P[read is
  stale by more than t]) and the k-staleness (version lag) histogram;
* **write-quorum arm** (R=ONE, W=QUORUM): the hypergeometric write-aware
  generalization ``C(N-W, X) / C(N, X)`` -- writing a quorum synchronously
  must cut the stale rate by the predicted combinatorial factor;
* **quorum arm** (R=QUORUM, W=QUORUM): ``R + W > N`` -- the measured stale
  rate must be exactly zero (no model tolerance: overlap is a theorem).

The closed form is *conservative by construction* (the paper's Fig. 4(a)
shows the same overshoot: it prices every read against the aggregate write
process, while a real read only races writes to its own key), so the
recorded per-arm relative error is calibration information, and the
guarded claims are the direction-independent ones: the prediction must
upper-bound the measurement on every arm, t-visibility must be monotone,
the write-quorum arm must not exceed the eventual arm, and the quorum arm
must measure exactly zero.

Estimator inputs are taken from the run itself (measured read/write arrival
rates) and the deterministic topology (mean inter-replica one-way latency
-> ``Tp``), so predictions involve no fitted constants.  Determinism is
asserted by running one arm twice with the same seed and comparing trace
signatures.

:func:`run_bench` is the ``staleness`` section of the scorecard
(``python -m benchmarks.scorecard``), which shows predicted vs measured per
scenario beside the one-sided bound and records both in ``SCORECARD.json``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from repro.cluster.consistency import ConsistencyLevel, quorum_size
from repro.control.estimator import StalenessEstimator
from repro.control.monitor import (
    AVG_WRITE_SIZE,
    PROPAGATION_OVERHEAD,
    MonitoringSample,
    propagation_time,
)
from repro.control.plane import LevelPolicy
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import EC2_MULTIREGION, GRID5000_3SITES, SCALE_100
from repro.workload.workloads import WORKLOAD_A

FULL_CONFIG = {
    "record_count": 300,
    "operation_count": 6000,
    "threads": 15,
    "seed": 11,
}
QUICK_CONFIG = {
    "record_count": 150,
    "operation_count": 1200,
    "threads": 10,
    "seed": 11,
}

SCENARIOS = (GRID5000_3SITES, EC2_MULTIREGION, SCALE_100)

#: t-visibility grid recorded per arm (seconds).
T_GRID = (0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)


def _arm_policy(name: str, rf: int) -> LevelPolicy | str:
    if name == "eventual":
        return "eventual"
    if name == "quorum":
        return "quorum"
    if name == "write_quorum":
        return LevelPolicy(ConsistencyLevel.ONE, ConsistencyLevel.QUORUM, name="write-quorum")
    raise ValueError(name)


def _arm_rw(name: str, rf: int) -> tuple:
    """(read_replicas, write_replicas) of one arm."""
    q = quorum_size(rf)
    return {"eventual": (1, 1), "write_quorum": (1, q), "quorum": (q, q)}[name]


def _trace_signature(result) -> str:
    stats = result.metrics.staleness
    trace = {
        "summary": result.summary(),
        "staleness": stats.summary(),
        "visibility": stats.visibility_curve(T_GRID),
        "k_histogram": stats.k_histogram(),
    }
    return hashlib.sha256(
        json.dumps(trace, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def _predict(cluster, result, read_replicas: int, write_replicas: int) -> float:
    """Closed-form stale probability from measured rates + topology latency."""
    metrics = result.metrics
    duration = max(metrics.duration, 1e-9)
    read_rate = metrics.counters.reads / duration
    write_rate = metrics.counters.writes / duration
    latency = cluster.mean_inter_replica_latency()
    sample = MonitoringSample(
        time=duration,
        read_rate=read_rate,
        write_rate=write_rate,
        raw_read_rate=read_rate,
        raw_write_rate=write_rate,
        network_latency=latency,
        propagation_time=propagation_time(
            latency, avg_write_size=AVG_WRITE_SIZE, overhead=PROPAGATION_OVERHEAD
        ),
        window=duration,
    )
    estimator = StalenessEstimator({None: cluster.replication_factor})
    return estimator.stale_probability_rw(sample, read_replicas, write_replicas)


def _relative_error(measured: float, predicted: float) -> Optional[float]:
    """|measured - predicted| relative to the larger of the two (in [0, 1]).

    Symmetric and bounded, so it stays meaningful when either side is
    small; ``None`` when both are exactly zero (perfect agreement).
    """
    reference = max(measured, predicted)
    if reference <= 0.0:
        return None
    return abs(measured - predicted) / reference


def run_scenario(scenario, cfg: Dict[str, object], seed: int) -> Dict[str, object]:
    workload = WORKLOAD_A.scaled(
        record_count=cfg["record_count"], operation_count=cfg["operation_count"]
    )
    datacenters = (
        scenario.datacenter_names if len(scenario.datacenter_names) > 1 else None
    )
    rf = scenario.cluster_config(seed=seed).replication_factor
    arms: Dict[str, object] = {}
    signatures = []
    for arm_name in ("eventual", "write_quorum", "quorum"):
        repeats = 2 if arm_name == "eventual" else 1  # determinism check
        for _ in range(repeats):
            captured = {}
            result = run_experiment(
                scenario,
                workload,
                _arm_policy(arm_name, rf),
                cfg["threads"],
                seed=seed,
                datacenters=datacenters,
                cluster_hook=lambda c: captured.update(cluster=c),
            )
            if arm_name == "eventual":
                signatures.append(_trace_signature(result))
        stats = result.metrics.staleness
        read_replicas, write_replicas = _arm_rw(arm_name, rf)
        measured = stats.stale_rate()
        predicted = _predict(captured["cluster"], result, read_replicas, write_replicas)
        curve = stats.visibility_curve(T_GRID)
        arms[arm_name] = {
            "read_replicas": read_replicas,
            "write_replicas": write_replicas,
            "judged_reads": stats.judged_reads,
            "stale_reads": stats.stale_reads,
            "measured_stale_rate": round(measured, 6),
            "predicted_stale_rate": round(predicted, 6),
            "relative_error": (
                round(_relative_error(measured, predicted), 4)
                if _relative_error(measured, predicted) is not None
                else None
            ),
            "t_visibility": curve,
            # String keys: json.dump would coerce them anyway, and explicit
            # strings keep the file identical across a load/dump round trip.
            "k_staleness_histogram": {
                str(k): count for k, count in stats.k_histogram().items()
            },
            "stale_age_p99_ms": round(stats.age_percentile(99) * 1e3, 4),
            "k_max": stats.max_k(),
            "throughput_ops_s": round(result.metrics.ops_per_second(), 1),
        }
    eventual = arms["eventual"]
    write_quorum = arms["write_quorum"]
    quorum = arms["quorum"]
    visibility = [row["visibility"] for row in eventual["t_visibility"]]
    monotone = all(a <= b + 1e-12 for a, b in zip(visibility, visibility[1:]))
    return {
        "replication_factor": rf,
        "workload": workload.name,
        "arms": arms,
        "deterministic": len(set(signatures)) == 1,
        "claims": {
            # R + W > N: staleness must vanish exactly, not approximately.
            "quorum_zero_staleness": quorum["measured_stale_rate"] == 0.0,
            # t-visibility = 1 - P[stale by more than t] is monotone in t.
            "t_visibility_monotone": monotone,
            # Writing W > 1 synchronously shrinks the stale window by the
            # hypergeometric factor; the measurement must agree in direction.
            "write_quorum_below_eventual": (
                write_quorum["measured_stale_rate"]
                <= eventual["measured_stale_rate"]
            ),
            # The closed form prices reads against the aggregate write
            # process, so it must never under-estimate the measured rate.
            "estimator_upper_bounds_measurement": all(
                arm["predicted_stale_rate"] + 1e-9 >= arm["measured_stale_rate"]
                for arm in arms.values()
            ),
        },
    }


def run_bench(quick: bool = False) -> Dict[str, object]:
    cfg = QUICK_CONFIG if quick else FULL_CONFIG
    seed = cfg["seed"]
    per_scenario: Dict[str, object] = {}
    for scenario in SCENARIOS:
        per_scenario[scenario.name] = run_scenario(scenario, cfg, seed)
    errors = [
        row["arms"]["eventual"]["relative_error"]
        for row in per_scenario.values()
        if row["arms"]["eventual"]["relative_error"] is not None
    ]
    claims_hold = all(
        all(row["claims"].values()) for row in per_scenario.values()
    )
    return {
        "benchmark": "bench_staleness",
        "quick": quick,
        "seed": seed,
        "config": dict(cfg),
        "scenarios": per_scenario,
        "eventual_max_relative_error": round(max(errors), 4) if errors else None,
        "deterministic": all(row["deterministic"] for row in per_scenario.values()),
        "claims_hold": claims_hold,
    }
