"""Experiment harness: scenarios, runner and per-figure regenerators.

This package is what the ``benchmarks/`` directory calls into.  It mirrors
the paper's evaluation (Section V):

* :mod:`repro.experiments.scenarios` -- the two platforms: ``GRID5000``
  (low-latency bare-metal LAN) and ``EC2`` (higher, more variable latency);
* :mod:`repro.experiments.runner` -- :func:`run_experiment`, which builds a
  fresh cluster for a (scenario, policy, workload, threads) combination,
  runs the workload and returns the collected metrics as an
  :class:`ExperimentResult`; :meth:`ExperimentResult.record` reduces one to
  a :class:`RunRecord`, the small, frozen, picklable part of a run the
  figures, claims and ablations read (the summary row, the raw values it
  rounds, the estimate series and per-datacenter read columns);
* :mod:`repro.experiments.figures` -- one function per figure of the paper
  (4a, 4b, 5a-d, 6a-b) that sweeps the relevant parameter and returns the
  rows/series the paper plots.  Every figure, claim and ablation run is
  made by :meth:`~repro.experiments.figures.FigureDefaults.run`, which
  returns records and keeps them in a table keyed by the complete argument
  set, so a run two tables need is simulated once per ``FigureDefaults``
  instance (runs with a ``cluster_hook`` are never shared);
* :mod:`repro.experiments.claims` -- the two headline claims (~80% fewer
  stale reads than eventual consistency, ~45% more throughput than strong
  consistency);
* :mod:`repro.experiments.ablations` -- the monitoring-interval (A1) and
  policy-comparison (A2) ablations.
"""

from repro.experiments.runner import ExperimentConfig, ExperimentResult, RunRecord, run_experiment
from repro.experiments.scenarios import (
    EC2,
    EC2_MULTIREGION,
    GRID5000,
    GRID5000_3SITES,
    Scenario,
    ScenarioRegistry,
)

__all__ = [
    "EC2",
    "EC2_MULTIREGION",
    "ExperimentConfig",
    "ExperimentResult",
    "GRID5000",
    "GRID5000_3SITES",
    "RunRecord",
    "Scenario",
    "ScenarioRegistry",
    "run_experiment",
]
