"""YCSB-style workload generation and execution.

The paper drives Cassandra with the Yahoo! Cloud Serving Benchmark (YCSB
0.1.3): workload A (heavy read/update, 50/50) and workload B (read-heavy,
~95/5), zipfian request distributions, and a closed-loop client with a
configurable number of threads (1, 15, 40, 70, 90 in the evaluation).

This package provides the equivalent pieces:

* :mod:`repro.workload.distributions` -- key choosers (uniform, zipfian,
  scrambled zipfian, latest) with the same roles as YCSB's generators;
* :mod:`repro.workload.workloads` -- :class:`CoreWorkload` describing the
  operation mix, key space and value sizes, plus the standard A-D presets;
* :mod:`repro.workload.client` -- closed-loop client threads simulated as
  processes on the event engine;
* :mod:`repro.workload.executor` -- :class:`WorkloadExecutor`, which loads
  the initial dataset, runs the client threads against a cluster under a
  consistency policy and collects metrics.
"""

from repro.workload.client import ClientThread
from repro.workload.distributions import (
    KeyChooser,
    LatestKeyChooser,
    ScrambledZipfianKeyChooser,
    UniformKeyChooser,
    ZipfianGenerator,
)
from repro.workload.executor import RunMetrics, WorkloadExecutor
from repro.workload.workloads import (
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    WORKLOAD_D,
    CoreWorkload,
    OperationType,
    WorkloadConfig,
)

__all__ = [
    "ClientThread",
    "CoreWorkload",
    "KeyChooser",
    "LatestKeyChooser",
    "OperationType",
    "RunMetrics",
    "ScrambledZipfianKeyChooser",
    "UniformKeyChooser",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
    "WorkloadConfig",
    "WorkloadExecutor",
    "ZipfianGenerator",
]
