"""Reference load: the initial records written through the simulator, kept as a test oracle.

This is how ``WorkloadExecutor.load`` worked before the load became a bulk
load: every record is issued at t = 0 as a CL ONE write through the
round-robin coordinator, the engine runs until the cluster has settled (every
replica applied its copy, every acknowledgement arrived), and the auditor is
told of each acknowledged write.  It spends engine events, fabric messages and
latency / service-time draws -- which is why it left the run -- but the state
it leaves behind is the contract the bulk load is held to
(``tests/properties/test_bulk_load_equivalence.py``).
"""

from __future__ import annotations

from typing import List

from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.coordinator import OperationResult
from repro.workload.executor import WorkloadExecutor


def simulated_load(executor: WorkloadExecutor) -> List[OperationResult]:
    """Write every record at CL ONE, settle, and acknowledge to the auditor."""
    cluster = executor.cluster
    workload = executor.workload
    completed: List[OperationResult] = []
    for key in workload.load_keys():
        cluster.write(
            key,
            f"initial:{key}",
            ConsistencyLevel.ONE,
            completed.append,
            size_bytes=workload.value_size(),
        )
    cluster.settle()
    if executor.auditor is not None:
        for result in completed:
            executor.auditor.observe_write(result)
    return completed
