"""The simulated run is pinned: a speed-up may not move a single event.

Each of the four single-engine ledger workloads runs once at its ``--quick``
size on the ledger's first input, through the same
:func:`benchmarks.perf.probe.measure` the ledger uses.  Its ``digest`` hashes
the run's summary, the engine's event count and the fabric's message count,
so a change to the op path that reorders an event, adds or drops a message,
or moves a random draw fails here with the workload's name.

A change that means to move simulated behaviour re-records these constants
in the same commit and says why.
"""

from __future__ import annotations

import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks.perf import probe, spec  # noqa: E402

#: Digest per workload at its quick size on input ``input_seeds(DEFAULT_SEED)[0]``.
PINNED = {
    "paper_harmony_lan": "23c9a56c75793225351c409a89276051fc39cd4e6725771aa17625a95f471371",
    "scale100_quorum": "afdec05a16f27f0cb77b7642a83555947a405b0ec1942bb9b0ba5a99ceb657bf",
    "scale1000_wide": "28d3ddd4806a9c12259a8934071b7d259a8cd8e431ffabf0972e4fd5d469f3ff",
    "geo_faults_wan": "1ec8c3f00084844ac70c67b75015199c99cca31b5c7f051e0cb5dc751a172d81",
}


def test_every_single_engine_workload_is_pinned():
    single = {w.name for w in spec.WORKLOADS if not w.sharded}
    assert set(PINNED) == single


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quick_run_digest_is_unchanged(name):
    workload = spec.workload(name).sized(quick=True)
    seed = spec.input_seeds(spec.DEFAULT_SEED)[0]
    report = probe.measure(workload, seed)
    assert not report["checks"], report["checks"]
    assert report["digest"] == PINNED[name], (
        f"{name}: the simulated run moved (summary, event count or message count)"
    )
