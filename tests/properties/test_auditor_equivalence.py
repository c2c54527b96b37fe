"""Differential property: the auditor's columnar history ≡ the list-of-tuples oracle.

The auditor keeps each key's acknowledged versions as three typed columns and
bisects them: the timestamps first, then the value ids inside the run of rows
with one timestamp.  Fed the same stream of acknowledgements and reads as
``tests/properties/auditor_oracle.py``, it must answer every lookup and judge
every read the same way -- ``acked_before``, ``lag_of``, ``newest``, the
verdict, the staleness age and the version lag ``k``.  The streams mix equal
write timestamps with distinct value ids, late acks of older versions, ack
times that go backwards, and reads at any start time that return an
acknowledged version, some other (older or newer) version, or nothing.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.coordinator import OperationResult
from repro.cluster.storage import Cell
from repro.staleness.auditor import StalenessAuditor, _KeyHistory

from tests.properties import auditor_oracle as oracle

KEY = "user0"
#: Few distinct write timestamps, so equal timestamps with distinct value ids
#: are common; a coarse time grid, so ack times tie with read starts.
TIMESTAMPS = st.integers(0, 6).map(lambda step: step / 2)
VALUE_IDS = st.integers(0, 12)
TIMES = st.integers(0, 40).map(lambda step: step / 4)


@st.composite
def streams(draw):
    """``("ack", ack_time, version)`` and ``("read", started_at, returned)`` items."""
    stream, written = [], []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.booleans()):
            version = (draw(TIMESTAMPS), draw(VALUE_IDS))
            written.append(version)
            stream.append(("ack", draw(TIMES), version))
            continue
        returned = [st.none(), st.tuples(TIMESTAMPS, VALUE_IDS)]
        if written:
            returned.append(st.sampled_from(written))
        stream.append(("read", draw(TIMES), draw(st.one_of(returned))))
    return stream


def result(op_type, started_at, completed_at, version, datacenter=None) -> OperationResult:
    cell = None if version is None else Cell(timestamp=version[0], value_id=version[1], key=KEY)
    return OperationResult(
        op_type=op_type,
        key=KEY,
        cell=cell,
        consistency_level=ConsistencyLevel.ONE,
        blocked_for=1,
        started_at=started_at,
        completed_at=completed_at,
        datacenter=datacenter,
    )


@given(stream=streams())
@settings(max_examples=150, deadline=None)
def test_columnar_history_judges_like_the_oracle(stream):
    expected, history, auditor = oracle.KeyHistory(), _KeyHistory(), StalenessAuditor()
    for index, (kind, time, version) in enumerate(stream):
        if kind == "ack":
            expected.record(time, version)
            history.record(time, version)
            auditor.observe_write(result("write", time, time, version))
            assert history.newest() == expected.newest() == auditor.newest_acknowledged(KEY)
            continue
        assert history.acked_before(time) == expected.acked_before(time)
        if version is not None:
            for acked in range(len(expected.versions) + 1):
                assert history.lag_of(version, acked) == expected.lag_of(version, acked)
        # One datacenter per read: that scope's stats hold this read's age and k alone.
        datacenter = f"read{index}"
        verdict = auditor.judge(KEY, result("read", time, time + 1.0, version, datacenter))
        want, age, k = oracle.judge(expected, time, version)
        assert verdict is want
        stats = auditor.stats_by_dc.get(datacenter)
        if verdict is None:
            assert (stats.judged_reads, stats.unknown_reads) == (0, 1)
        elif verdict:
            ages = stats.stale_age_histogram
            assert (stats.stale_reads, ages.max(), stats.max_k()) == (1, age, k)
        else:
            assert stats.stale_reads == 0 and stats.k_histogram() == {0: 1}
