"""Property-based tests for the workload key choosers and workload configs."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.distributions import (
    LatestKeyChooser,
    ScrambledZipfianKeyChooser,
    UniformKeyChooser,
    ZipfianGenerator,
)
from repro.workload.workloads import CoreWorkload, OperationType, WorkloadConfig

item_counts = st.integers(min_value=1, max_value=5000)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(n=item_counts, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_every_chooser_stays_within_range(n, seed):
    rng = np.random.default_rng(seed)
    choosers = [
        UniformKeyChooser(n),
        ZipfianGenerator(n),
        ScrambledZipfianKeyChooser(n),
        LatestKeyChooser(n),
    ]
    for chooser in choosers:
        for _ in range(50):
            index = chooser.next_index(rng)
            assert 0 <= index < n


@given(n=st.integers(min_value=2, max_value=2000), extra=st.integers(min_value=1, max_value=500),
       seed=seeds)
@settings(max_examples=50, deadline=None)
def test_growing_the_keyspace_never_breaks_the_range(n, extra, seed):
    rng = np.random.default_rng(seed)
    for chooser in (ZipfianGenerator(n), ScrambledZipfianKeyChooser(n), LatestKeyChooser(n)):
        chooser.grow(n + extra)
        for _ in range(50):
            assert 0 <= chooser.next_index(rng) < n + extra


@given(
    read=st.floats(min_value=0, max_value=1),
    update=st.floats(min_value=0, max_value=1),
    insert=st.floats(min_value=0, max_value=1),
    seed=seeds,
)
@settings(max_examples=100, deadline=None)
def test_workload_operations_follow_the_declared_mix(read, update, insert, seed):
    total = read + update + insert
    if total <= 0:
        read, update, insert, total = 1.0, 0.0, 0.0, 1.0
    config = WorkloadConfig(
        record_count=100,
        operation_count=300,
        read_proportion=read / total,
        update_proportion=update / total,
        insert_proportion=insert / total,
    )
    workload = CoreWorkload(config, np.random.default_rng(seed))
    allowed = {
        op for op, proportion in config.proportions().items() if proportion > 0
    }
    for operation in workload.operations():
        assert operation.op_type in allowed
        assert operation.key.startswith(config.key_prefix)


@given(seed=seeds)
@settings(max_examples=50, deadline=None)
def test_insert_operations_always_use_fresh_keys(seed):
    config = WorkloadConfig(
        record_count=50,
        operation_count=400,
        read_proportion=0.5,
        update_proportion=0.0,
        insert_proportion=0.5,
    )
    workload = CoreWorkload(config, np.random.default_rng(seed))
    seen_inserts = set()
    for operation in workload.operations():
        if operation.op_type is OperationType.INSERT:
            assert operation.key not in seen_inserts
            seen_inserts.add(operation.key)
            index = int(operation.key.removeprefix("user"))
            assert index >= 50
