"""Unit tests for the core workload definitions."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workload.workloads import (
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
    WORKLOAD_D,
    CoreWorkload,
    OperationType,
    WorkloadConfig,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestWorkloadConfig:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadConfig(read_proportion=0.5, update_proportion=0.2)

    def test_negative_proportion_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(read_proportion=1.2, update_proportion=-0.2)

    def test_record_size(self):
        config = WorkloadConfig(field_count=10, field_length=100)
        assert config.record_size == 1000

    def test_scaled_changes_only_volume(self):
        scaled = WORKLOAD_A.scaled(record_count=10, operation_count=20)
        assert scaled.record_count == 10
        assert scaled.operation_count == 20
        assert scaled.read_proportion == WORKLOAD_A.read_proportion
        assert scaled.name == WORKLOAD_A.name

    def test_validation_of_counts(self):
        with pytest.raises(ValueError):
            WorkloadConfig(record_count=0)
        with pytest.raises(ValueError):
            WorkloadConfig(field_count=0)


class TestStandardPresets:
    def test_workload_a_mix(self):
        assert WORKLOAD_A.read_proportion == 0.5
        assert WORKLOAD_A.update_proportion == 0.5

    def test_workload_b_mix(self):
        assert WORKLOAD_B.read_proportion == 0.95
        assert WORKLOAD_B.update_proportion == 0.05

    def test_workload_c_is_read_only(self):
        assert WORKLOAD_C.read_proportion == 1.0

    def test_workload_d_uses_latest_distribution(self):
        assert WORKLOAD_D.request_distribution == "latest"
        assert WORKLOAD_D.insert_proportion == 0.05


class TestCoreWorkload:
    def test_load_keys_cover_record_count(self, rng):
        workload = CoreWorkload(WORKLOAD_A.scaled(record_count=25), rng)
        keys = workload.load_keys()
        assert len(keys) == 25
        assert keys[0] == "user0"
        assert keys[-1] == "user24"

    def test_operation_mix_matches_configuration(self, rng):
        workload = CoreWorkload(
            WORKLOAD_A.scaled(record_count=100, operation_count=20_000), rng
        )
        ops = list(workload.operations())
        reads = sum(1 for op in ops if op.op_type is OperationType.READ)
        updates = sum(1 for op in ops if op.op_type is OperationType.UPDATE)
        assert reads + updates == len(ops)
        assert 0.45 < reads / len(ops) < 0.55

    def test_read_mostly_workload_mix(self, rng):
        workload = CoreWorkload(
            WORKLOAD_B.scaled(record_count=100, operation_count=20_000), rng
        )
        ops = list(workload.operations())
        updates = sum(1 for op in ops if op.op_type.is_write)
        assert 0.03 < updates / len(ops) < 0.07

    def test_keys_stay_within_the_keyspace(self, rng):
        workload = CoreWorkload(
            WORKLOAD_A.scaled(record_count=50, operation_count=2000), rng
        )
        for op in workload.operations():
            index = int(op.key.removeprefix("user"))
            assert 0 <= index < 50

    def test_updates_carry_the_record_size(self, rng):
        workload = CoreWorkload(WORKLOAD_A.scaled(record_count=10, operation_count=500), rng)
        for op in workload.operations():
            if op.op_type.is_write:
                assert op.value_size == workload.value_size()

    def test_inserts_extend_the_keyspace(self, rng):
        workload = CoreWorkload(
            WORKLOAD_D.scaled(record_count=20, operation_count=2000), rng
        )
        initial = workload.inserted_records
        inserted_keys = [
            op.key for op in workload.operations() if op.op_type is OperationType.INSERT
        ]
        assert workload.inserted_records == initial + len(inserted_keys)
        # New keys continue the numbering after the loaded ones.
        assert all(int(k.removeprefix("user")) >= 20 for k in inserted_keys)

    def test_operation_count_default_and_override(self, rng):
        workload = CoreWorkload(WORKLOAD_A.scaled(record_count=10, operation_count=77), rng)
        assert len(list(workload.operations())) == 77
        assert len(list(workload.operations(5))) == 5

    def test_generation_is_reproducible_for_a_fixed_seed(self):
        a = CoreWorkload(WORKLOAD_A.scaled(record_count=40, operation_count=200),
                         np.random.default_rng(3))
        b = CoreWorkload(WORKLOAD_A.scaled(record_count=40, operation_count=200),
                         np.random.default_rng(3))
        ops_a = [(op.op_type, op.key) for op in a.operations()]
        ops_b = [(op.op_type, op.key) for op in b.operations()]
        assert ops_a == ops_b

    @pytest.mark.parametrize(
        "config, digest",
        [
            (WORKLOAD_A, "d5cfc351a5156d7a05bc6d3b5e8102284f3b20cdcd7937954611cd6aac5d9dce"),
            (WORKLOAD_B, "cf61a02afe9faf9b2ad4fcd45f3c3d7ba3b454506dfe021e5567ece9b0522676"),
            (WORKLOAD_C, "4ddd6d22f8d86a1c28f3a370a85f144545def5272b9e5fb5ae97030308f56150"),
            (WORKLOAD_D, "84045c0deb479ac426d7b5c5f11bae4cdfab564ddf6d3fc497dcf9110085a225"),
        ],
        ids=["A", "B", "C", "D"],
    )
    def test_the_operation_stream_is_pinned(self, config, digest):
        # The digest of each preset's stream was recorded while the mix still
        # carried scan and read-modify-write kinds at weight 0: dropping
        # those kinds moved no draw.
        workload = CoreWorkload(
            config.scaled(record_count=200, operation_count=2000), np.random.default_rng(11)
        )
        text = "\n".join(
            f"{op.op_type.value} {op.key} {op.value_size}" for op in workload.operations()
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_operation_type_is_write_property(self):
        assert OperationType.UPDATE.is_write
        assert OperationType.INSERT.is_write
        assert not OperationType.READ.is_write
