"""Core workload definitions (operation mixes, key space, value sizes).

:class:`WorkloadConfig` plays the role of a YCSB workload properties file;
:class:`CoreWorkload` turns it into a stream of operations.  The standard
presets A-D are provided with the same operation mixes as YCSB's bundled
``workloada`` ... ``workloadd`` files; the paper's evaluation uses
workload A (heavy read/update, 50/50) and workload B (read-heavy, ~95/5).
YCSB's scan (E) and read-modify-write (F) mixes are not modelled.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field, replace
from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.workload.distributions import KeyChooser, make_key_chooser

__all__ = [
    "OperationType",
    "Operation",
    "WorkloadConfig",
    "CoreWorkload",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
]


class OperationType(enum.Enum):
    """The operation kinds a YCSB core workload can issue."""

    READ = "read"
    UPDATE = "update"
    INSERT = "insert"

    @property
    def is_write(self) -> bool:
        """Whether the operation mutates data (updates the replicas)."""
        return self is not OperationType.READ


class Operation(NamedTuple):
    """One generated operation (a NamedTuple: one C-level ctor per draw).

    Attributes
    ----------
    op_type:
        The operation kind.
    key:
        The record key (``"user<index>"`` like YCSB).
    value_size:
        Payload size in bytes for mutating operations.
    """

    op_type: OperationType
    key: str
    value_size: int = 0


@dataclass(frozen=True)
class WorkloadConfig:
    """Declarative description of a workload (a YCSB properties file analogue).

    Attributes
    ----------
    name:
        Human-readable workload name (used in reports).
    record_count:
        Number of records loaded before the run (YCSB ``recordcount``).
    operation_count:
        Number of operations in the run phase (``operationcount``).
    read_proportion / update_proportion / insert_proportion:
        Operation mix; must sum to 1.0 (within a small tolerance).
    request_distribution:
        ``uniform``, ``zipfian`` (scrambled; YCSB default) or ``latest``.
    zipfian_theta:
        Skew of the zipfian distributions.
    field_count / field_length:
        Record shape: YCSB's default 10 fields x 100 bytes = ~1 KB rows.
    key_prefix:
        Prefix of generated keys.
    """

    name: str = "custom"
    record_count: int = 1000
    operation_count: int = 10_000
    read_proportion: float = 0.5
    update_proportion: float = 0.5
    insert_proportion: float = 0.0
    request_distribution: str = "zipfian"
    zipfian_theta: float = 0.99
    field_count: int = 10
    field_length: int = 100
    key_prefix: str = "user"

    def __post_init__(self) -> None:
        if self.record_count < 1:
            raise ValueError("record_count must be >= 1")
        if self.operation_count < 0:
            raise ValueError("operation_count must be >= 0")
        proportions = self.proportions()
        total = sum(proportions.values())
        if any(p < 0 for p in proportions.values()):
            raise ValueError("operation proportions must be non-negative")
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"operation proportions must sum to 1.0, got {total!r}")
        if self.field_count < 1 or self.field_length < 1:
            raise ValueError("field_count and field_length must be >= 1")

    def proportions(self) -> Dict[OperationType, float]:
        """The operation mix as a dict keyed by :class:`OperationType`."""
        return {
            OperationType.READ: self.read_proportion,
            OperationType.UPDATE: self.update_proportion,
            OperationType.INSERT: self.insert_proportion,
        }

    @property
    def record_size(self) -> int:
        """Approximate size in bytes of one record."""
        return self.field_count * self.field_length

    def scaled(self, *, record_count: Optional[int] = None, operation_count: Optional[int] = None
               ) -> "WorkloadConfig":
        """Copy of the config with a different data / operation volume.

        The experiment harness uses this to shrink the paper's 3-10 million
        operation runs to simulation-friendly sizes without touching the mix.
        """
        return replace(
            self,
            record_count=record_count if record_count is not None else self.record_count,
            operation_count=(
                operation_count if operation_count is not None else self.operation_count
            ),
        )


class CoreWorkload:
    """Generates the load phase keys and the run phase operation stream."""

    def __init__(self, config: WorkloadConfig, rng: np.random.Generator) -> None:
        self.config = config
        self._rng = rng
        self._insert_count = config.record_count
        self._chooser: KeyChooser = make_key_chooser(
            config.request_distribution,
            config.record_count,
            theta=config.zipfian_theta,
        )
        # Pre-compute the cumulative operation mix for fast sampling.
        mix = config.proportions()
        self._op_types = [op for op, p in mix.items() if p > 0]
        probabilities = np.array([mix[op] for op in self._op_types], dtype=float)
        self._cumulative = np.cumsum(probabilities / probabilities.sum())
        self._cumulative_list: list = self._cumulative.tolist()
        self._key_names: list = []
        self._values: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Load phase
    # ------------------------------------------------------------------
    def load_keys(self) -> list[str]:
        """Keys inserted during the load phase (``user0`` ... ``user<n-1>``)."""
        return [self.key_for(i) for i in range(self.config.record_count)]

    def key_for(self, index: int) -> str:
        """Key name of record ``index`` (memoized -- one f-string per key)."""
        names = self._key_names
        while index >= len(names):
            names.append(f"{self.config.key_prefix}{len(names)}")
        return names[index]

    def value_for(self, key: str) -> str:
        """Synthetic payload of a write to ``key`` (memoized -- one string per
        record, however often it is written; its size is ``value_size``)."""
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = f"value:{key}"
        return value

    def value_size(self) -> int:
        """Size in bytes of one generated record value."""
        return self.config.record_size

    # ------------------------------------------------------------------
    # Run phase
    # ------------------------------------------------------------------
    @property
    def inserted_records(self) -> int:
        """Total records in the key space (grows as INSERTs are issued)."""
        return self._insert_count

    def next_operation(self) -> Operation:
        """Draw the next operation of the run phase."""
        op_type = self._draw_op_type()
        if op_type is OperationType.INSERT:
            key = self.key_for(self._insert_count)
            self._insert_count += 1
            self._chooser.grow(self._insert_count)
            return Operation(op_type=op_type, key=key, value_size=self.value_size())
        index = self._chooser.next_index(self._rng)
        key = self.key_for(index)
        if op_type.is_write:
            return Operation(op_type=op_type, key=key, value_size=self.value_size())
        return Operation(op_type=op_type, key=key)

    def operations(self, count: Optional[int] = None):
        """Iterator over ``count`` operations (defaults to ``operation_count``)."""
        total = count if count is not None else self.config.operation_count
        for _ in range(total):
            yield self.next_operation()

    def _draw_op_type(self) -> OperationType:
        # bisect on the (tiny) cumulative list instead of np.searchsorted:
        # the NumPy call overhead dwarfs the search at this size.  The
        # single scalar draw keeps stream consumption identical to the
        # historical implementation.
        u = float(self._rng.random())
        index = bisect.bisect_right(self._cumulative_list, u)
        if index >= len(self._op_types):
            index = len(self._op_types) - 1
        return self._op_types[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoreWorkload({self.config.name!r}, records={self.config.record_count})"


# ----------------------------------------------------------------------
# Standard YCSB presets (operation mixes match the bundled workload files).
# ----------------------------------------------------------------------

#: Workload A -- update heavy: 50% reads, 50% updates (the paper's main workload).
WORKLOAD_A = WorkloadConfig(
    name="workload-a",
    read_proportion=0.5,
    update_proportion=0.5,
    request_distribution="zipfian",
)

#: Workload B -- read mostly: 95% reads, 5% updates (the paper's second workload).
WORKLOAD_B = WorkloadConfig(
    name="workload-b",
    read_proportion=0.95,
    update_proportion=0.05,
    request_distribution="zipfian",
)

#: Workload C -- read only.
WORKLOAD_C = WorkloadConfig(
    name="workload-c",
    read_proportion=1.0,
    update_proportion=0.0,
    request_distribution="zipfian",
)

#: Workload D -- read latest: 95% reads, 5% inserts, latest distribution.
WORKLOAD_D = WorkloadConfig(
    name="workload-d",
    read_proportion=0.95,
    update_proportion=0.0,
    insert_proportion=0.05,
    request_distribution="latest",
)
