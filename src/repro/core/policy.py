"""The named consistency policies of the paper's comparison, as constructors.

A *level policy* answers two questions for every client operation -- which
consistency level to read at, and which to write at -- and is a
:class:`~repro.control.plane.ControlPolicy`: the workload executor registers
it on the run's one :class:`~repro.control.plane.ControlPlane`, and the
object the executor asks for levels is the object the plane ticks.  The
classes live in :mod:`repro.control`; the names here build them from the
arguments the paper's experiments are phrased in:

* :func:`HarmonyPolicy` -- the adaptive loop with a tolerated stale-read rate
  (the paper's "Harmony-S% Tolerable SR" series);
* :func:`StaticEventualPolicy` -- reads and writes at level ONE (the paper's
  "eventual consistency" series);
* :func:`StaticStrongPolicy` -- reads at level ALL (the paper's "strong
  consistency" series, Fig. 1 left);
* :func:`StaticQuorumPolicy` -- reads and writes at QUORUM (classic
  R+W > N configuration, used in ablations);
* :class:`ThresholdPolicy` -- a Wang et al.-style read/write-ratio threshold
  rule switching between ONE and ALL, the related-work ablation (ablation A2
  in :mod:`repro.experiments.ablations`).

Writes default to level ONE for every policy except the quorum policy,
matching the paper's experimental setup (the adaptation is applied to reads).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.consistency import ConsistencyLevel
from repro.control.plane import LevelPolicy
from repro.control.policies import HarmonyReadPolicy, ThresholdReadPolicy
from repro.core.config import HarmonyConfig

__all__ = [
    "StaticEventualPolicy",
    "StaticStrongPolicy",
    "StaticQuorumPolicy",
    "HarmonyPolicy",
    "ThresholdPolicy",
]

#: The threshold rule takes exactly the arguments its policy class does.
ThresholdPolicy = ThresholdReadPolicy


def StaticEventualPolicy() -> LevelPolicy:
    """Cassandra's static eventual consistency: every operation at level ONE."""
    return LevelPolicy(ConsistencyLevel.ONE, ConsistencyLevel.ONE, name="eventual")


def StaticStrongPolicy(write: ConsistencyLevel = ConsistencyLevel.ONE) -> LevelPolicy:
    """Strong consistency: reads wait for every replica (level ALL).

    Writes stay at level ONE, as in the paper's strong-consistency series
    (Fig. 1 left shows the read path blocking on all replicas).
    """
    return LevelPolicy(ConsistencyLevel.ALL, write, name="strong")


def StaticQuorumPolicy() -> LevelPolicy:
    """Reads and writes at QUORUM: the classic R + W > N configuration."""
    return LevelPolicy(ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM, name="quorum")


def HarmonyPolicy(
    tolerated_stale_rate: Optional[float] = None,
    config: Optional[HarmonyConfig] = None,
    write: ConsistencyLevel = ConsistencyLevel.ONE,
) -> HarmonyReadPolicy:
    """The paper's adaptive policy (:class:`~repro.control.policies.HarmonyReadPolicy`).

    Parameters
    ----------
    tolerated_stale_rate:
        The application's ASR; also accepted pre-packaged in ``config``.
    config:
        Full Harmony configuration; built from the ASR if omitted.
    write:
        Write consistency level (ONE, as in the paper).
    """
    if config is None:
        if tolerated_stale_rate is None:
            raise ValueError("provide tolerated_stale_rate or a full HarmonyConfig")
        config = HarmonyConfig(tolerated_stale_rate=tolerated_stale_rate)
    elif tolerated_stale_rate is not None and (
        abs(config.tolerated_stale_rate - tolerated_stale_rate) > 1e-12
    ):
        raise ValueError(
            "tolerated_stale_rate disagrees with config.tolerated_stale_rate; "
            "pass only one of them"
        )
    return HarmonyReadPolicy(config, write=write)

