"""Canonical JSON (de)serialization of fault schedules and reproducers.

Two jobs share one wire format:

* **Byte-identity.** The generator's determinism contract ("same
  ``(seed, scenario, budget)`` gives a byte-identical schedule") is stated
  over :func:`schedule_signature`, the sha256 of the canonical JSON form --
  key-sorted, ms-rounded floats, addresses as ``[dc, rack, id]`` triples.
* **The reproducer corpus.** ``tools/chaos_search.py --emit-corpus DIR``
  writes every minimized failing schedule as a reproducer file; the ones
  committed under ``tests/chaos/corpus/`` are replayed by
  ``tests/chaos/test_corpus_replay.py``, which asserts all invariants hold.

An event is its kind's ``tag`` (as ``"type"``) plus its dataclass fields,
generically: a field is omitted only when it equals a ``None`` or ``bool``
default, so ``mode`` and every other field with a value default is always
written.  The format is versioned (``"format": 1``) so later PRs can evolve
it without invalidating committed corpus entries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.network.topology import NodeAddress

__all__ = [
    "CORPUS_FORMAT",
    "Reproducer",
    "event_from_dict",
    "event_to_dict",
    "load_reproducer",
    "schedule_from_dict",
    "schedule_signature",
    "schedule_to_dict",
    "write_reproducer",
]

CORPUS_FORMAT = 1

#: Every fault kind by its corpus tag.
_KINDS = {kind.tag: kind for kind in FaultEvent.__subclasses__()}


def _address_from_list(raw: Any) -> NodeAddress:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ValueError(f"node address must be [dc, rack, id], got {raw!r}")
    return NodeAddress(str(raw[0]), str(raw[1]), int(raw[2]))


#: JSON value -> field value, by the field's declared type.  ``None`` stays
#: ``None`` whatever the type.
_DECODE = {
    "float": float,
    "Optional[float]": float,
    "bool": bool,
    "str": str,
    "Tuple[str, str]": tuple,
    "NodeAddress": _address_from_list,
}


def event_to_dict(event: FaultEvent) -> Dict[str, Any]:
    """One fault event as a plain JSON-ready dict with a ``type`` tag.

    Every field is written except one that equals a ``None`` or ``bool``
    default; tuples (site pairs, node addresses as ``[dc, rack, id]``)
    become lists.
    """
    if not isinstance(event, FaultEvent):
        raise TypeError(f"cannot serialize fault event {event!r}")
    out: Dict[str, Any] = {"type": event.tag}
    for spec in fields(event):
        value = getattr(event, spec.name)
        if value == spec.default and (spec.default is None or isinstance(spec.default, bool)):
            continue
        out[spec.name] = list(value) if isinstance(value, tuple) else value
    return out


def event_from_dict(raw: Dict[str, Any]) -> FaultEvent:
    """Inverse of :func:`event_to_dict`."""
    kind = _KINDS.get(raw.get("type"))
    if kind is None:
        raise ValueError(f"unknown fault event type {raw.get('type')!r}")
    values = {
        spec.name: None if raw[spec.name] is None else _DECODE[spec.type](raw[spec.name])
        for spec in fields(kind)
        if spec.name in raw
    }
    return kind(**values)


def schedule_to_dict(schedule: FaultSchedule) -> Dict[str, Any]:
    return {"events": [event_to_dict(event) for event in schedule.events]}


def schedule_from_dict(raw: Dict[str, Any]) -> FaultSchedule:
    return FaultSchedule([event_from_dict(item) for item in raw["events"]])


def schedule_signature(schedule: FaultSchedule) -> str:
    """sha256 of the canonical JSON form -- the byte-identity the generator
    property tests assert over."""
    canonical = json.dumps(schedule_to_dict(schedule), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Reproducer:
    """One corpus entry: a schedule plus the run configuration to replay it.

    ``config`` holds :class:`repro.chaos.replay.ChaosConfig` field overrides
    (kept as a plain dict so the corpus format does not chase the config
    dataclass); ``expected_violations`` records which invariants failed when
    the entry was discovered -- committed entries must replay clean, so the
    replay test treats the field as provenance, not an expectation.
    """

    schedule: FaultSchedule
    scenario: str
    seed: int = 0
    description: str = ""
    source: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    expected_violations: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": CORPUS_FORMAT,
            "description": self.description,
            "scenario": self.scenario,
            "seed": self.seed,
            "source": self.source,
            "config": dict(self.config),
            "events": schedule_to_dict(self.schedule)["events"],
            "violations": list(self.expected_violations),
        }


def write_reproducer(path: Union[str, Path], reproducer: Reproducer) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(reproducer.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path: Union[str, Path]) -> Reproducer:
    raw = json.loads(Path(path).read_text())
    fmt = raw.get("format")
    if fmt != CORPUS_FORMAT:
        raise ValueError(f"unsupported corpus format {fmt!r} in {path}")
    return Reproducer(
        schedule=schedule_from_dict(raw),
        scenario=str(raw["scenario"]),
        seed=int(raw.get("seed", 0)),
        description=str(raw.get("description", "")),
        source=str(raw.get("source", "")),
        config=dict(raw.get("config", {})),
        expected_violations=[str(v) for v in raw.get("violations", [])],
    )
