"""The tracer: ``cProfile`` around one call, self time attributed to layers.

Every function call is a span; a span's self time is the profiler's
``tottime``; its layer is the ``src/repro`` file that defines it.  Self time
of built-ins, NumPy and the standard library belongs to whoever called them:
it is charged to the layer of the calling frame along the profiler's caller
edges (through further non-``repro`` frames if need be).  Time reached from
no ``repro`` frame at all stays *unattributed*.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from collections import defaultdict
from typing import Dict, Optional, Tuple

from benchmarks.perf.spec import LAYERS

Function = Tuple[str, int, str]  # (file, line, name), as pstats keys them

UNATTRIBUTED = "unattributed"

#: First match wins; paths are relative to ``src/repro/``.
_LAYER_OF_PATH = (
    ("cluster/coordinator.py", "coordinator"),
    ("cluster/consistency.py", "coordinator"),
    ("cluster/hints.py", "coordinator"),
    ("cluster/node.py", "node"),
    ("cluster/storage.py", "node"),
    ("cluster/stats.py", "node"),
    ("cluster/antientropy.py", "repair"),
    ("cluster/", "placement"),  # cluster.py, ring.py, replication.py, membership.py
    ("experiments/", "experiments"),
    ("sim/", "sim"),
    ("network/", "network"),
    ("workload/", "workload"),
    ("control/", "control"),
    ("core/", "control"),
    ("geo/", "control"),
    ("extensions/", "control"),
    ("staleness/", "staleness"),
    ("faults/", "faults"),
    ("chaos/", "faults"),
    ("metrics/", "metrics"),
    ("obs/", "metrics"),
    ("analysis/", "metrics"),
    ("", "experiments"),  # repro/__init__.py, constants.py
)

_PACKAGE_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def relative_path(filename: str) -> Optional[str]:
    """Path below ``src/repro/``, or ``None`` for code that is not the program's."""
    index = filename.rfind(_PACKAGE_MARKER)
    if index < 0:
        return None
    return filename[index + len(_PACKAGE_MARKER):].replace(os.sep, "/")


def layer_of(filename: str) -> Optional[str]:
    path = relative_path(filename)
    if path is None:
        return None
    return next(layer for prefix, layer in _LAYER_OF_PATH if path.startswith(prefix))


#: Sweeps of the caller-share relaxation; import machinery recurses a few
#: frames deep at most, so the shares settle long before this.
_SWEEPS = 20


class LayerTable:
    """Per-layer self time and call counts of one profiled call."""

    def __init__(self, profiler: cProfile.Profile, traced_wall_s: float) -> None:
        #: function -> (primitive calls, calls, self time, cumulative time,
        #: {caller -> the same four, for calls made from that caller})
        stats: Dict[Function, tuple] = pstats.Stats(profiler).stats
        self._stats = stats
        self.traced_wall_s = traced_wall_s
        self.self_s: Dict[str, float] = defaultdict(float)
        self.call_count: Dict[str, int] = defaultdict(int)
        working_for = self._caller_shares()
        for function, (_, calls, self_time, _, callers) in stats.items():
            layer = layer_of(function[0])
            if layer is not None:
                self.self_s[layer] += self_time
                self.call_count[layer] += calls
            elif not callers:
                self.self_s[UNATTRIBUTED] += self_time
            else:
                for caller, edge in callers.items():
                    for owner, share in working_for[caller].items():
                        self.self_s[owner] += edge[2] * share

    def _caller_shares(self) -> Dict[Function, Dict[str, float]]:
        """For every function, the layers its frames were working for, as shares.

        A ``repro`` function works for its own layer.  Any other frame works
        for its callers, each weighed by the cumulative time it spent there;
        callers may themselves be foreign (NumPy calling a built-in) or form
        cycles (imports importing), so the shares are relaxed over a few
        sweeps instead of resolved by recursion.
        """
        shares: Dict[Function, Dict[str, float]] = {}
        foreign = []
        for function in self._stats:
            layer = layer_of(function[0])
            if layer is not None:
                shares[function] = {layer: 1.0}
            else:
                shares[function] = {}
                foreign.append(function)
        for _ in range(_SWEEPS):
            for function in foreign:
                callers = self._stats[function][4]
                total = sum(edge[3] for edge in callers.values())
                if total <= 0.0:
                    continue
                relaxed: Dict[str, float] = defaultdict(float)
                for caller, edge in callers.items():
                    for owner, share in shares[caller].items():
                        relaxed[owner] += share * edge[3] / total
                shares[function] = relaxed
        for function in foreign:
            reached = sum(shares[function].values())
            if reached <= 0.0:
                shares[function] = {UNATTRIBUTED: 1.0}
            else:  # what still circulates in a cycle belongs to who entered it
                shares[function] = {o: s / reached for o, s in shares[function].items()}
        return shares

    @property
    def profiled_s(self) -> float:
        """All self time the profiler clocked (the traced wall less its own hooks)."""
        return sum(self.self_s.values())

    @property
    def attributed_s(self) -> float:
        """Self time that reached one of the named layers."""
        return sum(self.self_s[layer] for layer in LAYERS)

    @property
    def metrics(self) -> Dict[str, float]:
        total = self.profiled_s
        table: Dict[str, float] = {"trace.unattributed_share": self.self_s[UNATTRIBUTED] / total}
        for layer in LAYERS:
            table[f"{layer}.self_s"] = self.self_s[layer]
            table[f"{layer}.self_share"] = self.self_s[layer] / total
            table[f"{layer}.calls"] = self.call_count[layer]
        return table

    def _matching(self, path: str, name: str):
        for function, row in self._stats.items():
            if function[2] == name and relative_path(function[0]) == path:
                yield row

    def calls(self, path: str, name: str) -> int:
        """Times the functions called ``name`` in ``src/repro/<path>`` ran."""
        return sum(row[1] for row in self._matching(path, name))

    def cumulative_s(self, path: str, name: str) -> float:
        return sum(row[3] for row in self._matching(path, name))

    def write(self, path: str, **identity: object) -> None:
        """Write the spans: one row per function, heaviest self time first."""
        spans = []
        for function, (_, calls, self_time, cumulative, _) in self._stats.items():
            relative = relative_path(function[0])
            spans.append({
                "layer": layer_of(function[0]) or "(charged to caller)",
                "file": relative if relative is not None else function[0],
                "line": function[1],
                "function": function[2],
                "calls": calls,
                "self_s": self_time,
                "cum_s": cumulative,
            })
        spans.sort(key=lambda span: span["self_s"], reverse=True)
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **identity,
                    "traced_wall_s": self.traced_wall_s,
                    "profiled_s": self.profiled_s,
                    "layers": self.metrics,
                    "spans": spans,
                },
                handle,
                indent=1,
            )
            handle.write("\n")

