"""Run-wide observability: the op-lifecycle tracer.

:class:`~repro.obs.tracer.Tracer` is a deterministic JSONL trace of client
op lifecycles (issue -> fan-out -> ack/timeout/unavailable -> retry), hint
replay, repair sessions, control-plane decisions, fault events, fair-share
transfers and membership transitions.  Zero cost when off: every hook site
holds a ``tracer`` attribute that is ``None`` by default and is guarded by
one identity check.  :meth:`~repro.obs.tracer.Tracer.attach_cluster` is the
one attach point: it sets ``cluster.tracer``, and every hook site built on
that cluster copies it.  Tracing adds **no engine events** and consumes
**no randomness**, so a traced run is byte-identical to an untraced one.

Quantitative staleness (t-visibility / k-staleness) lives with the ground
truth in :mod:`repro.staleness.stats`.
"""

from repro.obs.tracer import TraceEvent, Tracer

__all__ = ["Tracer", "TraceEvent"]
