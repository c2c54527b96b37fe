"""Closed-loop client threads.

YCSB drives the store with a fixed number of client threads; each thread
issues its next operation as soon as the previous one completes (optionally
after a think/target-rate delay).  Throughput therefore rises with the thread
count until the cluster saturates -- the behaviour behind the paper's
Fig. 5(c)/(d).

A :class:`ClientThread` used to be a generator-based simulated process that
yielded a fresh ``Waiter`` per operation and was woken by one dedicated
engine event per completion.  It is now a plain **callback state machine**:
the coordinator's completion callback lands in a shared
:class:`CompletionBatch`, and one zero-delay engine event resumes *every*
client that became ready at that instant, in completion order.  Per
operation that removes the ``Waiter`` allocation, the generator ``send``
chain and (together with the coordinator's shared timer queues) both of the
bookkeeping engine events the old path paid -- the difference between ~7k
and 10k+ simulated operations per wall-second on ``SCALE_100``.

The resumption order is identical to the old one-event-per-waiter scheme:
batched completions run consecutively in the order they arrived, which is
exactly the sequence-number order their individual wake-up events would have
had (no other event can be scheduled between two completions of the same
instant).  Same-seed runs therefore reproduce the recorded simulated-time
metrics byte for byte.

Unavailable rejections go through a pluggable
:class:`~repro.control.retry.RetryPolicy`: the default surfaces the failure
after a 50 ms backoff, while
:class:`~repro.control.retry.DowngradeRetryPolicy` re-issues the operation
at a weaker consistency level -- e.g. ``EACH_QUORUM -> LOCAL_QUORUM`` during
a datacenter outage -- with every retry and downgrade metered through the
executor's counters.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional, Tuple

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.consistency import ConsistencyLevel
from repro.cluster.coordinator import OperationResult
from repro.control.retry import RetryPolicy
from repro.sim.engine import EventHandle
from repro.workload.workloads import CoreWorkload, Operation

__all__ = ["ClientThread", "CompletionBatch"]

#: The policy of a client given none: surface the failure after 50 ms.  Shared
#: by every such client (a :class:`RetryPolicy` holds no state).
_NO_RETRY = RetryPolicy()


class CompletionBatch:
    """Wakes every ready client with one engine event per instant.

    Completion callbacks append ``(continuation, result)`` pairs; the first
    append at an instant arms a single zero-delay flush event, and the flush
    runs every queued continuation in arrival order.  Continuations that
    arrive *during* a flush (a resumed client issuing and instantly failing
    an operation, for example) start a fresh batch for the next event.
    """

    __slots__ = ("_engine", "_ready", "_scheduled")

    def __init__(self, engine) -> None:
        self._engine = engine
        self._ready: List[Tuple[Callable[[Any], None], Any]] = []
        self._scheduled = False

    def add(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Queue ``fn(arg)`` for the next flush (arming it if necessary)."""
        self._ready.append((fn, arg))
        if not self._scheduled:
            self._scheduled = True
            self._engine.call_at(self._engine._now, self._flush)

    def _flush(self) -> None:
        ready = self._ready
        self._ready = []
        self._scheduled = False
        for fn, arg in ready:
            fn(arg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompletionBatch(ready={len(self._ready)}, armed={self._scheduled})"


class ClientThread:
    """One closed-loop client issuing operations until a shared budget runs out.

    Parameters
    ----------
    thread_id:
        Identifier used in traces.
    cluster:
        The cluster under test.
    workload:
        Shared operation generator.
    read_level_provider:
        Callable returning the consistency level for the *next read*
        (Harmony's adaptive module, or a static level).
    write_level_provider:
        Same for writes (the paper keeps writes at level ONE and adapts only
        reads; the provider makes that explicit and testable).
    take_budget:
        Callable returning ``True`` while operations remain in the shared
        budget; each call consumes one unit.
    on_result:
        Callback invoked with ``(Operation, OperationResult)`` on completion.
    on_issue:
        Optional callback invoked with ``(Operation,)`` right before the
        operation is sent (the staleness auditor snapshots ground truth
        here).
    on_retry:
        Optional callback invoked with ``(Operation, from_level, to_level,
        attempt)`` before each Unavailable retry -- the executor meters
        retries and level downgrades through it.
    think_time:
        Fixed delay between an operation completing and the next being
        issued (0 for a tight closed loop, as in YCSB without a target rate).
    retry_policy:
        Policy consulted after every Unavailable rejection.  ``None`` means
        the default no-retry policy with a 50 ms backoff (drivers back off
        before the next operation after a host refused work; without this,
        a client pinned to a dead datacenter would burn the whole operation
        budget in zero virtual time).
    datacenter:
        When given, the client only contacts coordinators in that
        datacenter (a geo client next to one site); DC-aware consistency
        levels then resolve "local" to this datacenter.
    batch:
        Shared :class:`CompletionBatch`; the executor hands every client the
        same one so one flush event resumes the whole ready set.  A private
        batch is created when omitted (standalone use).
    """

    # A wide run holds one client per thread for its whole length (1,280 on
    # the SCALE_1000 ledger row), so each one is a fixed record, not a dict.
    __slots__ = (
        "thread_id",
        "datacenter",
        "operations_completed",
        "_cluster",
        "_engine",
        "_workload",
        "_read_level_provider",
        "_write_level_provider",
        "_take_budget",
        "_on_result",
        "_on_issue",
        "_on_retry",
        "_think_time",
        "_retry_policy",
        "_batch",
        "_running",
        "_finished",
        "_on_finish",
        "_sleep_handle",
        "_op",
        "_attempt",
        "_override",
        "_cb_single",
    )

    def __init__(
        self,
        thread_id: int,
        cluster: SimulatedCluster,
        workload: CoreWorkload,
        *,
        read_level_provider: Callable[[], ConsistencyLevel],
        write_level_provider: Callable[[], ConsistencyLevel],
        take_budget: Callable[[], bool],
        on_result: Callable[[Operation, OperationResult], None],
        on_issue: Optional[Callable[[Operation], None]] = None,
        on_retry: Optional[Callable[[Operation, object, object, int], None]] = None,
        think_time: float = 0.0,
        retry_policy: Optional[RetryPolicy] = None,
        datacenter: Optional[str] = None,
        batch: Optional[CompletionBatch] = None,
    ) -> None:
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self.thread_id = thread_id
        self.datacenter = datacenter
        self._cluster = cluster
        self._engine = cluster.engine
        self._workload = workload
        self._read_level_provider = read_level_provider
        self._write_level_provider = write_level_provider
        self._take_budget = take_budget
        self._on_result = on_result
        self._on_issue = on_issue
        self._on_retry = on_retry
        self._think_time = think_time
        self._retry_policy = retry_policy or _NO_RETRY
        self._batch = batch if batch is not None else CompletionBatch(cluster.engine)
        self.operations_completed = 0
        self._running = False
        self._finished = False
        self._on_finish: Optional[Callable[[], None]] = None
        self._sleep_handle: Optional[EventHandle] = None
        # In-flight operation state (one operation at a time per client).
        self._op: Optional[Operation] = None
        self._attempt = 0
        self._override: Optional[ConsistencyLevel] = None
        # Pre-bound completion sink: the coordinator calls it with the result,
        # which enqueues the continuation in the shared batch.  Binding once
        # per client keeps the hot path free of per-operation closures.
        self._cb_single = partial(self._batch.add, self._attempt_done)

    # ------------------------------------------------------------------
    def start(self, on_finish: Optional[Callable[[], None]] = None) -> "ClientThread":
        """Start the closed loop.

        ``on_finish`` is invoked once when the loop completes (or is
        stopped); the executor uses it to count finished clients instead of
        scanning every client after each engine step.  The first operation
        is issued from the batch's next flush event, never re-entrantly
        inside the caller's stack frame.
        """
        self._on_finish = on_finish
        self._running = True
        self._finished = False
        self._batch.add(self._next_operation)
        return self

    def stop(self) -> None:
        """Stop the client immediately (no further operations are issued)."""
        if self._finished:
            return
        self._running = False
        if self._sleep_handle is not None:
            self._sleep_handle.cancel()
            self._sleep_handle = None
        self._finish()

    @property
    def finished(self) -> bool:
        return self._finished

    # ------------------------------------------------------------------
    # The closed loop
    # ------------------------------------------------------------------
    def _finish(self) -> None:
        self._finished = True
        self._running = False
        if self._on_finish is not None:
            self._on_finish()

    def _next_operation(self, _arg: Any = None) -> None:
        if not self._running:
            return
        if not self._take_budget():
            self._finish()
            return
        self._op = self._workload.next_operation()
        self._attempt = 0
        self._override = None
        self._start_attempt()

    def _start_attempt(self, _arg: Any = None) -> None:
        """Issue one attempt of the current operation (fresh or retried)."""
        if not self._running:
            return
        operation = self._op
        assert operation is not None
        if self._on_issue is not None:
            self._on_issue(operation)
        # A retry downgrade holds for every later attempt of the operation.
        override = self._override
        if operation.op_type.is_write:
            level = override if override is not None else self._write_level_provider()
            self._cluster.write(
                operation.key,
                self._workload.value_for(operation.key),
                level,
                self._cb_single,
                datacenter=self.datacenter,
                size_bytes=operation.value_size or None,
            )
        else:
            level = override if override is not None else self._read_level_provider()
            self._cluster.read(operation.key, level, self._cb_single, datacenter=self.datacenter)

    # ------------------------------------------------------------------
    # Completion (runs inside the batch flush)
    # ------------------------------------------------------------------
    def _attempt_done(self, result: OperationResult) -> None:
        """One attempt finished: report the operation and pace the next one,
        unless an Unavailable rejection is retried.

        The pause before the next operation is the think time, plus the
        retry policy's backoff when the operation still failed (the
        historical post-failure backoff, composed with the think time like
        back-to-back sleeps).  Sleeps are rare relative to completions, so
        they are plain cancellable engine events; ``stop()`` cancels a
        pending one so stopped clients never resume.
        """
        if not self._running:
            return
        pause = self._think_time
        if result.unavailable:
            backoff = self._retry(result)
            if backoff is None:
                return
            pause += backoff
        self.operations_completed += 1
        self._on_result(self._op, result)
        if pause > 0:
            self._sleep_handle = self._engine.schedule(pause, self._next_operation)
        else:
            self._next_operation()

    def _retry(self, result: OperationResult) -> Optional[float]:
        """Consult the retry policy on an Unavailable rejection: ``None`` when
        the operation was re-issued, else the backoff to take after
        reporting it failed."""
        decision = self._retry_policy.on_unavailable(
            result.consistency_level,
            self._attempt,
            datacenter=self.datacenter,
        )
        if not decision.retry:
            return decision.backoff
        to_level = decision.level if decision.level is not None else result.consistency_level
        if self._on_retry is not None:
            self._on_retry(self._op, result.consistency_level, to_level, self._attempt)
        if decision.level is not None:
            self._override = decision.level
        self._attempt += 1
        if decision.backoff > 0:
            self._sleep_handle = self._engine.schedule(decision.backoff, self._start_attempt)
        else:
            self._start_attempt()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClientThread(id={self.thread_id}, completed={self.operations_completed})"
