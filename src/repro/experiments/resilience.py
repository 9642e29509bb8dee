"""Fault-tolerant, subject-affine batch execution for the experiment engine.

The engine's jobs are pure functions of their specs, which makes them safe
to retry: a result computed on the second attempt is bit-identical to one
computed on the first.  This module exploits that purity to run a batch of
jobs through worker processes without the all-or-nothing failure mode of
``pool.map``:

* **Per-job futures.**  Jobs are ``submit()``-ed individually (at most one
  per worker slot at a time, so a submitted job starts immediately and its
  wall-clock deadline is meaningful) and their results are committed the
  moment each future resolves -- a later crash never discards work that
  already finished.
* **Subject affinity.**  Each slot is its own single-worker
  :class:`~concurrent.futures.ProcessPoolExecutor`, and jobs are grouped
  into *subjects* (jobs that share expensive per-process state).  An idle
  slot takes the next job of the subject it holds; when that subject has
  nothing queued it claims the next unclaimed subject in the caller's
  order, and when every subject is claimed it joins the one with the most
  jobs still queued, so the tail of a batch (or a one-subject batch) still
  uses every slot.  Dispatch order never changes payload order: results,
  callbacks and failures name each job by its position in ``payloads``.
* **Failure taxonomy.**  A worker death (:class:`BrokenExecutor`) is a
  *crash*; a job overrunning its wall-clock budget is a *timeout*; any
  other exception raised by the job itself is a *flow error* and propagates
  unretried -- a deterministic bug must fail the run, not burn retries.
* **Bounded retries with backoff.**  Crashed and timed-out jobs are
  re-dispatched up to :attr:`RetryPolicy.max_attempts` times, spaced by
  exponential backoff with deterministic seeded jitter
  (:func:`backoff_delay`), so a transient failure (OOM kill, descheduled
  worker) converges to a correct result instead of aborting the batch.
* **Slot rebuild.**  A crashed or stuck slot is abandoned (best-effort
  ``kill`` of its worker process) and rebuilt; the other slots keep
  running, and only the lost job is re-dispatched.
* **Graceful degradation.**  A job that exhausts its retries -- and the
  whole batch, when no slot can be created at all -- falls back to the
  deterministic in-process path, which computes the same payload the
  worker would have.

A batch that completes joins its workers before returning.  Every abnormal
event is recorded as a structured :class:`JobFailure` on the returned
:class:`BatchOutcome`, which is what the chaos suite and the
failure-classification artifact assert against.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Sequence

from repro import obs

#: Failure kinds recorded in :class:`JobFailure` (the taxonomy).
CRASH = "crash"
TIMEOUT = "timeout"
#: Flow errors are never recorded on an outcome -- they propagate to the
#: caller unretried -- but the name participates in the taxonomy so reports
#: can classify exceptions uniformly.
FLOW_ERROR = "flow-error"

#: How long an abandoned worker may take to die after ``SIGKILL``.
_REAP_SECONDS = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout configuration of one batch.

    ``max_attempts`` counts *pool* attempts per job (the terminal in-process
    degrade is not an attempt).  ``timeout`` is the per-job wall-clock
    budget in seconds (``None``: unbounded).  Backoff before attempt ``k``'s
    retry is ``min(backoff_max, backoff_base * backoff_factor**(k-1))``
    scaled by a deterministic jitter in ``[1-jitter, 1+jitter]`` derived
    from ``seed``, the job index and the attempt number -- reproducible
    schedules, but concurrent retries still spread out.
    """

    max_attempts: int = 3
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0


def backoff_delay(policy: RetryPolicy, index: int, attempt: int) -> float:
    """Deterministic backoff before re-dispatching job ``index``.

    ``attempt`` is the 1-based attempt that just failed.  Same policy, same
    job, same attempt -> same delay, on every platform.
    """
    if policy.backoff_base <= 0:
        return 0.0
    delay = min(
        policy.backoff_max,
        policy.backoff_base * policy.backoff_factor ** max(0, attempt - 1),
    )
    if policy.jitter > 0:
        swing = Random(f"{policy.seed}:{index}:{attempt}").uniform(
            -policy.jitter, policy.jitter
        )
        delay *= max(0.0, 1.0 + swing)
    return delay


@dataclass(frozen=True)
class JobFailure:
    """One abnormal event in a batch (a job lost to a crash or a timeout).

    ``index`` is the job's position in the caller's payload list (never its
    dispatch position), ``attempt`` the 1-based pool attempt that failed,
    ``resolution`` what the executor did about it (``"retry"``:
    re-dispatched to the pool after backoff; ``"in-process"``: retries
    exhausted, computed deterministically in the parent).
    """

    index: int
    kind: str
    attempt: int
    message: str
    resolution: str

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "attempt": self.attempt,
            "message": self.message,
            "resolution": self.resolution,
        }


@dataclass
class BatchOutcome:
    """Results plus the failure/recovery record of one batch."""

    results: list
    failures: list[JobFailure] = field(default_factory=list)
    #: Times a worker slot was abandoned and rebuilt.
    rebuilds: int = 0
    #: Jobs that exhausted their retries and ran in-process.
    degraded: int = 0
    #: False when no slot could be created and the whole batch ran in-process.
    pool_used: bool = True

    def failure_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for failure in self.failures:
            counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return counts


def classify_exception(error: BaseException) -> str:
    """Map an exception from a pool future onto the failure taxonomy."""
    if isinstance(error, BrokenExecutor):
        return CRASH
    return FLOW_ERROR


def _abandon(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down without waiting on (possibly stuck) workers."""
    # Read the workers first: shutdown() drops the executor's reference.
    processes = list((getattr(executor, "_processes", None) or {}).values())
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    # shutdown() only delivers sentinels; a worker wedged inside a job (the
    # timeout case) never reads one.  Reclaim it for real.
    for process in processes:
        try:
            process.kill()
            process.join(_REAP_SECONDS)
        except Exception:  # pragma: no cover - already gone
            pass


def run_resilient(
    worker: Callable,
    payloads: Sequence,
    *,
    jobs: int,
    policy: RetryPolicy | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_result: Callable[[int, object], None] | None = None,
    on_failure: Callable[[JobFailure], None] | None = None,
    subjects: Sequence[Sequence[int]] | None = None,
) -> BatchOutcome:
    """Run ``worker`` over ``payloads`` with per-job retries and timeouts.

    ``subjects`` groups payload positions into subjects, in the order idle
    slots claim them (see the module docstring); each group lists its jobs
    in dispatch order.  ``None`` makes every job its own subject, claimed
    in payload order.  Results are returned in payload order regardless of
    dispatch or completion order; ``on_result(index, payload)`` fires the
    moment each job finishes (pool or in-process), so callers can commit
    completed work immediately, and ``on_failure(failure)`` fires the
    moment each abnormal event is recorded (live progress reporting).
    Exceptions raised *by* a job propagate unchanged after the workers are
    killed; crashes and timeouts are retried per ``policy`` and degrade to
    the in-process path once exhausted.  Every failure is mirrored to the
    tracer's counters (``jobs.crash`` / ``jobs.timeout`` / ``jobs.retry`` /
    ``jobs.degraded_inprocess`` and the ``jobs.backoff_seconds`` total) and
    recorded as a tracer event, so every telemetry exporter sees the
    failure-path traffic.
    """
    policy = policy or RetryPolicy()
    payloads = list(payloads)
    total = len(payloads)
    outcome = BatchOutcome(results=[None] * total)
    if subjects is None:
        subjects = [[index] for index in range(total)]
    groups = [list(group) for group in subjects if group]
    if sorted(index for group in groups for index in group) != list(range(total)):
        raise ValueError("subjects must list every payload position exactly once")

    def finish(index: int, payload) -> None:
        outcome.results[index] = payload
        if on_result is not None:
            on_result(index, payload)

    def run_in_process(index: int) -> None:
        finish(index, worker(payloads[index]))

    def new_pool() -> ProcessPoolExecutor | None:
        try:
            return ProcessPoolExecutor(
                max_workers=1, initializer=initializer, initargs=initargs
            )
        except OSError:
            return None

    pools = [new_pool() for _ in range(max(1, min(jobs, total)))]
    if not any(pools):
        # No process pool on this platform: the deterministic fallback.
        outcome.pool_used = False
        for index in range(total):
            run_in_process(index)
        return outcome

    subject_of = {
        index: subject for subject, group in enumerate(groups) for index in group
    }
    queued = [deque(group) for group in groups]
    unclaimed = deque(range(len(groups)))
    held: list[int | None] = [None] * len(pools)
    attempts = [0] * total
    timers: list[tuple[float, int]] = []  # (due, index) backoff heap
    in_flight: dict[Future, tuple[int, int]] = {}  # future -> (slot, index)
    deadlines: dict[Future, float | None] = {}

    def claim(slot: int) -> int | None:
        """The next job for ``slot`` (``None``: nothing is queued)."""
        subject = held[slot]
        if subject is None or not queued[subject]:
            if unclaimed:
                subject = unclaimed.popleft()
            else:
                subject = max(range(len(queued)), key=lambda s: len(queued[s]))
                if not queued[subject]:
                    return None
            held[slot] = subject
        return queued[subject].popleft()

    def settle_failure(index: int, kind: str, message: str) -> None:
        attempt = attempts[index]
        obs.count(f"jobs.{kind}")
        if attempt >= policy.max_attempts:
            failure = JobFailure(index, kind, attempt, message, "in-process")
            outcome.failures.append(failure)
            obs.count("jobs.degraded_inprocess")
            obs.event(f"job.{kind}", index=index, attempt=attempt,
                      resolution="in-process")
            if on_failure is not None:
                on_failure(failure)
            outcome.degraded += 1
            run_in_process(index)
        else:
            failure = JobFailure(index, kind, attempt, message, "retry")
            outcome.failures.append(failure)
            delay = backoff_delay(policy, index, attempt)
            obs.count("jobs.retry")
            obs.count("jobs.backoff_seconds", delay)
            obs.event(f"job.{kind}", index=index, attempt=attempt,
                      resolution="retry", backoff_seconds=delay)
            if on_failure is not None:
                on_failure(failure)
            due = time.monotonic() + delay
            heapq.heappush(timers, (due, index))

    def rebuild(slot: int) -> None:
        _abandon(pools[slot])
        outcome.rebuilds += 1
        pools[slot] = new_pool()

    def next_tick() -> float | None:
        bounds = [due for due in deadlines.values() if due is not None]
        if timers:
            bounds.append(timers[0][0])
        if not bounds:
            return None
        return max(0.0, min(bounds) - time.monotonic())

    completed = False
    try:
        while any(queued) or timers or in_flight:
            now = time.monotonic()
            while timers and timers[0][0] <= now:
                index = heapq.heappop(timers)[1]
                queued[subject_of[index]].append(index)
            if not any(pools):
                # Every rebuild failed: drain the remaining jobs deterministically.
                remaining = sorted(
                    [index for queue in queued for index in queue]
                    + [index for _due, index in timers]
                )
                for queue in queued:
                    queue.clear()
                timers.clear()
                for index in remaining:
                    run_in_process(index)
                continue
            busy = {slot for slot, _index in in_flight.values()}
            for slot, pool in enumerate(pools):
                if pool is None or slot in busy:
                    continue
                index = claim(slot)
                if index is None:
                    break
                attempts[index] += 1
                future = pool.submit(worker, payloads[index])
                in_flight[future] = (slot, index)
                deadlines[future] = (
                    time.monotonic() + policy.timeout if policy.timeout else None
                )
            if not in_flight:
                if timers:  # waiting out a backoff delay
                    time.sleep(max(0.0, timers[0][0] - time.monotonic()))
                continue
            done, _ = wait(
                list(in_flight), timeout=next_tick(), return_when=FIRST_COMPLETED
            )
            flow_error: BaseException | None = None
            for future in sorted(done, key=lambda f: in_flight[f][1]):
                slot, index = in_flight.pop(future)
                deadlines.pop(future, None)
                error = future.exception()
                if error is None:
                    finish(index, future.result())
                elif classify_exception(error) == CRASH:
                    # A single-worker slot: the crash lost only this job.
                    settle_failure(index, CRASH, str(error) or type(error).__name__)
                    rebuild(slot)
                else:
                    # A real job exception: fail fast, never retry.
                    flow_error = error
            if flow_error is not None:
                raise flow_error
            now = time.monotonic()
            for future, due in list(deadlines.items()):
                if due is not None and due <= now and not future.done():
                    # A stuck worker can only be reclaimed by abandoning its
                    # slot; the other slots keep running.
                    slot, index = in_flight.pop(future)
                    del deadlines[future]
                    settle_failure(
                        index,
                        TIMEOUT,
                        f"job exceeded its {policy.timeout:.3g}s wall-clock budget",
                    )
                    rebuild(slot)
        completed = True
    finally:
        for pool in pools:
            if pool is None:
                continue
            if completed:
                pool.shutdown(wait=True)  # idle workers: join them
            else:
                _abandon(pool)
    return outcome
