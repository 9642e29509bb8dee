"""Unit tests for the fault-tolerant batch executor.

The worker functions live at module top level so ProcessPoolExecutor can
pickle them; crash-prone workers only misbehave inside pool workers (they
check the parent pid or a cross-process once-latch), so the deterministic
in-process degrade path stays safe to run in the test process.
"""

import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.experiments import resilience
from repro.experiments.engine import ExperimentEngine
from repro.experiments.faults import claim_once
from repro.experiments.resilience import (
    CRASH,
    FLOW_ERROR,
    TIMEOUT,
    BatchOutcome,
    JobFailure,
    RetryPolicy,
    backoff_delay,
    classify_exception,
    run_resilient,
)

FAST = RetryPolicy(backoff_base=0.01, backoff_max=0.05)


def _square(value):
    return value * value


def _crash_first_job_once(payload):
    value, spool = payload
    if value == 0 and claim_once(spool, "crash"):
        os._exit(13)
    return value * 10


def _crash_in_pool_workers(payload):
    value, parent_pid = payload
    if os.getpid() != parent_pid:
        os._exit(13)
    return value - 1


def _sleep_first_job_once(payload):
    value, spool, seconds = payload
    if seconds and claim_once(spool, f"sleep-{value}"):
        time.sleep(seconds)
    return value + 100


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def _record_then_raise(payload):
    value, spool = payload
    claim_once(spool, f"ran-{value}-{os.getpid()}-{time.monotonic_ns():x}")
    raise ValueError(f"bad payload {value}")


class TestRetryPolicy:
    def test_engine_default_ignores_the_environment(self, monkeypatch):
        """Only ``retry_policy=`` (the runner's ``--job-timeout`` /
        ``--job-retries``) sets the policy; no variable changes the default."""
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_JOB_RETRIES", "4")
        policy = ExperimentEngine(use_cache=False).retry_policy
        assert policy == RetryPolicy()
        assert policy.timeout is None and policy.max_attempts == 3

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=7)
        for index in range(3):
            for attempt in range(1, 5):
                first = backoff_delay(policy, index, attempt)
                assert first == backoff_delay(policy, index, attempt)
                assert 0.0 <= first <= policy.backoff_max * (1 + policy.jitter)
        # Different jobs de-synchronize their retry schedules.
        assert backoff_delay(policy, 0, 1) != backoff_delay(policy, 1, 1)

    def test_backoff_zero_base_disables_delay(self):
        assert backoff_delay(RetryPolicy(backoff_base=0.0), 0, 1) == 0.0

    def test_classification(self):
        assert classify_exception(BrokenExecutor("gone")) == CRASH
        assert classify_exception(ValueError("boom")) == FLOW_ERROR

    def test_failure_counts(self):
        outcome = BatchOutcome(
            results=[],
            failures=[
                JobFailure(0, CRASH, 1, "x", "retry"),
                JobFailure(1, CRASH, 1, "x", "retry"),
                JobFailure(0, TIMEOUT, 2, "x", "in-process"),
            ],
        )
        assert outcome.failure_counts() == {CRASH: 2, TIMEOUT: 1}


class TestRunResilient:
    def test_clean_batch_ordered_results_and_callbacks(self):
        seen = {}
        outcome = run_resilient(
            _square,
            [3, 1, 4, 1, 5],
            jobs=2,
            policy=FAST,
            on_result=lambda index, payload: seen.setdefault(index, payload),
        )
        assert outcome.results == [9, 1, 16, 1, 25]
        assert seen == {0: 9, 1: 1, 2: 16, 3: 1, 4: 25}
        assert outcome.failures == [] and outcome.rebuilds == 0
        assert outcome.pool_used

    def test_worker_crash_is_retried_to_identical_results(self, tmp_path):
        payloads = [(value, str(tmp_path)) for value in range(4)]
        outcome = run_resilient(
            _crash_first_job_once, payloads, jobs=2, policy=FAST
        )
        assert outcome.results == [0, 10, 20, 30]
        assert outcome.rebuilds >= 1
        assert outcome.degraded == 0
        kinds = {failure.kind for failure in outcome.failures}
        assert kinds == {CRASH}
        assert all(f.resolution == "retry" for f in outcome.failures)

    def test_exhausted_retries_degrade_to_in_process(self):
        payloads = [(value, os.getpid()) for value in (5, 9)]
        outcome = run_resilient(
            _crash_in_pool_workers,
            payloads,
            jobs=2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.01),
        )
        # Every pool attempt dies; the deterministic parent path finishes.
        assert outcome.results == [4, 8]
        assert outcome.degraded == 2
        assert [f.resolution for f in outcome.failures].count("in-process") == 2
        assert all(f.kind == CRASH for f in outcome.failures)

    def test_timeout_charges_job_and_retry_succeeds(self, tmp_path):
        payloads = [
            (0, str(tmp_path), 30.0),  # would hang far past the budget
            (1, str(tmp_path), 0.0),
        ]
        policy = RetryPolicy(timeout=0.5, backoff_base=0.01)
        start = time.monotonic()
        outcome = run_resilient(_sleep_first_job_once, payloads, jobs=2, policy=policy)
        elapsed = time.monotonic() - start
        assert outcome.results == [100, 101]
        assert TIMEOUT in {failure.kind for failure in outcome.failures}
        assert outcome.rebuilds >= 1
        assert elapsed < 20.0  # the stuck worker was reclaimed, not awaited

    def test_flow_errors_propagate_without_retry(self, tmp_path):
        with pytest.raises(ValueError, match="bad payload"):
            run_resilient(
                _record_then_raise,
                [(0, str(tmp_path)), (1, str(tmp_path))],
                jobs=2,
                policy=FAST,
            )
        # Each payload executed at most once: deterministic bugs never retry.
        runs = [path.name for path in tmp_path.glob("ran-*.fired")]
        for value in (0, 1):
            assert sum(1 for name in runs if name.startswith(f"ran-{value}-")) <= 1

    def test_pool_creation_failure_runs_whole_batch_in_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(resilience, "ProcessPoolExecutor", refuse)
        seen = []
        outcome = run_resilient(
            _square,
            [2, 3],
            jobs=2,
            policy=FAST,
            on_result=lambda index, payload: seen.append((index, payload)),
        )
        assert outcome.results == [4, 9]
        assert not outcome.pool_used
        assert seen == [(0, 4), (1, 9)]

    def test_single_job_batches_still_work(self):
        outcome = run_resilient(_square, [6], jobs=4, policy=FAST)
        assert outcome.results == [36]

    def test_successful_batch_joins_its_workers(self):
        before = set(multiprocessing.active_children())
        outcome = run_resilient(_square, list(range(8)), jobs=2, policy=FAST)
        assert outcome.results == [value * value for value in range(8)]
        assert set(multiprocessing.active_children()) <= before


class TestSubjectDispatch:
    def test_every_job_of_a_subject_runs_in_one_pid(self):
        """More subjects than workers: one slot holds the long subject 0
        while the other claims and drains subjects 1 and 2, so no slot is
        ever idle while another subject has jobs queued."""
        subjects = [[0], [1, 2, 3], [4, 5, 6]]
        payloads = [1.0, 0, 0, 0, 0, 0, 0]
        outcome = run_resilient(
            _pid_after, payloads, jobs=2, policy=FAST, subjects=subjects
        )
        pids = outcome.results
        for group in subjects:
            assert len({pids[index] for index in group}) == 1
        assert pids[0] != pids[1]

    def test_subjects_are_claimed_in_the_given_order(self):
        finished = []
        outcome = run_resilient(
            _square,
            [1, 2, 3, 4],
            jobs=1,
            policy=FAST,
            subjects=[[2, 3], [0, 1]],
            on_result=lambda index, payload: finished.append(index),
        )
        assert finished == [2, 3, 0, 1]
        assert outcome.results == [1, 4, 9, 16]  # payload order

    def test_failure_index_names_the_payload_position(self, tmp_path):
        """Payload 0 crashes once; it is dispatched last, yet its failure
        names position 0 in the caller's list."""
        payloads = [(value, str(tmp_path)) for value in range(4)]
        outcome = run_resilient(
            _crash_first_job_once,
            payloads,
            jobs=2,
            policy=FAST,
            subjects=[[3, 2], [1, 0]],
        )
        assert outcome.results == [0, 10, 20, 30]
        assert [(f.index, f.kind) for f in outcome.failures] == [(0, CRASH)]
        assert outcome.rebuilds == 1

    def test_one_subject_batch_runs_on_every_slot(self):
        outcome = run_resilient(
            _pid_after, [0, 0, 0, 0], jobs=2, policy=FAST, subjects=[[0, 1, 2, 3]]
        )
        assert len(set(outcome.results)) == 2

    def test_subjects_must_cover_every_payload_once(self):
        with pytest.raises(ValueError, match="exactly once"):
            run_resilient(_square, [1, 2], jobs=2, policy=FAST, subjects=[[0, 0]])
