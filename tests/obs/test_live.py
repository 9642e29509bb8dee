"""Live progress line: policy, rendering and terminal hygiene."""

import io

from repro.obs.live import LiveProgress, live_progress_enabled


class _Tty(io.StringIO):
    def isatty(self):
        return True


class TestPolicy:
    def test_interactive_stderr_enables(self):
        assert live_progress_enabled(stream=_Tty(), environ={})

    def test_non_tty_disables(self):
        assert not live_progress_enabled(stream=io.StringIO(), environ={})

    def test_env_overrides_beat_the_tty_check(self):
        assert live_progress_enabled(
            stream=io.StringIO(), environ={"REPRO_LIVE": "1"}
        )
        assert not live_progress_enabled(
            stream=_Tty(), environ={"REPRO_LIVE": "0"}
        )
        assert not live_progress_enabled(
            stream=_Tty(), environ={"REPRO_LIVE": ""}
        )


class TestRendering:
    def _progress(self):
        stream = io.StringIO()
        # min_interval=0 so every feed renders (tests must be deterministic).
        return LiveProgress(stream=stream, min_interval=0.0), stream

    def test_counts_and_hit_rate(self):
        progress, stream = self._progress()
        progress.start_batch(4)
        progress.job_cached()
        progress.job_done()
        last = stream.getvalue().split("\r")[-1]
        assert "jobs 2/4" in last
        assert "cached 1 (50%)" in last

    def test_batches_accumulate(self):
        progress, stream = self._progress()
        progress.start_batch(2)
        progress.start_batch(3)
        assert "jobs 0/5" in stream.getvalue().split("\r")[-1]

    def test_failures_split_retried_and_degraded(self):
        progress, stream = self._progress()
        progress.start_batch(2)
        progress.job_failed("crash", "retry")
        progress.job_failed("timeout", "in-process")
        last = stream.getvalue().split("\r")[-1]
        assert "retried 1" in last
        assert "degraded 1" in last
        assert "faults 2" in last

    def test_quiet_run_omits_failure_fields(self):
        progress, stream = self._progress()
        progress.start_batch(1)
        progress.job_done()
        last = stream.getvalue().split("\r")[-1]
        assert "retried" not in last
        assert "faults" not in last

    def test_renders_rewrite_in_place(self):
        progress, stream = self._progress()
        progress.start_batch(1)
        progress.job_done()
        payload = stream.getvalue()
        assert payload.count("\r\x1b[K") == 2
        assert "\n" not in payload

    def test_finish_releases_the_line(self):
        progress, stream = self._progress()
        progress.start_batch(1)
        progress.job_done()
        progress.finish()
        assert stream.getvalue().endswith("\n")

    def test_clear_erases_without_newline(self):
        progress, stream = self._progress()
        progress.start_batch(1)
        progress.clear()
        assert stream.getvalue().endswith("\r\x1b[K")

    def test_throttle_suppresses_intermediate_renders(self, monkeypatch):
        # A clock that reads less than ``min_interval`` (a host booted under
        # an hour ago) must not swallow the first render.
        monkeypatch.setattr("repro.obs.live.time.monotonic", lambda: 5.0)
        stream = io.StringIO()
        progress = LiveProgress(stream=stream, min_interval=3600.0)
        progress.start_batch(3)  # first render goes through
        progress.job_done()
        progress.job_done()
        assert stream.getvalue().count("jobs") == 1
        progress.finish()  # forced final render
        assert "jobs 2/3" in stream.getvalue().split("\r")[-1]

    def test_closed_stream_is_tolerated(self):
        stream = io.StringIO()
        progress = LiveProgress(stream=stream, min_interval=0.0)
        stream.close()
        progress.start_batch(1)
        progress.job_done()
        progress.finish()  # must not raise
