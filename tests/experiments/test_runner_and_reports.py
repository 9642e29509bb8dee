"""Tests for the experiment runner CLI and the report rendering helpers."""

import json

import pytest

from repro.experiments.runner import main
from repro.experiments.report import render_table2
from repro.experiments.table2 import run_table2


class TestRunnerCli:
    def test_table2_only_run(self, capsys):
        exit_code = main(["--skip-table3", "--no-cache"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 2" in captured
        assert "CNTFET TG static" in captured
        assert "total runtime" in captured

    def test_subset_run_includes_table3_and_figure6(self, capsys, tmp_path):
        exit_code = main(["add-16", "--cache-dir", str(tmp_path)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 3" in captured
        assert "Figure 6" in captured
        assert "add-16" in captured
        assert "[ok]" in captured
        # The run populated the content-addressed cache (sharded layout).
        assert list(tmp_path.glob("??/??/*.json"))

    def test_parallel_jobs_and_json_artifacts(self, capsys, tmp_path):
        artifacts = tmp_path / "artifacts"
        exit_code = main(
            [
                "add-16",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
                str(artifacts),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "wrote" in captured
        for name in ("table2.json", "table3.json", "figure6.json"):
            payload = json.loads((artifacts / name).read_text())
            assert payload

    def test_skip_table3_writes_no_table3_artifact(self, capsys, tmp_path):
        artifacts = tmp_path / "artifacts"
        exit_code = main(["--skip-table3", "--no-cache", "--json", str(artifacts)])
        capsys.readouterr()
        assert exit_code == 0
        assert (artifacts / "table2.json").exists()
        assert not (artifacts / "table3.json").exists()

    def test_unknown_benchmark_raises(self, capsys):
        # Rejected as a usage error before Table 2 (or anything else) runs.
        with pytest.raises(SystemExit) as excinfo:
            main(["add-16", "not-a-benchmark", "--no-cache"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "not-a-benchmark" in captured.err
        assert "add-16" not in captured.err
        assert "Table 2" not in captured.out

    def test_json_target_that_is_a_file_is_rejected(self, capsys, tmp_path):
        target = tmp_path / "artifacts"
        target.write_text("not a directory\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["--skip-table3", "--no-cache", "--json", str(target)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--json" in captured.err
        assert "Table 2" not in captured.out
        assert target.read_text() == "not a directory\n"

    @pytest.mark.parametrize("problem", ["missing-parent", "directory"])
    @pytest.mark.parametrize(
        "flag", ["--profile-out", "--trace", "--metrics-out", "--events-out"]
    )
    def test_unusable_telemetry_path_is_rejected(
        self, capsys, tmp_path, flag, problem
    ):
        # The file is written after the whole run, so it is checked first.
        if problem == "directory":
            target = tmp_path / "existing"
            target.mkdir()
        else:
            target = tmp_path / "missing" / "out.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["add-16", "--no-cache", flag, str(target)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "Table 2" not in captured.out
        assert not (tmp_path / "missing").exists()

    def test_list_flows(self, capsys):
        exit_code = main(["--list-flows"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        for flow in ("none", "quick", "resyn2rs", "deep"):
            assert flow in captured
        assert "passes:" in captured
        assert "Table 2" not in captured  # listing flows runs no experiments

    def test_flow_selection_runs_and_caches_separately(self, capsys, tmp_path):
        artifacts = tmp_path / "artifacts"
        exit_code = main(
            ["add-16", "--flow", "quick", "--cache-dir", str(tmp_path),
             "--json", str(artifacts)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "[flow: quick; objective: delay]" in captured
        assert "add-16" in captured
        # The artifact records which flow produced it.
        assert json.loads((artifacts / "table3.json").read_text())["flow"] == "quick"
        quick_entries = set(tmp_path.glob("??/??/*.json"))
        assert quick_entries
        exit_code = main(["add-16", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert exit_code == 0
        # The default resyn2rs run added new cache entries of its own.
        assert set(tmp_path.glob("??/??/*.json")) > quick_entries

    def test_unknown_flow_rejected(self):
        with pytest.raises(KeyError):
            main(["--flow", "warp-speed", "--no-cache"])

    def test_map_rounds_recorded_and_never_worse(self, capsys, tmp_path):
        base = tmp_path / "base"
        recovered = tmp_path / "recovered"
        assert main(["add-16", "t481", "--no-cache", "--json", str(base)]) == 0
        assert (
            main(
                ["add-16", "t481", "--no-cache", "--map-rounds", "2",
                 "--json", str(recovered)]
            )
            == 0
        )
        captured = capsys.readouterr().out
        assert "recovery: 2 round(s) of auto" in captured
        round0 = json.loads((base / "table3.json").read_text())
        round2 = json.loads((recovered / "table3.json").read_text())
        assert "map_rounds" not in round0
        assert round2["map_rounds"] == 2 and round2["map_recovery"] == "auto"
        for row0, row2 in zip(round0["rows"], round2["rows"]):
            for family, stats0 in row0["results"].items():
                stats2 = row2["results"][family]
                assert stats2["area"] <= stats0["area"] + 1e-9
                assert (
                    stats2["normalized_delay"]
                    <= stats0["normalized_delay"] + 1e-9
                )

    def test_negative_map_rounds_rejected(self):
        with pytest.raises(SystemExit):
            main(["--map-rounds", "-1", "--no-cache"])

    def test_cache_stats_and_retry_flags(self, capsys, tmp_path):
        exit_code = main(
            ["add-16", "--cache-dir", str(tmp_path), "--cache-stats",
             "--job-timeout", "120", "--job-retries", "1"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "robustness counters:" in captured
        blob = captured.split("robustness counters:", 1)[1]
        stats = json.loads(blob[: blob.index("\n}") + 2])
        assert stats["cache"]["puts"] > 0
        assert stats["cache"]["corrupt"] == 0
        assert stats["pool_rebuilds"] == 0
        assert stats["failures"] == []

    @pytest.mark.parametrize(
        "flags, timeout, max_attempts",
        [
            ([], None, 3),
            (["--job-timeout", "0"], None, 3),
            (["--job-timeout", "1.5", "--job-retries", "0"], 1.5, 1),
            (["--job-retries", "4"], None, 5),
        ],
    )
    def test_retry_flags_set_the_engine_policy(
        self, monkeypatch, flags, timeout, max_attempts
    ):
        """``--job-timeout 0`` means unbounded and ``--job-retries N`` allows
        ``N + 1`` attempts; without the flags the engine gets ``RetryPolicy()``."""
        from repro.experiments import runner
        from repro.experiments.resilience import RetryPolicy

        seen = []

        class Stop(Exception):
            pass

        def capture(**kwargs):
            seen.append(kwargs["retry_policy"])
            raise Stop

        monkeypatch.setattr(runner, "ExperimentEngine", capture)
        with pytest.raises(Stop):
            main(flags + ["--no-cache"])
        (policy,) = seen
        assert policy.timeout == timeout
        assert policy.max_attempts == max_attempts
        if not flags:
            assert policy == RetryPolicy()

    def test_negative_job_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(["--job-retries", "-1", "--no-cache"])

    def test_extra_benchmark_flows_through_the_runner(self, capsys, tmp_path):
        from repro.bench.registry import benchmark_by_name, unregister_benchmark
        from repro.synthesis.blif import write_blif

        blif = tmp_path / "userckt.blif"
        blif.write_text(write_blif(benchmark_by_name("add-16").build()))
        artifacts = tmp_path / "artifacts"
        try:
            exit_code = main(
                ["userckt", "--no-cache", "--extra-benchmark", str(blif),
                 "--json", str(artifacts)]
            )
        finally:
            unregister_benchmark("userckt")
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "[extra benchmarks: userckt]" in captured
        payload = json.loads((artifacts / "table3.json").read_text())
        assert [row["name"] for row in payload["rows"]] == ["userckt"]
        # No paper row: the Figure-6 series must simply skip the circuit.
        figure6 = json.loads((artifacts / "figure6.json").read_text())
        assert "userckt" not in figure6["series"]

    def test_extra_benchmark_rejects_malformed_blif(self, tmp_path):
        bad = tmp_path / "bad.blif"
        bad.write_text(".model broken\n.latch a b\n.end\n")
        with pytest.raises(SystemExit):
            main(["--extra-benchmark", str(bad), "--no-cache"])


class TestReportDetails:
    def test_per_cell_rendering_includes_paper_columns(self):
        table2 = run_table2()
        text = render_table2(table2, per_cell=True)
        assert "paper: T=" in text
        # Every Table-1 id appears in the per-cell dump of the static family.
        for fid in ("F00", "F16", "F29", "F45"):
            assert fid in text
