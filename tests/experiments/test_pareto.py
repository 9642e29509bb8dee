"""Pareto experiment lane: fronts, artifacts, parallel determinism, CLI."""

import json

import pytest

from repro.core.families import LogicFamily
from repro.experiments.engine import ExperimentEngine, MapJob
from repro.experiments.pareto import (
    ParetoPoint,
    pareto_front,
    pareto_payload,
    render_pareto,
    run_pareto,
)
from repro.experiments.runner import main

SUBSET = ("add-16",)
FAMILIES = (LogicFamily.TG_STATIC, LogicFamily.TG_PSEUDO, LogicFamily.CMOS)


def _point(family, objective, area, delay, power):
    return ParetoPoint(
        family=family,
        objective=objective,
        gates=1,
        area=area,
        levels=1,
        normalized_delay=delay,
        absolute_delay_ps=delay,
        dynamic_power=power,
        static_power=0.0,
        total_power=power,
    )


class TestFrontExtraction:
    def test_dominated_points_are_dropped(self):
        a = _point(LogicFamily.TG_STATIC, "delay", 1.0, 1.0, 1.0)
        b = _point(LogicFamily.CMOS, "delay", 2.0, 2.0, 2.0)  # dominated by a
        c = _point(LogicFamily.TG_PSEUDO, "area", 0.5, 3.0, 1.5)  # tradeoff
        front = pareto_front((a, b, c))
        assert front == (a, c)
        assert a.dominates(b) and not a.dominates(c) and not c.dominates(a)

    def test_equal_points_survive_together(self):
        a = _point(LogicFamily.TG_STATIC, "delay", 1.0, 1.0, 1.0)
        b = _point(LogicFamily.TG_STATIC, "area", 1.0, 1.0, 1.0)
        assert pareto_front((a, b)) == (a, b)


class TestRunPareto:
    @pytest.fixture(scope="class")
    def result(self):
        return run_pareto(
            benchmark_names=SUBSET,
            families=FAMILIES,
            engine=ExperimentEngine(jobs=1, use_cache=False),
        )

    def test_one_point_per_family_objective_pair(self, result):
        row = result.row("add-16")
        assert len(row.points) == len(FAMILIES) * 3
        seen = {(p.family, p.objective) for p in row.points}
        assert len(seen) == len(row.points)

    def test_front_is_nonempty_and_non_dominated(self, result):
        row = result.row("add-16")
        assert row.front
        for point in row.front:
            assert not any(other.dominates(point) for other in row.points)
        for point in row.points:
            if point not in row.front:
                assert any(other.dominates(point) for other in row.points)

    def test_pseudo_static_and_static_families_zero(self, result):
        row = result.row("add-16")
        for point in row.points:
            if point.family is LogicFamily.TG_PSEUDO:
                assert point.static_power > 0
            elif point.family in (LogicFamily.TG_STATIC, LogicFamily.CMOS):
                assert point.static_power == 0.0

    def test_payload_and_rendering(self, result):
        payload = pareto_payload(result)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["rows"][0]["name"] == "add-16"
        assert payload["objectives"] == ["delay", "area", "power"]
        rendered = render_pareto(result)
        assert "add-16" in rendered and "on the front" in rendered

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run_pareto(benchmark_names=("nope",))


class TestRecoveryVariants:
    """With rounds > 0 the sweep gains recovered points alongside round 0."""

    @pytest.fixture(scope="class")
    def recovered(self):
        return run_pareto(
            benchmark_names=SUBSET,
            families=(LogicFamily.TG_STATIC, LogicFamily.CMOS),
            objectives=("delay", "area"),
            engine=ExperimentEngine(jobs=1, use_cache=False),
            rounds=2,
        )

    def test_round_variants_double_the_point_count(self, recovered):
        row = recovered.row("add-16")
        assert len(row.points) == 2 * 2 * 2  # families x objectives x rounds
        assert {p.rounds for p in row.points} == {0, 2}
        seen = {(p.family, p.objective, p.rounds) for p in row.points}
        assert len(seen) == len(row.points)

    def test_recovered_points_never_dominated_by_their_round0(self, recovered):
        row = recovered.row("add-16")
        by_key = {(p.family, p.objective, p.rounds): p for p in row.points}
        for (family, objective, rounds), point in by_key.items():
            if rounds == 0:
                continue
            base = by_key[(family, objective, 0)]
            # Recovery never worsens delay and never worsens area.
            assert point.absolute_delay_ps <= base.absolute_delay_ps + 1e-9
            assert point.area <= base.area + 1e-9

    def test_payload_records_recovery_metadata(self, recovered):
        payload = pareto_payload(recovered)
        assert payload["map_rounds"] == 2
        assert payload["map_recovery"] == "auto"
        tagged = [
            p
            for row in payload["rows"]
            for p in row["points"]
            if p.get("rounds")
        ]
        assert tagged and all(p["rounds"] == 2 for p in tagged)

    def test_round0_payload_has_no_recovery_keys(self):
        result = run_pareto(
            benchmark_names=SUBSET,
            families=(LogicFamily.TG_STATIC,),
            objectives=("delay",),
            engine=ExperimentEngine(jobs=1, use_cache=False),
        )
        payload = pareto_payload(result)
        assert "map_rounds" not in payload and "map_recovery" not in payload
        assert all(
            "rounds" not in p for row in payload["rows"] for p in row["points"]
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "jobs, names",
        [(2, ("add-16", "t481", "C1355")), (4, SUBSET)],
        ids=["jobs2", "jobs4"],
    )
    def test_parallel_front_bit_identical_to_jobs1(self, jobs, names):
        kwargs = dict(benchmark_names=names, families=FAMILIES)
        sequential = run_pareto(
            engine=ExperimentEngine(jobs=1, use_cache=False), **kwargs
        )
        parallel = run_pareto(
            engine=ExperimentEngine(jobs=jobs, use_cache=False), **kwargs
        )
        assert json.dumps(pareto_payload(sequential), sort_keys=True) == json.dumps(
            pareto_payload(parallel), sort_keys=True
        )

    def test_power_axis_cached_and_replayed(self, tmp_path):
        jobs = [MapJob("add-16", LogicFamily.TG_PSEUDO, objective="power")]
        first = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(jobs)
        again = ExperimentEngine(cache_dir=tmp_path).run_map_jobs(jobs)
        (job,) = jobs
        assert not first[job].cached and again[job].cached
        assert first[job].power == again[job].power
        assert first[job].power.static > 0

    def test_cache_keys_distinct_per_objective_and_power_params(self, tmp_path):
        engine = ExperimentEngine(cache_dir=tmp_path)
        keys = {
            engine.map_job_key(MapJob("add-16", LogicFamily.TG_STATIC)),
            engine.map_job_key(
                MapJob("add-16", LogicFamily.TG_STATIC, objective="area")
            ),
            engine.map_job_key(
                MapJob("add-16", LogicFamily.TG_STATIC, objective="power")
            ),
            engine.map_job_key(
                MapJob("add-16", LogicFamily.TG_STATIC, power_vectors=32)
            ),
            engine.map_job_key(
                MapJob("add-16", LogicFamily.TG_STATIC, power_seed=1)
            ),
            engine.map_job_key(MapJob("add-16", LogicFamily.TG_STATIC, rounds=2)),
            engine.map_job_key(
                MapJob("add-16", LogicFamily.TG_STATIC, rounds=2, recovery="power")
            ),
        }
        assert len(keys) == 7


class TestRunnerCli:
    def test_objective_flag_recorded_in_artifact(self, capsys, tmp_path):
        artifacts = tmp_path / "artifacts"
        exit_code = main(
            ["add-16", "--no-cache", "--objective", "power",
             "--json", str(artifacts)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "[flow: resyn2rs; objective: power]" in captured
        payload = json.loads((artifacts / "table3.json").read_text())
        assert payload["objective"] == "power"
        row = payload["rows"][0]
        assert row["power"][LogicFamily.TG_PSEUDO.value]["static"] > 0
        assert row["power"][LogicFamily.CMOS.value]["static"] == 0.0

    def test_pareto_flag_writes_artifact(self, capsys, tmp_path):
        artifacts = tmp_path / "artifacts"
        exit_code = main(
            ["add-16", "--no-cache", "--pareto", "--json", str(artifacts)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Pareto fronts" in captured
        payload = json.loads((artifacts / "pareto.json").read_text())
        assert [row["name"] for row in payload["rows"]] == ["add-16"]
        assert payload["rows"][0]["front"]
        families = {p["family"] for p in payload["rows"][0]["points"]}
        assert families == {family.value for family in LogicFamily}

    def test_power_vectors_flag_changes_monte_carlo_estimate(self, capsys, tmp_path):
        # C2670 is wide enough to take the Monte-Carlo path, so a different
        # vector budget must change the recorded power provenance.
        artifacts = tmp_path / "artifacts"
        assert main(
            ["C2670", "--no-cache", "--power-vectors", "16",
             "--json", str(artifacts)]
        ) == 0
        capsys.readouterr()
        payload = json.loads((artifacts / "table3.json").read_text())
        power = payload["rows"][0]["power"][LogicFamily.TG_STATIC.value]
        assert power["method"] == "monte-carlo"
        assert power["patterns"] == 16 * 64
