"""Self-tests of the benchmark's own arithmetic; no workload is executed.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from hostref import REF_RUNS, REF_S, time_reference  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    self_time_by_job,
    self_time_by_name,
    self_times,
    write_chrome_trace,
)
from stats import extra_cpu, parallel_eff, tail  # noqa: E402
from workloads import (  # noqa: E402
    SEEDS,
    WORKLOADS,
    committed_seed,
    count_failures,
    job_count,
    load_expected,
    point_view,
)


def span(name, start, end, parent=None, job=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "job": job}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: covered union is 1..6
        span("a.inner", 2.0, 3.0, parent=1),
        span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])


def test_self_times_of_recorded_spans_partition_the_root():
    recorder = Recorder()
    with recorder.span("job", "j1"):
        with recorder.span("map"):
            with recorder.span("inner"):
                pass
        with recorder.span("power"):
            pass
    with recorder.span("engine.key", "j2"):
        pass
    spans = recorder.spans
    assert [s["parent"] for s in spans] == [None, 0, 1, 0, None]
    assert [s["job"] for s in spans] == ["j1", "j1", "j1", "j1", "j2"]
    root_durations = spans[0]["end"] - spans[0]["start"] + spans[4]["end"] - spans[4]["start"]
    assert sum(self_times(spans)) == pytest.approx(root_durations)
    assert sum(self_time_by_name(spans).values()) == pytest.approx(root_durations)
    by_job = self_time_by_job(spans)
    assert by_job["j1"] == pytest.approx(spans[0]["end"] - spans[0]["start"])


def test_chrome_trace_has_one_complete_event_per_span(tmp_path):
    spans = [span("root", 1.0, 2.0, job="j"), span("child", 1.5, 1.75, parent=0, job="j")]
    path = tmp_path / "trace.json"
    write_chrome_trace(path, spans)
    events = json.loads(path.read_text())["traceEvents"]
    assert [(e["name"], e["ph"], e["ts"], e["dur"]) for e in events] == [
        ("root", "X", 0.0, 1e6), ("child", "X", 0.5e6, 0.25e6)
    ]
    assert events[1]["args"] == {"span": 1, "parent": 0, "job": "j"}


def test_tail_is_the_sample_with_ten_beyond_it():
    samples = list(range(1, 31))  # 30 samples: 21..30 lie beyond 20
    assert tail(samples[::-1]) == 20
    assert tail(list(range(1, 101))) == 90
    # Too few samples for a percentile above the median: the median.
    assert tail(list(range(1, 21))) == 10.5
    assert tail([5.0, 1.0, 3.0]) == 3.0


def planted_expected():
    record = {
        "stats": {"gates": 3, "area": 1.5, "levels": 2, "normalized_delay": 4.25,
                  "absolute_delay_ps": 17.0},
        "power": {"dynamic": 1.0, "input_dynamic": 0.5, "static": 0.25,
                  "total": 1.75, "method": "exact", "patterns": 64, "seed": None},
    }
    return {
        "sections": {"table2": ["lib"], "table3": ["a|lib|delay|r0", "b|lib|delay|r0"],
                     "pareto": ["a|lib|delay|r0"]},
        "table2": {"lib": {"rows": [{"area": 2.0}], "summary": {"cell_count": 1}}},
        "map": {"a|lib|delay|r0": record, "b|lib|delay|r0": json.loads(json.dumps(record))},
    }


def test_failed_frac_counts_a_planted_mismatch_and_a_missing_job():
    expected = planted_expected()
    sections = ("table2", "table3", "pareto")
    records = {
        "table2": {"lib": {"rows": [{"area": 2.0}], "summary": {"cell_count": 1}}},
        "table3": {key: expected["map"][key] for key in expected["sections"]["table3"]},
        "pareto": {"a|lib|delay|r0": point_view(expected["map"]["a|lib|delay|r0"])},
    }
    records = json.loads(json.dumps(records))
    assert count_failures(expected, sections, records) == 0
    assert records["pareto"]["a|lib|delay|r0"]["dynamic_power"] == 1.5

    records["table3"]["b|lib|delay|r0"]["stats"]["area"] += 1e-12  # planted
    assert count_failures(expected, sections, records) == 1
    del records["table2"]["lib"]  # missing
    assert count_failures(expected, sections, records) / job_count(expected, sections) == 0.5


def test_full_records_are_required_where_the_replay_reports_them():
    expected = planted_expected()
    point = {"pareto": {"a|lib|delay|r0": point_view(expected["map"]["a|lib|delay|r0"])}}
    full = {"pareto": {"a|lib|delay|r0": expected["map"]["a|lib|delay|r0"]}}
    assert count_failures(expected, ("pareto",), point) == 0
    assert count_failures(expected, ("pareto",), point, full=True) == 1
    assert count_failures(expected, ("pareto",), full, full=True) == 0


def test_parallel_efficiency_and_extra_cpu_on_fixed_inputs():
    assert parallel_eff(busy_s=6.0, wall_s=4.0) == 0.75
    assert parallel_eff(busy_s=3.0, wall_s=3.0, slots=1) == 1.0
    assert extra_cpu(cpu_s=7.5, busy_s=6.0) == 1.5


def test_every_seed_selects_a_committed_seed():
    for seed in SEEDS:
        assert committed_seed(seed) == seed
    assert {committed_seed(seed) for seed in range(10)} == set(SEEDS)
    assert committed_seed(3) == committed_seed(3)


@pytest.mark.parametrize("seed", SEEDS)
def test_expected_results_cover_every_workload_job(seed):
    expected = load_expected(seed)
    assert expected["seed"] == seed
    for workload in WORKLOADS.values():
        for section in workload.sections:
            keys = expected["sections"][section]
            assert keys and len(set(keys)) == len(keys)
            store = expected["table2"] if section == "table2" else expected["map"]
            assert set(keys) <= set(store)
    assert len(expected["sections"]["table3"]) + len(expected["sections"]["pareto"]) + 4 == 274


def fake_reps(slowdown=1.0):
    """One measured run on a host ``slowdown`` times slower on the wall
    clock than the reference speed."""
    report = {
        "setup": {"setup_s": 1.5 * slowdown, "import_s": 0.4 * slowdown,
                  "library_s": 1.0 * slowdown, "matcher_s": 0.1 * slowdown},
        "wall_s": 2.0 * slowdown,
        "cpu_outside_body_s": 1.0,
        "robustness": {"failures": [{"resolution": "retry"}], "degraded_jobs": 0},
    }
    return [run.Rep(jobs=1, failed=0, report=report, usage=run.Usage(0, 4.0, 100.0))]


def fake_ref(slowdown=1.0):
    """Reference timings of a host ``slowdown`` times slower on the wall
    clock whose CPU time does not grow (it is time-sliced)."""
    return {"wall_s": [REF_S * slowdown] * 3, "cpu_s": [REF_S] * 3}


def test_reported_metrics_match_the_benchmark_definition():
    definition = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    reps = fake_reps()
    replay = {
        "ref": {"wall_s": [REF_S], "cpu_s": [REF_S]},
        "spans": [span("job", 0.0, 1.0, job="j"), span("map", 0.25, 0.75, parent=0)],
        "counts": dict.fromkeys(
            ["flow.ands_in", "flow.ands_out", "cuts.count", "cuts.ands", "match.rows",
             "match.unique_functions", "match.index_hits", "map.gates",
             "map.recovery_rounds", "map.recovery_accepted"], 0),
        "cache": {"hits": 0, "misses": 1},
    }
    setups = [rep.report["setup"] for rep in reps]
    end_to_end = run.end_to_end(reps, setups, fake_ref())
    per_layer = run.per_layer(reps, setups, fake_ref(), replay)
    for group, metrics in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        assert {m["name"]: m["unit"] for m in definition[group]} == {
            name: unit for name, (_value, unit) in metrics.items()
        }
    assert end_to_end["cpu_s"][0] == 3.0
    assert per_layer["engine.parallel_eff"][0] == 0.25  # 1 s busy / (2 x 2 s)
    assert per_layer["engine.extra_cpu_s"][0] == 2.0
    assert per_layer["map.s"][0] == 0.5
    assert per_layer["trace.unattributed_s"][0] == 1.0
    assert per_layer["engine.retries"][0] == 1
    assert per_layer["host.ref_s"][0] == REF_S


def test_times_are_rescaled_to_the_reference_speed():
    # On a host 2.5x slower on the wall clock but not in CPU time, wall
    # times rescale to the same figures and CPU times stay.
    reps, slow = fake_reps(), fake_reps(slowdown=2.5)
    assert run.host_scale(fake_ref(2.5), "wall_s") == pytest.approx(0.4)
    fast = run.end_to_end(reps, [rep.report["setup"] for rep in reps], fake_ref())
    rescaled = run.end_to_end(slow, [rep.report["setup"] for rep in slow], fake_ref(2.5))
    for name in ("setup_s", "wall_s"):
        assert rescaled[name][0] == pytest.approx(fast[name][0])
    assert rescaled["cpu_s"][0] == fast["cpu_s"][0] == 3.0
    # The scale is over the mean of every reference timing of the run.
    mixed = {"wall_s": [REF_S, 2 * REF_S, 3 * REF_S, 2 * REF_S]}
    assert run.host_scale(mixed, "wall_s") == pytest.approx(0.5)


def test_reference_timings_are_appended_per_clock():
    samples = {}
    time_reference(samples)
    time_reference(samples)
    assert len(samples["wall_s"]) == len(samples["cpu_s"]) == 2 * REF_RUNS
    assert all(t > 0 for t in samples["wall_s"] + samples["cpu_s"])
