"""Command-line entry point for regenerating every table and figure.

Run as ``python -m repro.experiments.runner`` (optionally with a subset of
benchmark names) to print the regenerated Table 2, Table 3 and Figure 6 with
the paper's values alongside.  The same code paths are exercised by the
pytest benchmarks in ``benchmarks/``.

Scheduling goes through the parallel experiment engine
(:mod:`repro.experiments.engine`):

``--jobs N``
    Run the independent (benchmark, library, objective) mapping jobs on
    ``N`` worker processes.  ``--jobs 1`` (the default) uses the
    deterministic in-process path; parallel runs produce bit-identical
    results.

``--no-cache``
    Disable the on-disk result cache.  By default every job result is
    memoized under ``$REPRO_CACHE_DIR`` (falling back to
    ``$XDG_CACHE_HOME/repro/experiments``, then
    ``~/.cache/repro/experiments``), keyed by a SHA-256 hash of the code
    (the package source plus the Python and numpy versions) and the job
    spec (benchmark, family, objective, flow and mapper parameters).  A
    re-run of unchanged code only reads the cache: it builds no library
    and generates no built-in benchmark.  Any source edit recomputes every
    result.  ``--cache-dir PATH`` relocates the cache.

``--json DIR``
    Additionally write machine-readable ``table2.json`` / ``table3.json`` /
    ``figure6.json`` artifacts into ``DIR``.

``--flow NAME`` / ``--list-flows``
    Select the technology-independent synthesis flow run before mapping
    (default: ``resyn2rs``, the paper's flow).  The flow name and the flow's
    pass-pipeline fingerprint are folded into the cache key, so results
    computed under one flow never satisfy requests for another, and a flow
    redefined at run time with another pass pipeline misses.
    ``--list-flows`` prints every registered flow and exits.

``--objective {delay,area,power}``
    Mapping objective of the Table-3 jobs (default: ``delay``).  The
    selection is recorded in the ``table3.json`` metadata and in the cache
    key.  ``power`` minimizes the activity-weighted switched-capacitance
    flow (see :mod:`repro.analysis`).

``--map-rounds N`` / ``--map-recovery {auto,area,power}``
    Required-time recovery rounds of the mapper (default: 0, the classical
    single-pass mapping).  With ``N > 0`` every mapping job re-chooses
    matches on slack under the recovery cost model without ever worsening
    the round-0 worst delay or the recovered axis
    (:func:`repro.synthesis.mapper.map_rounds`); ``--map-recovery`` picks
    the axis (``auto``: area for the delay/area objectives, power for the
    power objective).  Both knobs are folded into the cache key and, when
    non-zero, recorded in the ``table3.json``/``pareto.json`` metadata;
    with ``--pareto`` the recovered variants join the sweep as extra
    points.

``--extra-benchmark PATH``
    Register an external BLIF circuit as an additional benchmark (repeat
    the flag for several).  The circuit flows through the same engine jobs,
    caching and artifacts as the built-in Table-3 set; it is keyed by its
    structural content hash, so renaming the file never stales the cache.

``--power-vectors N`` / ``--power-seed N``
    Monte-Carlo signal-statistics parameters behind the power axis:
    ``N * 64`` random patterns per benchmark with more primary inputs than
    the exact-enumeration limit.  Both are folded into the cache key.

``--pareto``
    Additionally sweep every logic family under every mapping objective and
    print the per-benchmark area/delay/power Pareto fronts
    (:mod:`repro.experiments.pareto`); with ``--json DIR`` the sweep is
    written as ``pareto.json``.

``--job-timeout SEC`` / ``--job-retries N``
    Fault-tolerance knobs of parallel runs (``--jobs > 1``): every mapping
    job gets a wall-clock budget of SEC seconds (0 = unbounded, the
    default) and is retried up to N times (default: 2) with exponential
    backoff when its worker crashes or times out, rebuilding the process
    pool as needed; a job that exhausts its retries is computed on the
    deterministic in-process path instead.  Real flow exceptions are never
    retried.

``--cache-stats``
    Print the robustness counters after the run as JSON: result-cache
    hits/misses/corrupt-quarantines/evictions/puts, worker-slot rebuilds,
    in-process degradations and the crash/timeout failure classification.

``--profile`` / ``--profile-out PATH``
    Emit per-stage wall-clock timing (``optimize`` / ``activity`` /
    ``cuts`` / ``match`` / ``dp`` / ``cover`` / ``power``) and the run's
    counters as JSON -- to stdout with ``--profile``, to PATH with
    ``--profile-out`` (which implies ``--profile``) -- so performance work
    can attribute wins per pipeline stage.  The report is summed from the
    ``stage`` spans of the run's trace, so it profiles exactly the run it
    rides on: at any ``--jobs`` count (worker spans come home inside the
    job payloads) and with the result cache as configured.  Cached jobs
    run no stage, so pass ``--no-cache`` for a cold profile.

``--trace PATH``
    Record the run through the hierarchical span tracer
    (:mod:`repro.obs`) and export it as a Chrome trace-event JSON file --
    load PATH in Perfetto or ``about:tracing`` to see the run laid out as
    one track per process: the parent's scheduling/cache spans plus every
    worker's job -> pass -> round -> stage hierarchy.  Tracing composes
    with the cache (hits appear as synthesized ``cache-hit`` spans) and
    with ``--jobs N``, and never changes the computed artifacts.

``--metrics-out PATH``
    Write the run metrics report (implies tracing): log-bucketed latency
    histograms with p50/p90/p99 for jobs and flow passes, per-stage time
    totals, cache hit rate, retry/crash/timeout counts and the top spans
    by self time, plus the full robustness counters.

``--events-out PATH``
    Write the structured JSONL event log (implies tracing): one JSON
    object per line -- run envelope, spans, point events -- every line
    tagged with the run id (``$REPRO_RUN_ID`` overrides the generated id).

Parallel runs additionally render a live one-line stderr progress report
(jobs done / cached / retried / degraded and the running cache hit rate)
when stderr is a terminal; ``REPRO_LIVE=1``/``0`` forces it on/off.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from repro import obs
from repro.analysis.activity import DEFAULT_SEED, DEFAULT_VECTORS
from repro.bench.registry import all_benchmarks, register_blif_benchmark
from repro.experiments.engine import ExperimentEngine
from repro.experiments.resilience import RetryPolicy
from repro.flow import DEFAULT_FLOW, available_flows, get_flow
from repro.experiments.figure6 import figure6_from_table3
from repro.experiments.pareto import render_pareto
from repro.experiments.report import (
    render_comparison,
    render_figure6,
    render_table2,
    render_table3,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "benchmarks",
        nargs="*",
        help="optional subset of Table-3 benchmark names (default: all 15)",
    )
    parser.add_argument(
        "--per-cell",
        action="store_true",
        help="print every Table-2 cell row, not only the family averages",
    )
    parser.add_argument(
        "--skip-table3",
        action="store_true",
        help="only regenerate Table 2 (fast)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiment engine (default: 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="override the result cache location",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write table2.json/table3.json/figure6.json into DIR",
    )
    parser.add_argument(
        "--flow",
        metavar="NAME",
        default=DEFAULT_FLOW,
        help="synthesis flow run before mapping (see --list-flows; "
        f"default: {DEFAULT_FLOW})",
    )
    parser.add_argument(
        "--list-flows",
        action="store_true",
        help="print the registered synthesis flows and exit",
    )
    parser.add_argument(
        "--objective",
        choices=("delay", "area", "power"),
        default="delay",
        help="mapping objective for the Table-3 jobs (default: delay)",
    )
    parser.add_argument(
        "--power-vectors",
        type=int,
        default=DEFAULT_VECTORS,
        metavar="N",
        help="Monte-Carlo 64-pattern words per input for the power axis "
        f"(default: {DEFAULT_VECTORS})",
    )
    parser.add_argument(
        "--power-seed",
        type=int,
        default=DEFAULT_SEED,
        metavar="N",
        help=f"Monte-Carlo signal-statistics seed (default: {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--map-rounds",
        type=int,
        default=0,
        metavar="N",
        help="required-time recovery rounds of the mapper (default: 0 = "
        "single-pass mapping)",
    )
    parser.add_argument(
        "--map-recovery",
        choices=("auto", "area", "power"),
        default="auto",
        help="cost axis of the recovery rounds (default: auto -- area for "
        "the delay/area objectives, power for the power objective)",
    )
    parser.add_argument(
        "--extra-benchmark",
        metavar="PATH",
        action="append",
        default=[],
        help="register an external BLIF circuit as an additional benchmark "
        "(may be repeated)",
    )
    parser.add_argument(
        "--pareto",
        action="store_true",
        help="additionally sweep every family under every objective and "
        "print the per-benchmark area/delay/power Pareto fronts",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="wall-clock budget per mapping job in parallel runs "
        "(0 = unbounded, the default)",
    )
    parser.add_argument(
        "--job-retries",
        type=int,
        default=None,
        metavar="N",
        help="crash/timeout retries per job in parallel runs "
        "(default: 2)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache/resilience counters (hits, misses, quarantines, "
        "evictions, retries, pool rebuilds) as JSON after the run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="emit per-stage timing JSON (optimize/activity/cuts/match/dp/"
        "cover/power) to stdout; cached jobs run no stage, so pass "
        "--no-cache for a cold profile",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        default=None,
        help="write the per-stage timing JSON to PATH (implies --profile)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record the run with the span tracer and write a Chrome "
        "trace-event JSON file (open in Perfetto / about:tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run metrics report (latency percentiles, cache hit "
        "rate, failure counts) as JSON; implies tracing",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        default=None,
        help="write the structured JSONL event log of the run; implies "
        "tracing",
    )
    args = parser.parse_args(argv)
    if args.profile_out is not None:
        args.profile = True

    if args.list_flows:
        for name in available_flows():
            spec = get_flow(name)
            passes = ", ".join(spec.pass_names()) or "(identity)"
            print(f"{name:<10} {spec.description}")
            print(f"{'':<10}   passes: {passes}; max rounds: {spec.max_rounds}")
        return 0

    get_flow(args.flow)  # reject unknown flows before doing any work
    if args.map_rounds < 0:
        parser.error("--map-rounds must be non-negative")
    if args.json is not None and os.path.isfile(args.json):
        parser.error(f"--json {args.json}: is a file, not a directory")
    for flag, path in (
        ("--profile-out", args.profile_out),
        ("--trace", args.trace),
        ("--metrics-out", args.metrics_out),
        ("--events-out", args.events_out),
    ):
        # Reported now: the file is only opened after the whole run.
        if path is None:
            continue
        if os.path.isdir(path):
            parser.error(f"{flag} {path}: is a directory, not a file")
        if not os.path.isdir(os.path.dirname(path) or "."):
            parser.error(f"{flag} {path}: parent directory does not exist")

    extra_names = []
    for path in args.extra_benchmark:
        try:
            # No replace: two files sharing a stem must error, not silently
            # shadow each other in the reported artifacts.
            case = register_blif_benchmark(path)
        except (OSError, ValueError) as error:
            parser.error(f"--extra-benchmark {path}: {error}")
        extra_names.append(case.name)
    if extra_names:
        print(f"[extra benchmarks: {', '.join(extra_names)}]")
    unknown = sorted(set(args.benchmarks) - {case.name for case in all_benchmarks()})
    if unknown:
        parser.error(f"unknown benchmarks: {', '.join(unknown)}")

    trace_run_id = None
    if args.profile or args.trace or args.metrics_out or args.events_out:
        trace_run_id = obs.enable_tracing()

    retry_policy = RetryPolicy()
    if args.job_timeout is not None:
        timeout = args.job_timeout if args.job_timeout > 0 else None
        retry_policy = replace(retry_policy, timeout=timeout)
    if args.job_retries is not None:
        if args.job_retries < 0:
            parser.error("--job-retries must be non-negative")
        retry_policy = replace(retry_policy, max_attempts=args.job_retries + 1)

    progress = None
    if args.jobs > 1 and obs.live_progress_enabled():
        progress = obs.LiveProgress()

    engine = ExperimentEngine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        retry_policy=retry_policy,
        progress=progress,
    )

    def release_progress_line() -> None:
        # The live line renders without a newline; erase it before printing
        # a report block so tables never continue on the progress line.
        if progress is not None:
            progress.clear()

    start = time.time()
    table3 = figure6 = pareto = None
    with obs.span(
        "run",
        category="run",
        jobs=args.jobs,
        flow=args.flow,
        objective=args.objective,
    ):
        table2 = engine.run_table2()
        release_progress_line()
        print(render_table2(table2, per_cell=args.per_cell))
        print()

        if not args.skip_table3:
            names = tuple(args.benchmarks) if args.benchmarks else None
            table3 = engine.run_table3(
                benchmark_names=names,
                flow=args.flow,
                objective=args.objective,
                power_vectors=args.power_vectors,
                power_seed=args.power_seed,
                rounds=args.map_rounds,
                recovery=args.map_recovery,
            )
            figure6 = figure6_from_table3(table3)
            release_progress_line()
            header = f"[flow: {args.flow}; objective: {args.objective}"
            if args.map_rounds:
                header += (
                    f"; recovery: {args.map_rounds} round(s) of "
                    f"{args.map_recovery}"
                )
            print(header + "]")
            print(render_table3(table3))
            print()
            print(render_figure6(figure6))
            print()
            print(render_comparison(table3))

        if args.pareto:
            # The Pareto sweep schedules its own mapping jobs, so it also
            # runs (and is written) when Table 3 itself is skipped.
            names = tuple(args.benchmarks) if args.benchmarks else None
            pareto = engine.run_pareto(
                benchmark_names=names,
                flow=args.flow,
                power_vectors=args.power_vectors,
                power_seed=args.power_seed,
                rounds=args.map_rounds,
                recovery=args.map_recovery,
            )
            release_progress_line()
            print()
            print(render_pareto(pareto))

    if progress is not None:
        progress.finish()

    if args.json is not None:
        written = engine.write_artifacts(
            args.json, table2=table2, table3=table3, figure6=figure6, pareto=pareto
        )
        print(f"\nwrote {', '.join(str(path) for path in written)}")

    if args.cache_stats:
        print("\nrobustness counters:")
        print(json.dumps(engine.robustness_stats(), indent=2, sort_keys=True))

    if trace_run_id is not None:
        recorded = obs.spans()
        counter_totals = obs.counters()
        obs.disable_tracing()
        if args.profile:
            rendered = json.dumps(
                obs.stage_report(recorded, counter_totals), indent=2, sort_keys=True
            )
            if args.profile_out is None:
                print("\nper-stage profile:")
                print(rendered)
            else:
                with open(args.profile_out, "w", encoding="utf-8") as handle:
                    handle.write(rendered + "\n")
                print(f"\nwrote per-stage profile to {args.profile_out}")
        written = []
        if args.trace is not None:
            path = obs.write_chrome_trace(
                args.trace, recorded, run_id=trace_run_id, parent_pid=os.getpid()
            )
            written.append(str(path))
        if args.metrics_out is not None:
            report = obs.build_metrics(
                recorded,
                counter_totals,
                run_id=trace_run_id,
                robustness=engine.robustness_stats(),
            )
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            written.append(args.metrics_out)
        if args.events_out is not None:
            path = obs.write_events(
                args.events_out,
                recorded,
                run_id=trace_run_id,
                counters=counter_totals,
            )
            written.append(str(path))
        if written:
            print(f"\n[trace {trace_run_id}] wrote {', '.join(written)}")

    print(f"\ntotal runtime: {time.time() - start:.1f} s")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
