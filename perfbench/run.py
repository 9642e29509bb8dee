#!/usr/bin/env python3
"""End-to-end benchmark of the paper's regeneration (Tables 2-3, Figure 6,
Pareto fronts), run from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload again and again until ``--seconds`` have
passed.  Each run is closed-loop: one regeneration at a time in a fresh
process with a fresh private cache.  It checks every job's result against
the committed expected results and prints the end-to-end metrics:

``setup_s``      process start until all five libraries are built,
                 power-characterized and matched (at least three samples);
``wall_s``       the regeneration after set-up;
``cpu_s``        user + system seconds of the whole process tree in it,
                 read from the process's rusage after it exits (this
                 includes the interpreter's teardown, about 0.05 s);
``peak_rss_mb``  the largest resident set of any process in the tree
                 (median over the runs).

The three times are means over the run in seconds at the reference speed.
This script times a fixed reference computation (``hostref.py``) before
the first process it starts and after each one (for at least
``hostref.REF_SHARE`` of that process's time), and multiplies each mean
by ``hostref.REF_S`` over the mean reference time on the same clock in
this run.  A shared host's speed can change by 2.5x for minutes and by a
third from second to second; the reference slows with the program (on a
shared 2-vCPU Xeon VM their times correlate at 0.5-0.8 from one process to
the next), so a change in the host's speed cancels out of these ratios of
totals and a change in the program does not.  The reference runs in this
script, which never imports the program, so the program's state cannot
change it.  ``--trace 1`` reports the raw mean wall time and the mean
reference time as ``host.wall_s`` and ``host.ref_s``.

``--trace 1`` makes the same measured runs and then one separate traced
replay of the workload (``replay.py``).  It prints the per-layer metrics,
whose times are rescaled the same way (the replay's with the reference
timed right before and after it), and leaves the Chrome trace in
``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (jobs that raised, went missing or
differ from the expected result; in ``warm-all`` also cache misses) and
``metrics``.  ``--seed`` selects the inputs: see ``workloads.committed_seed``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

from hostref import REF_S, REF_SHARE, time_reference
from spans import self_time_by_job, self_time_by_name, self_times
from stats import extra_cpu, parallel_eff, tail
from workloads import (
    WORKLOADS,
    Workload,
    committed_seed,
    count_failures,
    job_count,
    load_expected,
)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench"
SHM = Path("/dev/shm")

#: A child still running after this long is killed and its jobs fail.
CHILD_TIMEOUT_S = 60.0

#: Set-up is sampled at least this often per run; set-up-only processes
#: top up what the measured regenerations give.
SETUP_SAMPLES = 3

_PR_SET_CHILD_SUBREAPER = 36


@dataclass
class Usage:
    """Exit code and rusage totals of one child's whole process tree."""

    returncode: int
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Rep:
    """One measured regeneration."""

    jobs: int
    failed: int
    report: dict | None
    usage: Usage

    @property
    def cpu_s(self) -> float:
        return self.usage.cpu_s - self.report["cpu_outside_body_s"]


def become_subreaper() -> None:
    """Adopt orphaned descendants, so a pool worker that outlives its parent
    is still reaped and counted here (Linux; elsewhere a no-op)."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_env() -> dict:
    """The caller's environment without any ``REPRO_*`` knob, so a
    developer's shell cannot change the measured program."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_LIVE"] = "0"
    return env


def kill_session(leader: int) -> None:
    try:
        os.killpg(leader, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(mode: str, workload: str, seed: int, out: Path, *extra: str) -> Usage:
    """Run ``child.py`` in a fresh session and wait for its whole tree."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), mode, "--workload", workload,
         "--seed", str(seed), "--out", str(out), "--spawned", repr(spawned),
         *extra],
        cwd=ROOT, env=child_env(), stdout=sys.stderr, start_new_session=True,
    )
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() - spawned > CHILD_TIMEOUT_S:
            kill_session(proc.pid)
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    peak_kb = usage.ru_maxrss
    # Stop whatever is left of the child's session and count every
    # descendant that was handed to us.
    kill_session(proc.pid)
    while True:
        try:
            _pid, _status, orphan = os.wait4(-1, 0)
        except ChildProcessError:
            break
        cpu += orphan.ru_utime + orphan.ru_stime
        peak_kb = max(peak_kb, orphan.ru_maxrss)
    return Usage(proc.returncode, cpu, peak_kb / 1024.0)


def shm_segments() -> set[str]:
    """The program's shared-memory segments currently present."""
    try:
        return {path.name for path in SHM.iterdir() if path.name.startswith("repro")}
    except OSError:
        return set()


def read_report(path: Path, usage: Usage) -> dict | None:
    if usage.returncode != 0:
        print(f"perfbench: {path.stem} exited with {usage.returncode}", file=sys.stderr)
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def source_digest() -> str:
    """Content hash of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def warm_cache(workload: Workload, seed: int) -> Path:
    """The filled cache ``warm-all`` reads.

    An earlier, unmeasured process fills it once per seed and source tree;
    later runs in the same checkout reuse it.  Every measured run reads a
    private copy.
    """
    template = WORK / f"warm-cache-{seed}-{source_digest()}"
    if template.is_dir():
        return template
    staging = WORK / f"warm-fill-{os.getpid()}"
    out = staging.with_suffix(".json")
    usage = run_child("fill", workload.name, seed, out, "--cache", str(staging))
    out.unlink(missing_ok=True)
    if usage.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        raise SystemExit(f"perfbench: filling the {workload.name} cache failed")
    try:
        staging.rename(template)
    except OSError:  # another run filled it first
        shutil.rmtree(staging)
    return template


def measured_rep(index: int, workload: Workload, seed: int, expected: dict,
                 work: Path, template: Path | None) -> Rep:
    cache = work / f"cache-{index}"
    if template is not None:
        shutil.copytree(template, cache)
    out = work / f"rep-{index}.json"
    # Assumes no other run of the program publishes segments meanwhile.
    before = shm_segments()
    usage = run_child("measure", workload.name, seed, out, "--cache", str(cache))
    leaked = shm_segments() - before
    shutil.rmtree(cache, ignore_errors=True)
    jobs = job_count(expected, workload.sections)
    report = read_report(out, usage)
    if report is None or leaked:
        if leaked:
            print(f"perfbench: run {index} left shared memory {sorted(leaked)}",
                  file=sys.stderr)
        return Rep(jobs, jobs, None, usage)
    failed = count_failures(expected, workload.sections, report["records"])
    if workload.warm:
        failed += report["robustness"]["cache"]["misses"]
    return Rep(jobs, min(jobs, failed), report, usage)


def measure(workload: Workload, seed: int, seconds: float, expected: dict,
            work: Path, template: Path | None, ref: dict) -> list[Rep]:
    """Closed loop: start another regeneration while time is left.  The
    reference is timed into ``ref`` before the first and after each."""
    reps: list[Rep] = []
    deadline = time.monotonic() + seconds
    time_reference(ref)
    while not reps or time.monotonic() < deadline:
        start = time.monotonic()
        reps.append(measured_rep(len(reps), workload, seed, expected, work, template))
        time_reference(ref, REF_SHARE * (time.monotonic() - start))
    if not any(rep.report for rep in reps):
        raise SystemExit(f"perfbench: every {workload.name} run failed")
    return reps


def setup_samples(reps: list[Rep], workload: Workload, seed: int, work: Path,
                  ref: dict) -> list[dict]:
    """The set-up phases of every measured run, topped up to
    ``SETUP_SAMPLES`` with set-up-only processes, each followed by a
    reference timed into ``ref``."""
    setups = [rep.report["setup"] for rep in reps if rep.report]
    while len(setups) < SETUP_SAMPLES:
        out = work / f"setup-{len(setups)}.json"
        report = read_report(out, run_child("setup", workload.name, seed, out))
        time_reference(ref)
        if report is None:
            raise SystemExit(f"perfbench: {workload.name} set-up failed")
        setups.append(report["setup"])
    return setups


def host_scale(ref: dict, clock: str) -> float:
    """The factor that rescales seconds on ``clock`` (``wall_s`` or
    ``cpu_s``) to the reference speed: ``REF_S`` over the mean of the
    reference timings in ``ref``."""
    return REF_S / mean(ref[clock])


def end_to_end(reps: list[Rep], setups: list[dict], ref: dict) -> dict:
    done = [rep for rep in reps if rep.report]
    wall_scale = host_scale(ref, "wall_s")
    return {
        "setup_s": (wall_scale * mean([setup["setup_s"] for setup in setups]), "s"),
        "wall_s": (wall_scale * mean([rep.report["wall_s"] for rep in done]), "s"),
        "cpu_s": (host_scale(ref, "cpu_s") * mean([rep.cpu_s for rep in done]), "s"),
        "peak_rss_mb": (median([rep.usage.peak_rss_mb for rep in done]), "MB"),
    }


def replay(workload: Workload, seed: int, work: Path, template: Path | None) -> dict:
    """The separate traced run's report, with the reference timed right
    before and after it as its ``ref``; its Chrome trace is kept in
    ``.perfbench/``."""
    cache = work / "replay-cache"
    if template is not None:
        shutil.copytree(template, cache)
    out = work / "replay.json"
    trace = WORK / f"trace-{workload.name}-{seed}.json"
    ref: dict = {}
    time_reference(ref)
    usage = run_child("replay", workload.name, seed, out, "--cache", str(cache),
                      "--trace-out", str(trace))
    time_reference(ref)
    report = read_report(out, usage)
    if report is None:
        raise SystemExit(f"perfbench: the traced {workload.name} replay failed")
    report["ref"] = ref
    return report


def replay_failures(workload: Workload, expected: dict, report: dict) -> int:
    """Replayed jobs whose full result differs from the expected one (the
    engine's), whose netlist fails verification or that missed the cache
    in ``warm-all``."""
    failed = count_failures(expected, workload.sections, report["records"], full=True)
    failed += report["verify_failures"]
    if workload.warm:
        failed += report["cache"]["misses"]
    return min(job_count(expected, workload.sections), failed)


def per_layer(reps: list[Rep], setups: list[dict], ref: dict, report: dict) -> dict:
    """Per-layer metrics; every time is in seconds at the reference speed,
    the replay's rescaled by the reference timed around it."""
    done = [rep for rep in reps if rep.report]
    wall_scale = host_scale(ref, "wall_s")
    raw_wall = mean([rep.report["wall_s"] for rep in done])
    wall = wall_scale * raw_wall
    cpu = host_scale(ref, "cpu_s") * mean([rep.cpu_s for rep in done])
    replay_scale = host_scale(report["ref"], "wall_s")
    spans = report["spans"]
    layer = {name: replay_scale * own for name, own in self_time_by_name(spans).items()}
    busy = replay_scale * sum(self_times(spans))
    job_s = [replay_scale * own for own in self_time_by_job(spans).values()]
    counts = report["counts"]
    cache = report["cache"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def setup(phase: str) -> float:
        return wall_scale * mean([sample[phase] for sample in setups])

    return {
        "setup.import_s": (setup("import_s"), "s"),
        "core.library_s": (setup("library_s"), "s"),
        "matcher.build_s": (setup("matcher_s"), "s"),
        "bench.build_s": (layer.get("bench.build", 0.0), "s"),
        "engine.key_s": (layer.get("engine.key", 0.0), "s"),
        "engine.cache_get_s": (layer.get("engine.cache_get", 0.0), "s"),
        "engine.cache_put_s": (layer.get("engine.cache_put", 0.0), "s"),
        "engine.hit_frac": (ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "flow.s": (layer.get("flow", 0.0), "s"),
        "flow.ands_in": (counts["flow.ands_in"], "count"),
        "flow.ands_out": (counts["flow.ands_out"], "count"),
        "cuts.s": (layer.get("cuts", 0.0), "s"),
        "cuts.count": (counts["cuts.count"], "count"),
        "cuts.us_per_and": (1e6 * ratio(layer.get("cuts", 0.0), counts["cuts.ands"]), "us"),
        "match.s": (layer.get("match", 0.0), "s"),
        "match.rows": (counts["match.rows"], "count"),
        "match.unique_functions": (counts["match.unique_functions"], "count"),
        "match.hit_frac": (ratio(counts["match.index_hits"],
                                 counts["match.unique_functions"]), "ratio"),
        "map.s": (layer.get("map", 0.0), "s"),
        "map.gates": (counts["map.gates"], "count"),
        "map.recovery_accept_frac": (ratio(counts["map.recovery_accepted"],
                                           counts["map.recovery_rounds"]), "ratio"),
        "activity.s": (layer.get("activity", 0.0), "s"),
        "power.s": (layer.get("power", 0.0), "s"),
        "engine.parallel_eff": (parallel_eff(busy, wall), "ratio"),
        "engine.extra_cpu_s": (extra_cpu(cpu, busy), "s"),
        "engine.retries": (sum(
            failure["resolution"] == "retry"
            for rep in done for failure in rep.report["robustness"]["failures"]
        ), "count"),
        "engine.degraded": (sum(
            rep.report["robustness"]["degraded_jobs"] for rep in done), "count"),
        "job.p50_ms": (1e3 * median(job_s), "ms"),
        "job.tail_ms": (1e3 * tail(job_s), "ms"),
        "job.n": (len(job_s), "count"),
        "trace.unattributed_s": (wall - busy, "s"),
        "host.wall_s": (raw_wall, "s"),
        "host.ref_s": (REF_S / wall_scale, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = committed_seed(args.seed)
    expected = load_expected(seed)
    # Byte-compile up front: users do not pay for compilation on every run.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
        check=True, stdout=subprocess.DEVNULL,
    )
    become_subreaper()
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        template = warm_cache(workload, seed) if workload.warm else None
        ref: dict = {}
        reps = measure(workload, seed, args.seconds, expected, work, template, ref)
        setups = setup_samples(reps, workload, seed, work, ref)
        attempted = sum(rep.jobs for rep in reps)
        failed = sum(rep.failed for rep in reps)
        if args.trace:
            report = replay(workload, seed, work, template)
            metrics = per_layer(reps, setups, ref, report)
            attempted += job_count(expected, workload.sections)
            failed += replay_failures(workload, expected, report)
        else:
            metrics = end_to_end(reps, setups, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"perfbench: {workload.name} seed {seed}: {len(reps)} runs, "
          f"{failed} of {attempted} jobs failed; host ran at "
          f"{host_scale(ref, 'wall_s'):.3f}x the reference speed", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
