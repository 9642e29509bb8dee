"""Parallel, cache-aware experiment engine.

The engine decomposes the paper's experiments into independent jobs and is
the single scheduling/caching layer behind :mod:`repro.experiments.table2`,
:mod:`repro.experiments.table3`, :mod:`repro.experiments.figure6`, the
``benchmarks/`` suite and the CLI runner:

* **Job decomposition.**  Table 3 becomes one :class:`MapJob` per
  ``(benchmark, library, objective)`` triple; Table 2 becomes one
  :class:`CharacterizationJob` per family; Figure 6 is derived from the
  Table-3 results and needs no jobs of its own.
* **Parallel execution.**  Jobs run across worker processes when
  ``jobs > 1``.  Mapping jobs are scheduled by *subject* (one benchmark
  after the synthesis flow, with its cuts): the worker that claims a
  subject builds it once and maps all of its jobs, largest raw AIG first.
  Every job is a pure function of its spec, so the parallel schedule is
  bit-identical to the deterministic single-process fallback (which is also
  used automatically if no worker process can be created).
* **Fault tolerance.**  Parallel batches go through
  :mod:`repro.experiments.resilience`: per-job futures with a wall-clock
  timeout, bounded retries with deterministic backoff for crashed or
  timed-out jobs, rebuild of only the crashed or stuck worker slot
  (re-dispatching only its lost job), and in-process degradation once
  retries are exhausted.  Real job exceptions (flow errors) propagate
  unretried.  Completed payloads are cache-committed the moment they
  arrive, never at batch end.  The chaos harness
  (:mod:`repro.experiments.faults`) injects deterministic worker kills /
  delays to prove all of this keeps artifacts bit-identical.
* **Provenance-keyed caching.**  Each job result is memoized in an on-disk
  JSON cache keyed by a SHA-256 hash of the code that computes it and the
  job's spec: :func:`code_digest` (the package source plus the Python and
  numpy versions) with the benchmark, family, objective, flow and mapper
  parameters.  A built-in benchmark is named, since its generator is
  package code; a benchmark registered at run time is identified by the
  structural hash of its generated AIG (:func:`aig_fingerprint`).  A key
  therefore never builds a library or generates a built-in benchmark, so a
  warm run only reads the cache, and any source edit recomputes every
  entry.  The store is safe for concurrent runners: two-level sharded
  directories, unique ``mkstemp`` staging with atomic ``os.replace``
  commits under an advisory per-entry lock, per-entry payload checksums
  verified on read, quarantine (``<cache>/corrupt/``) of damaged entries
  instead of silent re-misses, and optional size-based LRU eviction
  (``REPRO_CACHE_MAX_BYTES``).  The cache directory is
  ``$REPRO_CACHE_DIR``, falling back to ``$XDG_CACHE_HOME/repro/experiments``
  and then ``~/.cache/repro/experiments``.
* **JSON artifacts.**  :meth:`ExperimentEngine.write_artifacts` emits
  machine-readable ``table2.json`` / ``table3.json`` / ``figure6.json``
  next to the rendered text tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

try:  # advisory file locking; absent on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only dependency
    fcntl = None  # type: ignore[assignment]

from repro.analysis.activity import DEFAULT_SEED, DEFAULT_VECTORS, compute_activities
from repro.analysis.power import analyze_power
from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.core.characterize import (
    CellCharacterization,
    FamilySummary,
    characterize_family,
)
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.core.paper_data import PAPER_TABLE2, PAPER_TABLE2_AVERAGES
from repro.experiments.figure6 import Figure6Result, figure6_from_table3
from repro.experiments.table2 import FAMILY_KEYS, TABLE2_FAMILIES, Table2Result
from repro.experiments.table3 import (
    TABLE3_FAMILIES,
    MappingStats,
    PowerStats,
    Table3Result,
    Table3Row,
    _paper_row,
)
from repro import obs
from repro.experiments import faults, resilience
from repro.flow import DEFAULT_FLOW, get_flow, run_flow
from repro.synthesis.aig import Aig
from repro.synthesis.cuts import DEFAULT_CUT_LIMIT, DEFAULT_MAX_INPUTS
from repro.synthesis.mapper import technology_map
from repro.synthesis.matcher import matcher_for

#: Bump when the meaning of cached payloads or keys changes; old entries are
#: then treated as misses and recomputed.  A code change needs no bump: the
#: code digest in every key already separates it.  Schema 2: mapping jobs
#: are keyed by synthesis-flow name + flow fingerprint instead of the
#: optimize_first flag.  Schema 3: mapping payloads grow the power axis
#: (dynamic + static power of the mapped netlist), keyed additionally by the
#: Monte-Carlo activity parameters (``power_vectors``/``power_seed``).
#: Schema 4: mapping jobs carry the multi-round recovery knobs (``rounds`` /
#: ``recovery``), both folded into the key so recovered results never
#: satisfy round-0 requests (or vice versa).  Schema 5: the hardened
#: multi-process store -- entries live in two-level shard directories and
#: carry a sha256 payload checksum verified on read; pre-shard flat
#: entries are simply never found at the sharded paths.
#: Schema 6: provenance keys -- code digest plus job spec, built-ins by name.
CACHE_SCHEMA = 6


def default_cache_dir() -> Path:
    """Resolve the on-disk cache location (see module docstring)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "experiments"


#: The package whose source :func:`code_digest` covers.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: Built-in benchmarks are keyed by name: their generators are package code.
_BUILTIN_BENCHMARKS = frozenset(case.name for case in BENCHMARKS)


def source_digest(root: Path | str) -> str:
    """SHA-256 over every ``*.py`` file under ``root``, in sorted order.

    Each file contributes its path relative to ``root``, its length and its
    bytes, so a rename, a move or a one-byte edit anywhere in the tree
    changes the digest.
    """
    root = Path(root)
    digest = hashlib.sha256()
    files = sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py"))
    for relative in files:
        data = (root / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@lru_cache(maxsize=None)
def code_digest() -> str:
    """Digest of the code behind every cached payload, computed once per process.

    The package source (:func:`source_digest`) plus the Python and numpy
    versions.  Coarse by design: any source edit invalidates every entry.
    """
    material = f"{source_digest(_PACKAGE_ROOT)}|{sys.version}|{np.__version__}"
    return hashlib.sha256(material.encode()).hexdigest()


def aig_fingerprint(aig: Aig) -> str:
    """Content hash of an AIG's structure (inputs, AND nodes, outputs)."""
    digest = hashlib.sha256()
    digest.update(",".join(aig.pi_names).encode())
    digest.update(b"|")
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        digest.update(f"{node}:{f0}:{f1};".encode())
    digest.update(b"|")
    for name, literal in zip(aig.po_names, aig.po_literals):
        digest.update(f"{name}={literal};".encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class MapJob:
    """One (benchmark, library, objective, flow) unit of Table-3 work.

    ``power_vectors``/``power_seed`` parameterize the Monte-Carlo activity
    estimation behind the power axis (and the ``power`` mapping objective);
    ``rounds``/``recovery`` select the mapper's required-time recovery
    rounds and their cost axis (see :func:`repro.synthesis.mapper.map_rounds`).
    Every field is folded into the cache key (:meth:`ExperimentEngine.map_job_key`),
    together with the code digest and the flow's fingerprint, so results
    computed under one configuration or one version of the code never
    satisfy another.
    """

    benchmark: str
    family: LogicFamily
    objective: str = "delay"
    flow: str = DEFAULT_FLOW
    max_inputs: int = DEFAULT_MAX_INPUTS
    cut_limit: int = DEFAULT_CUT_LIMIT
    power_vectors: int = DEFAULT_VECTORS
    power_seed: int = DEFAULT_SEED
    rounds: int = 0
    recovery: str = "auto"

    def spec(self) -> tuple:
        """Picklable description handed to worker processes."""
        return (
            self.benchmark,
            self.family.value,
            self.objective,
            self.flow,
            self.max_inputs,
            self.cut_limit,
            self.power_vectors,
            self.power_seed,
            self.rounds,
            self.recovery,
        )

    def label(self) -> str:
        """Human-readable identity used by spans and the progress line."""
        return f"{self.benchmark}:{self.family.value}:{self.objective}"

    def subject(self) -> tuple:
        """The subject this job maps: jobs that share it share the flow
        output, cuts and function table, and a parallel batch runs them in
        the worker that claimed the subject."""
        return (self.benchmark, self.flow, self.max_inputs, self.cut_limit)


@dataclass(frozen=True)
class MapJobResult:
    """Outcome of one :class:`MapJob`."""

    job: MapJob
    stats: MappingStats
    power: PowerStats
    aig_nodes: int
    aig_depth: int
    cached: bool


@dataclass(frozen=True)
class CharacterizationJob:
    """One Table-2 unit of work: characterize a whole family."""

    family: LogicFamily

    def spec(self) -> tuple:
        return (self.family.value,)

    def label(self) -> str:
        return f"table2:{self.family.value}"


def _payload_checksum(payload: dict) -> str:
    """Canonical sha256 over a payload's JSON form (verified on read)."""
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/corruption/eviction tally of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    evicted: int = 0
    puts: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class ResultCache:
    """Keyed on-disk JSON store hardened for concurrent runners.

    One file per job result, in two-level shard directories
    (``<dir>/ab/cd/<key>.json``) so no single directory grows unbounded.
    Writes stage through a uniquely named ``mkstemp`` file in the target
    shard and commit with an atomic ``os.replace`` under an advisory
    per-entry ``flock`` -- two runners sharing the directory can race on
    the same key and the survivor is always one complete, valid entry.
    Entries carry a sha256 checksum of their payload, verified on every
    read; an unreadable or checksum-failing entry is *quarantined* (moved
    to ``<dir>/corrupt/`` and counted) instead of being silently re-read
    as a miss forever.  Entries with a different schema version are stale,
    not corrupt, and are overwritten in place by the next put.  With a
    size budget (``max_bytes`` or ``REPRO_CACHE_MAX_BYTES``) puts evict
    least-recently-used entries (hits refresh mtime) back under budget.
    All traffic is tallied in :attr:`stats` and mirrored to the tracer's
    ``cache.*`` counters.
    """

    def __init__(self, directory: Path, max_bytes: int | None = None) -> None:
        self.directory = Path(directory)
        if max_bytes is None:
            raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
            max_bytes = int(raw) if raw else None
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / key[2:4] / f"{key}.json"

    def quarantine_dir(self) -> Path:
        return self.directory / "corrupt"

    def get(self, key: str) -> dict | None:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (FileNotFoundError, NotADirectoryError):
            self.stats.misses += 1
            obs.count("cache.miss")
            return None
        except (OSError, ValueError):
            self._quarantine(path)
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
            # Foreign or older-schema content is stale, not corrupt; the
            # next put overwrites it in place.
            self.stats.misses += 1
            obs.count("cache.miss")
            return None
        payload = entry.get("payload")
        if (
            entry.get("key") != key
            or not isinstance(payload, dict)
            or entry.get("checksum") != _payload_checksum(payload)
        ):
            self._quarantine(path)
            return None
        self.stats.hits += 1
        obs.count("cache.hit")
        try:
            os.utime(path)  # LRU recency for size-based eviction
        except OSError:  # pragma: no cover - raced with an eviction
            pass
        return payload

    def put(self, key: str, payload: dict) -> None:
        path = self.path_for(key)
        shard = path.parent
        shard.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "payload": payload,
            "checksum": _payload_checksum(payload),
        }
        text = json.dumps(entry, sort_keys=True)
        with self._locked(path):
            fd, staging = tempfile.mkstemp(
                dir=shard, prefix=f".{key[:8]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(staging, path)
            except BaseException:
                try:
                    os.unlink(staging)
                except OSError:  # pragma: no cover - never committed
                    pass
                raise
        self.stats.puts += 1
        obs.count("cache.put")
        if self.max_bytes is not None:
            self._evict_to_budget()

    @contextmanager
    def _locked(self, path: Path) -> Iterator[None]:
        """Advisory per-entry write lock (no-op where flock is unavailable).

        ``os.replace`` already guarantees each committed entry is complete;
        the lock additionally serializes same-key writers so checkers never
        observe two staging files for one entry.  Lock files are tiny and
        deliberately never deleted (unlinking a held advisory lock file is
        the classic two-inode race).
        """
        if fcntl is None:
            yield
            return
        try:
            fd = os.open(path.with_suffix(".lock"), os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:  # pragma: no cover - unwritable shard
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing drops the flock

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside (counted) instead of dropping it."""
        self.stats.corrupt += 1
        obs.count("cache.corrupt")
        quarantine = self.quarantine_dir()
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            target = quarantine / f"{path.name}.{os.getpid()}-{self.stats.corrupt}"
            os.replace(path, target)
        except OSError:  # pragma: no cover - concurrent runner won the move
            pass

    def _evict_to_budget(self) -> None:
        """Unlink least-recently-used entries until back under ``max_bytes``."""
        entries: list[tuple[float, int, Path]] = []
        total = 0
        # Quarantined files and .lock files never count against the budget:
        # the glob only sees committed entries in two-level shards.
        for path in self.directory.glob("??/??/*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced with another evictor
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        for _mtime, size, path in sorted(entries, key=lambda e: (e[0], str(e[2]))):
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced with another evictor
                continue
            total -= size
            self.stats.evicted += 1
            obs.count("cache.evict")


def _job_label(job) -> str:
    """Span/progress label of a job (falls back to the class name)."""
    label = getattr(job, "label", None)
    return label() if callable(label) else type(job).__name__


def _resolve_cases(benchmark_names: tuple[str, ...] | None):
    """The benchmark cases, optionally restricted to a subset.

    Covers the built-in Table-3 set plus any benchmarks registered at run
    time (``repro.bench.registry.register_benchmark`` /
    ``register_blif_benchmark``, the runner's ``--extra-benchmark`` lane);
    without registrations this is exactly the built-in set.
    """
    from repro.bench.registry import all_benchmarks

    cases = all_benchmarks()
    if benchmark_names is None:
        return cases
    wanted = set(benchmark_names)
    cases = tuple(case for case in cases if case.name in wanted)
    missing = wanted - {case.name for case in cases}
    if missing:
        raise KeyError(f"unknown benchmarks requested: {sorted(missing)}")
    return cases


# Per-process memo of flow-optimized benchmark AIGs so the jobs of one
# subject that run in the same process run the flow only once.  Every derived
# memo -- array view, cut sets, function, match and candidate tables --
# hangs off the optimized AIG it was computed from and dies with it,
# so this dict (with _ACTIVITY_REPORTS) owns all subject state: a pool worker
# drops it on a subject switch (_hold_subject), the parent keeps its subjects
# for the life of the process, and every batch of a run reuses them.
_OPTIMIZED_AIGS: dict[tuple[str, str], Aig] = {}

# Per-process memo of activity reports: the signal statistics depend only on
# (benchmark, flow, vectors, seed), so the family x objective jobs of one
# benchmark share a single propagation.
_ACTIVITY_REPORTS: dict[tuple[str, str, int, int], object] = {}

#: Raw AIGs the running map batch has already generated (for its keys or
#: its claim order), by benchmark.  :func:`_subject_aig` consumes each at
#: most once instead of generating the benchmark again.
#: :meth:`ExperimentEngine.run_map_jobs` empties it when the batch ends and
#: a pool worker empties its forked copy at start-up, so a raw AIG never
#: outlives its batch or crosses into a worker.
_BATCH_SOURCES: dict[str, Aig] = {}

#: The subject (:meth:`MapJob.subject`) whose memos this pool worker holds.
#: ``None`` in the parent: in-process jobs (jobs=1, degradation) never drop
#: the parent's memos.
_WORKER_SUBJECT: tuple | None = None


def _hold_subject(subject: tuple) -> None:
    """Drop a pool worker's memos when it switches to another subject.

    A worker holds one subject at a time, so its memory stays bounded by
    the largest subject however many it maps in a batch.
    """
    global _WORKER_SUBJECT
    if _WORKER_SUBJECT is None or _WORKER_SUBJECT == subject:
        return
    _OPTIMIZED_AIGS.clear()
    _ACTIVITY_REPORTS.clear()
    _WORKER_SUBJECT = subject


def _pool_initializer(obs_config: dict | None = None) -> None:
    """Prepare a fresh pool worker.

    Marks the process as a worker holding no subject yet (it drops any
    memos inherited through ``fork`` on its first job) and drops the raw
    AIGs of the parent's batch it inherited, installs any fault
    plan carried by the environment -- only here, so chaos faults fire
    exclusively in pool workers and the parent's deterministic in-process
    path stays fault-free by construction -- and adopts the parent's
    observability switches (``obs_config``, see
    :func:`repro.obs.worker_config`): the worker clears any span buffer it
    inherited through ``fork`` and starts buffering telemetry per job for
    shipment back inside the payloads.
    """
    global _WORKER_SUBJECT
    _WORKER_SUBJECT = ()
    _BATCH_SOURCES.clear()
    obs.activate_worker(obs_config)
    faults.install_from_env()


def _subject_aig(benchmark: str, flow: str) -> Aig:
    """The flow-optimized AIG of a subject (memoized per process).

    The raw AIG is the one the running batch already generated
    (:data:`_BATCH_SOURCES`), when there is one; otherwise the benchmark is
    generated here.
    """
    key = (benchmark, flow)
    cached = _OPTIMIZED_AIGS.get(key)
    if cached is None:
        try:
            case = benchmark_by_name(benchmark)
        except KeyError as error:
            # Worker processes started via spawn/forkserver re-import modules
            # and only see benchmarks registered at import time; surface that
            # instead of a bare KeyError from the registry.
            raise RuntimeError(
                f"benchmark {benchmark!r} is not registered in this worker "
                "process; run-time registrations (--extra-benchmark / "
                "register_benchmark) must come from an imported module (or "
                "use jobs=1) for parallel runs on spawn-based platforms"
            ) from error
        source = _BATCH_SOURCES.pop(benchmark, None)
        try:
            with obs.stage("optimize"):
                result = run_flow(flow, case.build() if source is None else source)
        except KeyError as error:
            # Same re-import caveat for flows registered at run time.
            raise RuntimeError(
                f"flow {flow!r} is not registered in this worker process; "
                "custom flows must be registered from an imported module (or "
                "use jobs=1) for parallel runs"
            ) from error
        cached = result.aig
        _OPTIMIZED_AIGS[key] = cached
    return cached


def _attach_obs(payload: dict) -> dict:
    """Ship this worker's buffered telemetry back inside the job payload.

    A no-op in the parent (in-process jobs record straight into the global
    buffer) and in disabled workers; the parent strips the blob before the
    payload reaches the result cache or the decoded results.
    """
    if obs.remote_active():
        blob = obs.drain_worker_blob()
        if blob is not None:
            payload["obs"] = blob
    return payload


def _run_map_job(spec: tuple) -> dict:
    """Execute one mapping job from its :meth:`MapJob.spec` (worker-side;
    must stay picklable/pure).

    The first job of a subject in a process builds it (flow, cuts,
    function table, activities) into the per-process memos; the subject's
    later jobs reuse them.
    """
    (
        benchmark,
        family_value,
        objective,
        flow,
        max_inputs,
        cut_limit,
        power_vectors,
        power_seed,
        rounds,
        recovery,
    ) = spec
    faults.on_job_start(f"{benchmark}:{family_value}:{objective}:{flow}:{rounds}")
    _hold_subject((benchmark, flow, max_inputs, cut_limit))  # MapJob.subject()
    family = LogicFamily(family_value)
    with obs.span(
        f"job:{benchmark}:{family_value}:{objective}",
        category="job",
        benchmark=benchmark,
        family=family_value,
        objective=objective,
        flow=flow,
        rounds=rounds,
    ) as job_span:
        aig = _subject_aig(benchmark, flow)
        job_span.set("aig_nodes", aig.num_ands)
        library = build_library(family)
        activity_key = (benchmark, flow, power_vectors, power_seed)
        activities = _ACTIVITY_REPORTS.get(activity_key)
        if activities is None:
            with obs.stage("activity"):
                activities = compute_activities(
                    aig, vectors=power_vectors, seed=power_seed
                )
            _ACTIVITY_REPORTS[activity_key] = activities
        mapped = technology_map(
            aig,
            library,
            matcher=matcher_for(library),
            objective=objective,
            max_inputs=max_inputs,
            cut_limit=cut_limit,
            activities=activities,
            rounds=rounds,
            recovery=recovery,
        )
        with obs.stage("power"):
            power = analyze_power(mapped, aig, library, activities)
        payload = {
            "stats": asdict(MappingStats.from_mapped(mapped)),
            "power": asdict(PowerStats.from_analysis(power)),
            "aig_nodes": aig.num_ands,
            "aig_depth": aig.depth(),
        }
    return _attach_obs(payload)


def _run_characterization_job(spec: tuple) -> dict:
    """Execute one Table-2 characterization job (worker-side)."""
    (family_value,) = spec
    with obs.span(
        f"job:table2:{family_value}", category="job", family=family_value
    ):
        library = build_library(LogicFamily(family_value))
        rows, summary = characterize_family(library)
        payload = {
            "rows": [asdict(row) for row in rows],
            "summary": asdict(summary),
        }
    return _attach_obs(payload)


def _map_key(job: MapJob, aig_print: str | None, flow_print: str) -> str:
    """Cache key of ``job`` given its flow's fingerprint and, for a benchmark
    registered at run time, its raw AIG's (``None`` for a built-in)."""
    subject = {"benchmark": job.benchmark} if aig_print is None else {"aig": aig_print}
    material = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "kind": "map",
            "code": code_digest(),
            **subject,
            "family": job.family.value,
            "objective": job.objective,
            "flow": job.flow,
            "flow_spec": flow_print,
            "max_inputs": job.max_inputs,
            "cut_limit": job.cut_limit,
            "power_vectors": job.power_vectors,
            "power_seed": job.power_seed,
            "rounds": job.rounds,
            "recovery": job.recovery,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()


def _subject_schedule(
    jobs: Sequence[MapJob], sources: dict[str, Aig]
) -> list[list[int]]:
    """Job positions grouped by :meth:`MapJob.subject`, largest raw AIG
    first (ties keep first appearance), each group in job order."""
    groups: dict[tuple, list[int]] = {}
    for index, job in enumerate(jobs):
        groups.setdefault(job.subject(), []).append(index)
    return sorted(
        groups.values(),
        key=lambda group: -sources[jobs[group[0]].benchmark].num_ands,
    )


class ExperimentEngine:
    """Schedules experiment jobs over processes with on-disk memoization.

    ``jobs`` is the number of worker processes (``1`` selects the
    deterministic in-process path, which parallel runs are bit-identical
    to).  ``use_cache=False`` disables the on-disk cache entirely; otherwise
    results live under ``cache_dir`` (default: :func:`default_cache_dir`)
    bounded by ``cache_max_bytes`` (default: ``REPRO_CACHE_MAX_BYTES``,
    unbounded when unset).  ``retry_policy`` governs the parallel batches'
    per-job timeouts and crash/timeout retries (default: a plain
    :class:`repro.experiments.resilience.RetryPolicy`); every
    abnormal event is collected on :attr:`failures` and summarized by
    :meth:`robustness_stats`.  ``progress`` is an optional
    :class:`repro.obs.LiveProgress` fed from the completion callbacks
    (cache hits, per-job commits, resilience failures) -- the live stderr
    line of parallel runs.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Path | str | None = None,
        use_cache: bool = True,
        retry_policy: resilience.RetryPolicy | None = None,
        cache_max_bytes: int | None = None,
        progress: "obs.LiveProgress | None" = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.progress = progress
        self.retry_policy = retry_policy or resilience.RetryPolicy()
        self.failures: list[resilience.JobFailure] = []
        self.pool_rebuilds = 0
        self.degraded_jobs = 0
        self.cache: ResultCache | None = None
        if use_cache:
            self.cache = ResultCache(
                Path(cache_dir) if cache_dir else default_cache_dir(),
                max_bytes=cache_max_bytes,
            )

    # -- generic job scheduling ---------------------------------------------

    def _execute(
        self,
        worker,
        payloads: list[tuple],
        initializer: Callable | None = None,
        initargs: tuple = (),
        on_result: Callable[[int, dict], None] | None = None,
        subjects: list[list[int]] | None = None,
    ) -> list[dict]:
        """Run job payloads through ``worker``, in processes when possible.

        Parallel batches go through the resilient executor: per-job
        futures with the engine's retry policy, subject-affine dispatch
        (``subjects``, see :func:`repro.experiments.resilience.run_resilient`),
        slot rebuild on worker crashes, and per-job in-process degradation
        once retries are exhausted (whole-batch fallback only when no worker
        can be created at all).  Exceptions raised *by* a job propagate
        unchanged so real flow errors are never silently retried.
        ``on_result(index, payload)`` fires the moment each job completes,
        in both the parallel and the in-process paths.
        """
        if self.jobs > 1 and len(payloads) > 1:
            outcome = resilience.run_resilient(
                worker,
                payloads,
                jobs=min(self.jobs, len(payloads)),
                policy=self.retry_policy,
                initializer=initializer,
                initargs=initargs,
                on_result=on_result,
                subjects=subjects,
                on_failure=(
                    (lambda failure: self.progress.job_failed(
                        failure.kind, failure.resolution))
                    if self.progress is not None
                    else None
                ),
            )
            self.failures.extend(outcome.failures)
            self.pool_rebuilds += outcome.rebuilds
            self.degraded_jobs += outcome.degraded
            return outcome.results
        results = []
        for index, payload_in in enumerate(payloads):
            payload = worker(payload_in)
            if on_result is not None:
                on_result(index, payload)
            results.append(payload)
        return results

    def _run_jobs(
        self,
        worker,
        jobs: Sequence,
        keys: dict,
        prepare_parallel: Callable[[list], list[list[int]]] | None = None,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> dict:
        """Cache-aware scheduling shared by map and characterization jobs.

        ``prepare_parallel`` runs in the parent just before worker
        processes would be forked (i.e. only when there are cache misses to
        execute in parallel), so cheap shared state can be built once and
        inherited by the workers; it returns the pending jobs' subject
        schedule (positions grouped by subject, in claim order).  Workers
        receive each job's ``spec()``.
        """
        if self.progress is not None:
            self.progress.start_batch(len(jobs))
        results: dict = {}
        pending = []
        for job in jobs:
            payload = self.cache.get(keys[job]) if self.cache else None
            if payload is not None:
                # Synthesized span: a hit executes nothing, but the trace
                # must still attribute the job to the cache (the service
                # telemetry's hit-rate view reads these).
                obs.add_span(
                    f"cache-hit:{_job_label(job)}",
                    "cache",
                    key=keys[job],
                )
                if self.progress is not None:
                    self.progress.job_cached()
                results[job] = (payload, True)
            else:
                pending.append(job)
        if pending:
            subjects = None
            if prepare_parallel is not None and self.jobs > 1 and len(pending) > 1:
                subjects = prepare_parallel(pending)

            def commit(index: int, payload: dict) -> None:
                # Worker-side telemetry rides back inside the payload; fold
                # it into the parent's buffer and strip it before the
                # payload is cached or decoded (observability must never
                # leak into cached payloads or artifacts).
                obs.merge_blob(payload.pop("obs", None))
                if self.progress is not None:
                    self.progress.job_done()
                # Committed the moment each job finishes, not at batch end:
                # a crash later in the batch never discards finished work,
                # and a rerun after a fatal error resumes from the cache.
                if self.cache is not None:
                    self.cache.put(keys[pending[index]], payload)

            payloads = self._execute(
                worker,
                [job.spec() for job in pending],
                initializer=initializer,
                initargs=initargs,
                on_result=commit,
                subjects=subjects,
            )
            for job, payload in zip(pending, payloads):
                results[job] = (payload, False)
        return results

    def robustness_stats(self) -> dict:
        """Cache / worker / failure counters accumulated by this engine.

        What the runner prints under ``--cache-stats`` and the chaos suite
        serializes into the failure-classification artifact.
        """
        counts: dict[str, int] = {}
        for failure in self.failures:
            counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return {
            "cache": self.cache.stats.as_dict() if self.cache else None,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded_jobs": self.degraded_jobs,
            "failure_counts": counts,
            "failures": [failure.as_dict() for failure in self.failures],
        }

    # -- mapping jobs (Table 3 / Figure 6) ----------------------------------

    def map_job_key(self, job: MapJob, aig: Aig | None = None) -> str:
        """Provenance cache key of one mapping job.

        A built-in benchmark is keyed by name and ``aig`` is ignored; a
        benchmark registered at run time is keyed by :func:`aig_fingerprint`
        of its raw AIG, ``aig`` when given and generated here otherwise.
        """
        aig_print = None
        if job.benchmark not in _BUILTIN_BENCHMARKS:
            if aig is None:
                aig = benchmark_by_name(job.benchmark).build()
            aig_print = aig_fingerprint(aig)
        return _map_key(job, aig_print, get_flow(job.flow).fingerprint())

    def _map_batch_keys(
        self, jobs: Sequence[MapJob]
    ) -> tuple[dict[MapJob, str], dict[str, Aig]]:
        """:meth:`map_job_key` of every job, generating and hashing each
        benchmark registered at run time and fingerprinting each flow once
        per batch; also returns those generated raw AIGs by benchmark.
        Built-in benchmarks are neither generated nor hashed."""
        sources: dict[str, Aig] = {}
        aig_prints: dict[str, str | None] = {}
        flow_prints: dict[str, str] = {}
        keys: dict[MapJob, str] = {}
        for job in jobs:
            if job.benchmark not in aig_prints:
                aig_prints[job.benchmark] = None
                if job.benchmark not in _BUILTIN_BENCHMARKS:
                    sources[job.benchmark] = benchmark_by_name(job.benchmark).build()
                    aig_prints[job.benchmark] = aig_fingerprint(sources[job.benchmark])
            if job.flow not in flow_prints:
                flow_prints[job.flow] = get_flow(job.flow).fingerprint()
            keys[job] = _map_key(
                job, aig_prints[job.benchmark], flow_prints[job.flow]
            )
        return keys, sources

    def run_map_jobs(self, jobs: Sequence[MapJob]) -> dict[MapJob, MapJobResult]:
        """Run mapping jobs (cache first, then processes) and decode results."""

        def prepare_parallel(pending: list) -> list[list[int]]:
            # Build every required library matcher before the workers fork
            # so they inherit the warm caches instead of each paying the
            # (expensive) matcher construction on their own.  The claim
            # order needs every pending subject's raw size, so the built-in
            # benchmarks the key pass skipped are generated here.  Subjects
            # are built (flow, cuts) by the workers that claim them.
            with obs.span(
                "prepare-parallel", category="engine", pending=len(pending)
            ):
                for family in {job.family for job in pending}:
                    matcher_for(build_library(family))
                for name in {job.benchmark for job in pending} - _BATCH_SOURCES.keys():
                    _BATCH_SOURCES[name] = benchmark_by_name(name).build()
                return _subject_schedule(pending, _BATCH_SOURCES)

        with obs.span("run_map_jobs", category="engine", jobs=len(jobs)):
            with obs.span("cache-keys", category="engine") as key_span:
                keys, sources = self._map_batch_keys(jobs)
                key_span.set("built", len(sources))
            # The batch's jobs run their flows on the raw AIGs generated
            # here rather than generating them again (see _subject_aig); the
            # handoff holds the only reference, so a consumed AIG is freed.
            _BATCH_SOURCES.update(sources)
            del sources
            try:
                raw = self._run_jobs(
                    _run_map_job,
                    list(jobs),
                    keys,
                    prepare_parallel=prepare_parallel,
                    initializer=_pool_initializer,
                    initargs=(obs.worker_config(),),
                )
            finally:
                _BATCH_SOURCES.clear()
        results: dict[MapJob, MapJobResult] = {}
        for job, (payload, cached) in raw.items():
            results[job] = MapJobResult(
                job=job,
                stats=MappingStats(**payload["stats"]),
                power=PowerStats(**payload["power"]),
                aig_nodes=int(payload["aig_nodes"]),
                aig_depth=int(payload["aig_depth"]),
                cached=cached,
            )
        return results

    def run_table3(
        self,
        benchmark_names: tuple[str, ...] | None = None,
        families: tuple[LogicFamily, ...] = TABLE3_FAMILIES,
        objective: str = "delay",
        flow: str = DEFAULT_FLOW,
        power_vectors: int = DEFAULT_VECTORS,
        power_seed: int = DEFAULT_SEED,
        rounds: int = 0,
        recovery: str = "auto",
    ) -> Table3Result:
        """Regenerate Table 3 through the job engine.

        ``flow`` names the registered technology-independent flow run before
        mapping (``"none"`` maps the unoptimized subject); an unknown name
        raises ``KeyError`` from the key pass, before any job runs.
        ``rounds``/``recovery`` select the mapper's required-time recovery
        configuration (``--map-rounds`` / ``--map-recovery`` on the runner).
        """
        cases = _resolve_cases(benchmark_names)

        def job_for(case_name: str, family: LogicFamily) -> MapJob:
            return MapJob(
                case_name,
                family,
                objective=objective,
                flow=flow,
                power_vectors=power_vectors,
                power_seed=power_seed,
                rounds=rounds,
                recovery=recovery,
            )

        jobs = [job_for(case.name, family) for case in cases for family in families]
        by_job = self.run_map_jobs(jobs)

        result = Table3Result(
            flow=flow, objective=objective, rounds=rounds, recovery=recovery
        )
        for case in cases:
            stats: dict[LogicFamily, MappingStats] = {}
            power: dict[LogicFamily, PowerStats] = {}
            aig_nodes = aig_depth = 0
            for family in families:
                job_result = by_job[job_for(case.name, family)]
                stats[family] = job_result.stats
                power[family] = job_result.power
                aig_nodes = job_result.aig_nodes
                aig_depth = job_result.aig_depth
            result.rows.append(
                Table3Row(
                    name=case.name,
                    function=case.function,
                    aig_nodes=aig_nodes,
                    aig_depth=aig_depth,
                    results=stats,
                    paper=_paper_row(case.name),
                    power=power,
                )
            )
        return result

    # -- characterization jobs (Table 2) ------------------------------------

    def characterization_job_key(self, job: CharacterizationJob) -> str:
        """Provenance cache key of one Table-2 job: code digest and family."""
        material = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "kind": "table2",
                "code": code_digest(),
                "family": job.family.value,
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def run_table2(
        self, families: tuple[LogicFamily, ...] = TABLE2_FAMILIES
    ) -> Table2Result:
        """Regenerate Table 2 through the job engine."""
        jobs = [CharacterizationJob(family) for family in families]
        with obs.span("run_table2", category="engine", jobs=len(jobs)):
            keys = {job: self.characterization_job_key(job) for job in jobs}
            raw = self._run_jobs(
                _run_characterization_job,
                jobs,
                keys,
                initializer=_pool_initializer,
                initargs=(obs.worker_config(),),
            )

        rows: dict[LogicFamily, tuple[CellCharacterization, ...]] = {}
        summaries: dict[LogicFamily, FamilySummary] = {}
        paper_rows: dict[LogicFamily, dict] = {}
        paper_averages: dict[LogicFamily, object] = {}
        for job in jobs:
            payload, _cached = raw[job]
            rows[job.family] = tuple(
                CellCharacterization(**row) for row in payload["rows"]
            )
            summaries[job.family] = FamilySummary(**payload["summary"])
            key = FAMILY_KEYS[job.family]
            paper_rows[job.family] = {
                function_id: columns[key]
                for function_id, columns in PAPER_TABLE2.items()
                if key in columns
            }
            paper_averages[job.family] = PAPER_TABLE2_AVERAGES[key]
        return Table2Result(
            rows=rows,
            summaries=summaries,
            paper_rows=paper_rows,
            paper_averages=paper_averages,
        )

    # -- figure 6 ------------------------------------------------------------

    def run_figure6(
        self, benchmark_names: tuple[str, ...] | None = None
    ) -> Figure6Result:
        """Regenerate the Figure-6 series (reuses the Table-3 job results)."""
        return figure6_from_table3(self.run_table3(benchmark_names=benchmark_names))

    # -- pareto fronts -------------------------------------------------------

    def run_pareto(self, benchmark_names: tuple[str, ...] | None = None, **kwargs):
        """Per-benchmark area/delay/power Pareto fronts across the families.

        Thin wrapper over :func:`repro.experiments.pareto.run_pareto` bound
        to this engine; see that module for the family/objective knobs.
        """
        from repro.experiments.pareto import run_pareto

        return run_pareto(benchmark_names=benchmark_names, engine=self, **kwargs)

    # -- artifacts -----------------------------------------------------------

    def write_artifacts(
        self,
        directory: Path | str,
        table2: Table2Result | None = None,
        table3: Table3Result | None = None,
        figure6: Figure6Result | None = None,
        pareto=None,
    ) -> list[Path]:
        """Write JSON artifacts for the given results; returns written paths."""
        from repro.experiments.pareto import pareto_payload

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        payloads = {
            "table2.json": table2_payload(table2) if table2 else None,
            "table3.json": table3_payload(table3) if table3 else None,
            "figure6.json": figure6_payload(figure6) if figure6 else None,
            "pareto.json": pareto_payload(pareto) if pareto else None,
        }
        for filename, payload in payloads.items():
            if payload is None:
                continue
            path = directory / filename
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            written.append(path)
        return written


def table2_payload(result: Table2Result) -> dict:
    """JSON-ready view of a Table-2 result."""
    return {
        "families": {
            family.value: {
                "summary": asdict(result.summaries[family]),
                "cells": [asdict(row) for row in result.rows[family]],
            }
            for family in result.summaries
        }
    }


def table3_payload(result: Table3Result) -> dict:
    """JSON-ready view of a Table-3 result.

    The recovery metadata is only emitted for recovered runs: round-0
    payloads stay byte-identical to the pre-recovery format so archived
    artifacts remain directly comparable.
    """
    payload = {
        "flow": result.flow,
        "objective": result.objective,
        "rows": [
            {
                "name": row.name,
                "function": row.function,
                "aig_nodes": row.aig_nodes,
                "aig_depth": row.aig_depth,
                "results": {
                    family.value: asdict(stats)
                    for family, stats in row.results.items()
                },
                "power": {
                    family.value: asdict(stats)
                    for family, stats in row.power.items()
                },
            }
            for row in result.rows
        ],
        "average_improvements": {
            family.value: {
                metric: result.average_improvement(family, metric)
                for metric in ("gates", "area", "levels", "normalized_delay")
            }
            for family in (LogicFamily.TG_STATIC, LogicFamily.TG_PSEUDO)
            if result.rows and family in result.rows[0].results
        },
        "average_speedups": {
            family.value: result.average_speedup(family)
            for family in (LogicFamily.TG_STATIC, LogicFamily.TG_PSEUDO)
            if result.rows and family in result.rows[0].results
        },
    }
    if result.rounds:
        payload["map_rounds"] = result.rounds
        payload["map_recovery"] = result.recovery
    return payload


def figure6_payload(result: Figure6Result) -> dict:
    """JSON-ready view of a Figure-6 result."""
    return {
        "series": result.series(),
        "average_static_speedup": result.average_static_speedup,
        "average_pseudo_speedup": result.average_pseudo_speedup,
        "paper_average_static_speedup": result.paper_average_static_speedup,
        "paper_average_pseudo_speedup": result.paper_average_pseudo_speedup,
    }
