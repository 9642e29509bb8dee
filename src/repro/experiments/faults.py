"""Deterministic fault injection for the experiment engine (chaos harness).

The resilience layer (:mod:`repro.experiments.resilience`) is only worth
trusting if its failure paths are exercised on purpose.  This module defines
a seeded, declarative :class:`FaultPlan` that the chaos suite installs into
worker processes to make a specific bad thing happen at a specific point:

* **worker kill** -- the worker executing the plan's target job dies with
  ``os._exit`` (the moral equivalent of an OOM kill), breaking the pool;
* **job delay** -- the target job sleeps past its wall-clock budget,
  driving the timeout/slot-rebuild path;
* **cache corruption** -- :func:`corrupt_file` deterministically truncates
  or bit-flips an on-disk cache entry, driving the quarantine path.

Plans travel to workers through the environment (``REPRO_FAULT_PLAN`` holds
the JSON form; the engine's pool initializer calls
:func:`install_from_env`), so they survive both ``fork`` and ``spawn``
start methods.  The parent process never installs a plan from the
environment, which keeps the deterministic in-process fallback fault-free
by construction -- exactly the degradation contract the engine promises.

Faults that must strike *once per run* rather than once per worker (a
worker kill re-fires forever otherwise: the replacement worker sees the
same ordinal) are latched through ``once_dir``, a spool directory where the
first worker to claim a fault id wins via ``O_CREAT | O_EXCL``.  The same
spool doubles as the execution ledger: :func:`on_job_start` appends one
record per job execution, which is how the chaos tests prove that already
finished jobs are never rerun after a mid-batch crash.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from random import Random

#: Environment variable carrying the JSON form of the active plan.
ENV_VAR = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault schedule.

    ``kill_job`` / ``delay_job`` name the 0-based job-execution ordinal
    (per worker process) whose execution triggers the fault; both are
    latched through ``once_dir`` so they strike once per run.  ``seed``
    drives every derived random stream (:meth:`rng`, :func:`corrupt_file`).
    """

    seed: int = 0
    kill_job: int | None = None
    delay_job: int | None = None
    delay_seconds: float = 0.0
    once_dir: str | None = None
    #: Exit status of an injected worker kill (distinctive in core dumps
    #: and logs; anything nonzero breaks the pool the same way).
    kill_status: int = 17

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        data = json.loads(raw)
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        return cls(**data)

    def rng(self, tag: str) -> Random:
        """A deterministic random stream scoped to ``tag``."""
        return Random(f"{self.seed}:{tag}")


_PLAN: FaultPlan | None = None
_JOB_ORDINAL = 0


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` in this process (``None`` clears it)."""
    global _PLAN, _JOB_ORDINAL
    _PLAN = plan
    _JOB_ORDINAL = 0


def install_from_env(environ=None) -> None:
    """Install the plan carried by ``REPRO_FAULT_PLAN``, if any.

    Called from the engine's pool initializer, i.e. only ever in worker
    processes.  A malformed plan is ignored rather than letting a chaos
    knob break a production run.
    """
    env = os.environ if environ is None else environ
    raw = env.get(ENV_VAR)
    if not raw:
        return
    try:
        install(FaultPlan.from_json(raw))
    except (ValueError, TypeError):  # pragma: no cover - malformed plan
        install(None)


def active_plan() -> FaultPlan | None:
    return _PLAN


def claim_once(directory: str | os.PathLike, fault_id: str) -> bool:
    """Cross-process once-latch: True for exactly one claimant of ``fault_id``."""
    path = Path(directory) / f"{fault_id}.fired"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False  # unusable spool: fail safe, do not fire
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
    finally:
        os.close(fd)
    return True


def _claim(plan: FaultPlan, fault_id: str) -> bool:
    if plan.once_dir is None:
        return True
    return claim_once(plan.once_dir, fault_id)


def _record_execution(plan: FaultPlan, tag: str) -> None:
    if plan.once_dir is None or not tag:
        return
    ledger = Path(plan.once_dir) / "executions"
    try:
        ledger.mkdir(exist_ok=True)
        # One uniquely named file per execution: concurrent workers never
        # contend, and readers just count files per tag.
        name = f"{tag}--{os.getpid()}-{_JOB_ORDINAL}-{time.monotonic_ns():x}"
        (ledger / name).touch()
    except OSError:  # pragma: no cover - unusable spool
        pass


def execution_counts(once_dir: str | os.PathLike) -> dict[str, int]:
    """Per-tag job-execution counts recorded under ``once_dir``."""
    ledger = Path(once_dir) / "executions"
    counts: dict[str, int] = {}
    if not ledger.is_dir():
        return counts
    for entry in ledger.iterdir():
        tag = entry.name.rsplit("--", 1)[0]
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def on_job_start(tag: str = "") -> None:
    """Engine hook: fired by workers at the start of every job execution.

    A no-op unless a plan is installed in this process.  May kill the
    process (``kill_job``) or stall it (``delay_job``); always records the
    execution in the ledger first, so a killed execution is still counted.
    """
    global _JOB_ORDINAL
    plan = _PLAN
    if plan is None:
        return
    ordinal = _JOB_ORDINAL
    _JOB_ORDINAL += 1
    _record_execution(plan, tag)
    if (
        plan.kill_job is not None
        and ordinal >= plan.kill_job
        and _claim(plan, "kill")
    ):
        os._exit(plan.kill_status)
    if (
        plan.delay_job is not None
        and ordinal >= plan.delay_job
        and plan.delay_seconds > 0
        and _claim(plan, "delay")
    ):
        time.sleep(plan.delay_seconds)


def corrupt_file(path: str | os.PathLike, seed: int = 0, mode: str = "flip") -> None:
    """Deterministically damage a file (cache-corruption fault).

    ``mode="truncate"`` keeps the first half of the file; ``mode="flip"``
    flips a seeded selection of bits in place.  Both leave the file present
    so the reader must *detect* the damage rather than miss on ENOENT.
    """
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
        return
    if mode != "flip":
        raise ValueError(f"unknown corruption mode {mode!r}")
    if not data:
        return
    blob = bytearray(data)
    rng = Random(f"{seed}:{path.name}")
    for _ in range(max(1, len(blob) // 64)):
        position = rng.randrange(len(blob))
        blob[position] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(blob))
