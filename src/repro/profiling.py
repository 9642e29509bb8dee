"""Opt-in per-stage wall-clock accounting for the synthesis pipeline.

The runner's ``--profile`` flag enables a process-global accumulator; the
pipeline stages -- ``optimize`` (technology-independent flow), ``cuts``
(enumeration), ``match`` (candidate tables and prices), ``dp`` (one DP
solve), ``cover`` (one cover with its timing, cost and reference counts)
and ``verify`` (mapped-netlist equivalence check) -- wrap their hot sections in
:func:`stage`, which is a no-op costing one attribute read when profiling is
disabled.  :func:`snapshot` returns the accumulated seconds and entry counts
for the JSON report, so future performance work can attribute wins per stage.

Since the unified observability layer landed this module is a thin shim over
:mod:`repro.obs.tracer`: the same ``stage``/``count`` call sites feed both
the flat ``--profile`` report and, when tracing is enabled, the hierarchical
span buffer behind ``--trace``/``--metrics-out``.  The API and the snapshot
shape are unchanged, and the disabled path is still one attribute read.
"""

from __future__ import annotations

from repro.obs import tracer as _tracer

#: Re-exported tracer primitives: ``stage`` times a section (and records a
#: span in trace mode); ``count`` bumps a named event counter.  See
#: :mod:`repro.obs.tracer` for their contracts.
stage = _tracer.stage
count = _tracer.count


def enable(reset: bool = True) -> None:
    """Turn the accumulator on (optionally clearing previous figures)."""
    _tracer.enable_profile(reset=reset)


def disable() -> None:
    _tracer.disable_profile()


def active() -> bool:
    """True when ``--profile`` stage accounting is on.

    Deliberately *not* true in trace-only mode: call sites that gate extra
    attribution work (the engine's verify stage) on :func:`active` must not
    change a traced run's behaviour.
    """
    return _tracer.profile_active()


def snapshot() -> dict:
    """The accumulated per-stage figures (stable key order)."""
    return _tracer.profile_snapshot()
