"""The host-speed reference the benchmark times between the processes it
measures.

The shared hosts the benchmark runs on change speed by up to 2.5x for
minutes at a time.  The CPU time charged to a process grows with its wall
time, and small pure-Python code (the program's set-up) slows as much as
its numpy-heavy mapping, so raw seconds of identical runs can differ by
more than any useful bound.  ``run.py`` therefore also times this fixed
computation (standard library and numpy only, independent of the program)
before the first process it measures and after each one, and rescales the
run's seconds to the speed at which one reference takes ``REF_S``: a
change to the program moves the rescaled figures, a change in the host's
speed cancels out of them.

The mix follows the program's hot code: Python loops over integer node
data with dict and tuple churn, and numpy sorts, uniques and gathers over
arrays of a mapped netlist's size.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: Seconds one reference takes at the speed all reported times are scaled
#: to: about its mean on the 2-vCPU Xeon VM (2.1 GHz) the benchmark was
#: written on, under that host's usual load.
REF_S = 0.04

#: Reference runs in each window between measured processes, at least.
#: The host's speed during one run of the benchmark is taken from the mean
#: of all of them.
REF_RUNS = 16

#: A window after a measured process lasts at least this share of that
#: process's time: the host's speed wanders from second to second, so a
#: long process needs a long window to be compared with.
REF_SHARE = 0.15

_SIZE = 1 << 14


def _work() -> int:
    values = np.random.default_rng(2009).integers(0, 1 << 16, size=_SIZE)
    digest = 0
    for shift in range(3):
        unique, inverse = np.unique(values >> shift, return_inverse=True)
        order = np.argsort(values ^ (values >> (shift + 3)), kind="stable")
        digest ^= int(unique[inverse[order]][:: 1 << 6].sum())
    memo: dict = {}
    fanout: list = []
    for round_ in range(3):
        for node, value in enumerate(values.tolist()):
            key = (value & 0x3FF, (value >> 10) ^ round_)
            memo[key] = memo.get(key, node) ^ node
            if value & 7 == round_:
                fanout.append((node, key))
    return digest ^ len(memo) ^ len(fanout)


def time_reference(samples: dict[str, list[float]], seconds: float = 0.0) -> None:
    """Run the reference ``REF_RUNS`` times, and again while fewer than
    ``seconds`` have passed, appending each run's wall and CPU seconds to
    ``samples["wall_s"]`` and ``samples["cpu_s"]``.

    The garbage collector is paused meanwhile: a collection would traverse
    the caller's heap and tie the reference's time to its size.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs, end = 0, time.perf_counter() + seconds
        while runs < REF_RUNS or time.perf_counter() < end:
            wall, cpu = time.perf_counter(), time.process_time()
            _work()
            samples.setdefault("cpu_s", []).append(time.process_time() - cpu)
            samples.setdefault("wall_s", []).append(time.perf_counter() - wall)
            runs += 1
    finally:
        if enabled:
            gc.enable()
