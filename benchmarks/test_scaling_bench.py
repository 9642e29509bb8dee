"""Scalability lane: mapping time on circuits larger than the Table-3 set.

The Table-3 benchmarks are sized for the paper reproduction; this lane maps
bigger instances of the same generator families -- a 16-bit array multiplier,
a 32-bit dedicated ALU and a two-round DES block -- at K=4 and K=6 so the
nightly ``scaling_bench.json`` artifact tracks how the vectorized cut
pipeline and the mapping DP behave as node count and cut pressure grow.
A recovery lane maps the multiplier and the DES block at K=6 with one
required-time recovery round and a warm cut memo, so it times the DP
solves and the covers with their static timing.  Each mapping is
additionally spot-verified against the subject AIG on a deterministic
packed pattern set.
"""

import random

import pytest

from repro.bench.generators.alu import dedicated_alu_circuit
from repro.bench.generators.des import des_round_circuit
from repro.bench.generators.multiplier import array_multiplier_circuit
from repro.core.families import LogicFamily
from repro.synthesis.mapper import map_rounds, technology_map, verify_mapping

pytestmark = pytest.mark.slow

SCALING_CIRCUITS = {
    "mult-16": lambda: array_multiplier_circuit(width=16, name="mult-16"),
    "alu-32": lambda: dedicated_alu_circuit(data_width=32, seed=2026, name="alu-32"),
    "des-2r": lambda: des_round_circuit(
        block_width=64, rounds=2, seed=1977, name="des-2r"
    ),
}


@pytest.fixture(scope="module")
def scaling_aigs():
    return {name: build() for name, build in SCALING_CIRCUITS.items()}


def _cold_map(aig, library, matcher, objective, max_inputs):
    """Map with the per-AIG cut-set memo dropped, so every benchmark round
    pays for cut enumeration (the memo would otherwise make rounds 2..N
    measure only the DP and hide cut-pipeline regressions)."""
    aig.__dict__.pop("_cut_sets", None)
    return technology_map(
        aig, library, matcher=matcher, objective=objective, max_inputs=max_inputs
    )


def _verify(aig, mapped, label):
    seed = random.Random(f"scaling:{label}")
    patterns = {
        pi: [seed.getrandbits(64) for _ in range(2)] for pi in aig.pi_names
    }
    assert verify_mapping(mapped, aig, patterns)


@pytest.mark.parametrize("name", sorted(SCALING_CIRCUITS))
@pytest.mark.parametrize("max_inputs", [4, 6])
def test_bench_scaling_map(benchmark, libraries, matchers, scaling_aigs, name, max_inputs):
    """Technology-map one oversized circuit at the given K (timed cold)."""
    aig = scaling_aigs[name]
    family = LogicFamily.TG_STATIC
    mapped = benchmark(
        _cold_map,
        aig,
        libraries[family],
        matchers[family],
        "delay",
        max_inputs,
    )
    assert mapped.gate_count > 0
    assert mapped.levels > 0
    _verify(aig, mapped, f"{name}:{max_inputs}")


@pytest.mark.parametrize("name", ["des-2r", "mult-16"])
def test_bench_scaling_recovery(benchmark, libraries, matchers, scaling_aigs, name):
    """One recovery round at K=6 on an oversized circuit, cut memo warm (the
    warm-up round fills it): the DP solves plus every cover and its timing."""
    aig = scaling_aigs[name]
    family = LogicFamily.TG_STATIC
    result = benchmark.pedantic(
        map_rounds,
        args=(aig, libraries[family]),
        kwargs={"matcher": matchers[family], "max_inputs": 6, "rounds": 1},
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert len(result.rounds) == 2
    assert result.final.normalized_delay <= result.rounds[0].normalized_delay + 1e-9
    _verify(aig, result.final, f"{name}:recovery")
