"""The cost-model mapping core and the multi-round recovery driver.

Three layers of guarantees:

* **Round-0 bit-identity.**  The refactor from the monolithic single-pass
  ``technology_map`` to the CostModel/candidate-table engine must not change
  a single selected gate: the golden digests below were captured from the
  pre-refactor mapper for every (benchmark, family, objective) probe at
  K=6 and K=4 and pin the mapped netlist gate for gate.
* **Recovery bit-identity.**  The recovered netlists are pinned too: every
  round's digest and ``accepted`` flag of a ``rounds=3`` run, for both fast
  benchmarks under every objective on a CNTFET and the CMOS library.
* **Recovery safety.**  However many rounds run, the final circuit is never
  slower than round 0 and never costlier on the recovered axis, and every
  intermediate round's netlist stays functionally equivalent to the subject
  AIG (checked both on fixed benchmarks and on hypothesis-generated random
  circuits).
* **Cost-model registry.**  The objective vocabulary is pluggable and
  validated.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.registry import benchmark_by_name
from repro.core import LogicFamily, build_library
from repro.flow import run_flow
from repro.logic.simulation import random_pattern_words
from repro.synthesis.aig import Aig
from repro.synthesis.cost import (
    AreaFlowCost,
    DelayCost,
    PowerFlowCost,
    available_objectives,
    cost_model_for,
    resolve_recovery,
)
from repro.synthesis.mapper import map_rounds, technology_map, verify_mapping
from repro.synthesis.matcher import matcher_for

# Golden round-0 netlist digests captured from the pre-refactor single-pass
# mapper: sha256 over the sorted gates' (output, cell, leaves, table,
# inverted) records, plus (gates, area, levels, normalized_delay).  Keys are
# "benchmark|family|objective"; subjects are the resyn2rs-optimized AIGs.
GOLDEN_K6 = {
    "C1908|cmos-static|area": (
        "031b81e73bc0224407dfa9ddaacb908b1c5da27e1afd0cc4744368273bc06586",
        424, 3406.0, 41, 172.666666667,
    ),
    "C1908|cmos-static|delay": (
        "13af992f7999aef824dc5b6427237f2fa98d59413d15b294da6263d992ce4640",
        306, 4471.0, 22, 168.333333333,
    ),
    "C1908|cmos-static|power": (
        "15ffb1c4a27b0cb0e1110d356f2dc7cdcd393318cbfa991352a2b59d41a06e49",
        392, 3406.0, 41, 174.444444444,
    ),
    "C1908|cntfet-tg-pseudo|area": (
        "e683585f1263c6d870ef4ea7e120a6f57426b9ea8c9d462f3a1527bec234e824",
        180, 434.222222222, 22, 66.171875,
    ),
    "C1908|cntfet-tg-pseudo|delay": (
        "dadfa0f2c16fcf18e2ebcb571726d9a144ae48549155a7255abe13c0bf60bbdc",
        166, 443.333333333, 20, 60.835069444,
    ),
    "C1908|cntfet-tg-pseudo|power": (
        "e683585f1263c6d870ef4ea7e120a6f57426b9ea8c9d462f3a1527bec234e824",
        180, 434.222222222, 22, 66.171875,
    ),
    "C1908|cntfet-tg-static|area": (
        "4b2108e0bbe666b4d45c24da38dfa34534ecf5ad889b21650dfbe1f9dc66692a",
        180, 685.333333333, 22, 63.5,
    ),
    "C1908|cntfet-tg-static|delay": (
        "ea6f17b27356f7423401a1e5f75ad82cd824345e5f3753249e15a1e616d1c69b",
        166, 809.333333333, 20, 56.333333333,
    ),
    "C1908|cntfet-tg-static|power": (
        "b81945dbdd6af04f36f1b939f1b5dfcafb417a1b9efe77c00e9e999611c6f047",
        182, 685.333333333, 22, 65.5,
    ),
    "add-16|cmos-static|area": (
        "3cc5e6ab35f7c7f13e315d5ed12efff786b2ebbbaba7b47bc767245f6275ae91",
        128, 1152.0, 19, 146.0,
    ),
    "add-16|cmos-static|delay": (
        "ce4f5cea2479e2b5a17dacad00e92287e378a045b46f37cf86fa6115541286a9",
        143, 1679.0, 18, 133.444444444,
    ),
    "add-16|cmos-static|power": (
        "12c19fc1b034cfbe5c7a57bd61bc2cdebc75172a74229ee4827ec7767b792784",
        144, 1152.0, 34, 156.0,
    ),
    "add-16|cntfet-tg-pseudo|area": (
        "51eccee26cd2b821d1851bcbb0cdef55bd84c67985d5408aa7afd264da8eabd0",
        80, 218.666666667, 32, 122.067708333,
    ),
    "add-16|cntfet-tg-pseudo|delay": (
        "9e455c23bb2c542a95bc82ec3768894646e8f6cf9260e4291975d61393be3d4a",
        65, 240.333333333, 17, 114.819444444,
    ),
    "add-16|cntfet-tg-pseudo|power": (
        "51eccee26cd2b821d1851bcbb0cdef55bd84c67985d5408aa7afd264da8eabd0",
        80, 218.666666667, 32, 122.067708333,
    ),
    "add-16|cntfet-tg-static|area": (
        "97b501b117550dc9abefe5bad8c241e0144648b9dd582d8ef84df38490461700",
        64, 357.333333333, 17, 100.333333333,
    ),
    "add-16|cntfet-tg-static|delay": (
        "a8f2feb47fd944970bbaf3fcf11383edb98e3134929f24e49536dc34ad04c705",
        65, 379.333333333, 17, 95.875,
    ),
    "add-16|cntfet-tg-static|power": (
        "5e6f649a16938812fa80d519c2960ce53f6215a4071972b730a3bd3d29fd66b3",
        64, 357.333333333, 25, 128.333333333,
    ),
    "dalu|cmos-static|area": (
        "20f7f74de69c4ad8a7ebcbbbceb390b43e2fccb291825dd33f2c33b0c50a0a74",
        287, 3289.0, 19, 151.333333333,
    ),
    "dalu|cmos-static|delay": (
        "3bfd78a7d419fb74a17b5cb57ba2b5756ffcce312dee828b764f4e2adc9a7ee1",
        358, 4524.0, 18, 135.111111111,
    ),
    "dalu|cmos-static|power": (
        "dab61ae99ee2b4db96314c31c91df45eaf92fc56b5f858faa66ab7d0c5ec22f0",
        352, 3326.0, 33, 159.777777778,
    ),
    "dalu|cntfet-tg-pseudo|area": (
        "7002e2d6c5e08e35d55e70af7192b78fdfba2c7c95edaa4ae8d372ff4389fac1",
        253, 884.777777778, 33, 128.40625,
    ),
    "dalu|cntfet-tg-pseudo|delay": (
        "00e17ee2a36ebd88b7897841351257a0bd54c948cfcf7296250a94733db7e828",
        251, 1117.444444444, 17, 106.590277778,
    ),
    "dalu|cntfet-tg-pseudo|power": (
        "dece37cbf6c9314511fd486100662193de0b0d9bc97c669e7d2c3f8308a90545",
        253, 888.777777778, 33, 128.399305556,
    ),
    "dalu|cntfet-tg-static|area": (
        "a7c5eb8645332eacfa41c79d2727496737a5cce9d88644bcbc387542522a70cd",
        202, 1705.0, 18, 106.5,
    ),
    "dalu|cntfet-tg-static|delay": (
        "1f21dd336aba427c29516d08aec5d56a4f9a05b75c1bb18245041740be0f7823",
        248, 2271.666666667, 17, 95.916666667,
    ),
    "dalu|cntfet-tg-static|power": (
        "e2613f1d94c01c173daa161373952b6e8d7b9f2a317ae1a83c0d05c6db82ed8d",
        237, 1736.333333333, 20, 110.333333333,
    ),
    "t481|cmos-static|area": (
        "4ea6ab0a095b72cb5c0813cdfc3dd7f004c11bcb8d22e26a7bcfb2f8541976d7",
        159, 1390.0, 18, 92.444444444,
    ),
    "t481|cmos-static|delay": (
        "b1c91457da406eb2e0196d6432892c9a6af9a130b941fe026e692fbe8a501b57",
        161, 1577.0, 16, 88.888888889,
    ),
    "t481|cmos-static|power": (
        "323f87f648565ab5391ca4bfabc4fd6bcf61fb135f53ffd4c6302b5bee332124",
        168, 1390.0, 21, 102.444444444,
    ),
    "t481|cntfet-tg-pseudo|area": (
        "0d7c5880846776ef72fa53ffa326d8a7ec6775d4e3411d828b4eb642e17ff491",
        97, 268.333333333, 15, 56.237847222,
    ),
    "t481|cntfet-tg-pseudo|delay": (
        "2052b7b2dd7d4ccbc59a363b0b768c8d4c199f98c2eecc8ab1f981bb8986fba6",
        93, 294.555555556, 12, 63.274305556,
    ),
    "t481|cntfet-tg-pseudo|power": (
        "00f3c3272f3307e4c2eba2a3bec9aa3bbf61e690d016fbeaf7158d2a61db4d6c",
        94, 271.333333333, 15, 59.842013889,
    ),
    "t481|cntfet-tg-static|area": (
        "7ea433a32fd23c4ac272b99459dc52c341f5d98d0ccccf765d659067bae04138",
        84, 461.666666667, 12, 50.0,
    ),
    "t481|cntfet-tg-static|delay": (
        "b9c35ac7df67b4de191c3f68389265179b96b35558cb8537e479a8d401429a86",
        88, 512.0, 11, 58.416666667,
    ),
    "t481|cntfet-tg-static|power": (
        "bdde9f0f329b392790b1ed14c994c1f4afa09a2df3b2c501b12d1be4dc678eeb",
        92, 478.666666667, 15, 59.0,
    ),
}

GOLDEN_K4 = {
    "add-16|cmos-static|area": (
        "3cc5e6ab35f7c7f13e315d5ed12efff786b2ebbbaba7b47bc767245f6275ae91",
        128, 1152.0, 19, 146.0,
    ),
    "add-16|cmos-static|delay": (
        "ce4f5cea2479e2b5a17dacad00e92287e378a045b46f37cf86fa6115541286a9",
        143, 1679.0, 18, 133.444444444,
    ),
    "add-16|cmos-static|power": (
        "12c19fc1b034cfbe5c7a57bd61bc2cdebc75172a74229ee4827ec7767b792784",
        144, 1152.0, 34, 156.0,
    ),
    "add-16|cntfet-tg-pseudo|area": (
        "51eccee26cd2b821d1851bcbb0cdef55bd84c67985d5408aa7afd264da8eabd0",
        80, 218.666666667, 32, 122.067708333,
    ),
    "add-16|cntfet-tg-pseudo|delay": (
        "9e455c23bb2c542a95bc82ec3768894646e8f6cf9260e4291975d61393be3d4a",
        65, 240.333333333, 17, 114.819444444,
    ),
    "add-16|cntfet-tg-pseudo|power": (
        "51eccee26cd2b821d1851bcbb0cdef55bd84c67985d5408aa7afd264da8eabd0",
        80, 218.666666667, 32, 122.067708333,
    ),
    "add-16|cntfet-tg-static|area": (
        "97b501b117550dc9abefe5bad8c241e0144648b9dd582d8ef84df38490461700",
        64, 357.333333333, 17, 100.333333333,
    ),
    "add-16|cntfet-tg-static|delay": (
        "a8f2feb47fd944970bbaf3fcf11383edb98e3134929f24e49536dc34ad04c705",
        65, 379.333333333, 17, 95.875,
    ),
    "add-16|cntfet-tg-static|power": (
        "5e6f649a16938812fa80d519c2960ce53f6215a4071972b730a3bd3d29fd66b3",
        64, 357.333333333, 25, 128.333333333,
    ),
    "t481|cmos-static|area": (
        "4ea6ab0a095b72cb5c0813cdfc3dd7f004c11bcb8d22e26a7bcfb2f8541976d7",
        159, 1390.0, 18, 92.444444444,
    ),
    "t481|cmos-static|delay": (
        "b1c91457da406eb2e0196d6432892c9a6af9a130b941fe026e692fbe8a501b57",
        161, 1577.0, 16, 88.888888889,
    ),
    "t481|cmos-static|power": (
        "323f87f648565ab5391ca4bfabc4fd6bcf61fb135f53ffd4c6302b5bee332124",
        168, 1390.0, 21, 102.444444444,
    ),
    "t481|cntfet-tg-pseudo|area": (
        "0d7c5880846776ef72fa53ffa326d8a7ec6775d4e3411d828b4eb642e17ff491",
        97, 268.333333333, 15, 56.237847222,
    ),
    "t481|cntfet-tg-pseudo|delay": (
        "2052b7b2dd7d4ccbc59a363b0b768c8d4c199f98c2eecc8ab1f981bb8986fba6",
        93, 294.555555556, 12, 63.274305556,
    ),
    "t481|cntfet-tg-pseudo|power": (
        "00f3c3272f3307e4c2eba2a3bec9aa3bbf61e690d016fbeaf7158d2a61db4d6c",
        94, 271.333333333, 15, 59.842013889,
    ),
    "t481|cntfet-tg-static|area": (
        "7ea433a32fd23c4ac272b99459dc52c341f5d98d0ccccf765d659067bae04138",
        84, 461.666666667, 12, 50.0,
    ),
    "t481|cntfet-tg-static|delay": (
        "b9c35ac7df67b4de191c3f68389265179b96b35558cb8537e479a8d401429a86",
        88, 512.0, 11, 58.416666667,
    ),
    "t481|cntfet-tg-static|power": (
        "bdde9f0f329b392790b1ed14c994c1f4afa09a2df3b2c501b12d1be4dc678eeb",
        92, 478.666666667, 15, 59.0,
    ),
}

# Golden recovery runs at K=6, ``rounds=3``: every round's netlist digest (as
# in GOLDEN_K6, round 0 first) and the ``accepted`` flags of
# ``MappingResult``.  Keys are "benchmark|family|objective"; recovery is
# ``"auto"`` (area for delay/area, power for power).
GOLDEN_RECOVERY = {
    "add-16|cmos-static|area": (
        (
            "3cc5e6ab35f7c7f13e315d5ed12efff786b2ebbbaba7b47bc767245f6275ae91",
            "3cc5e6ab35f7c7f13e315d5ed12efff786b2ebbbaba7b47bc767245f6275ae91",
        ),
        (True, True),
    ),
    "add-16|cmos-static|delay": (
        (
            "ce4f5cea2479e2b5a17dacad00e92287e378a045b46f37cf86fa6115541286a9",
            "61c6b4a9f4e7c893bcd50cdad7c8934080188d6715a3edf32d2a9b945deaa88f",
        ),
        (True, False),
    ),
    "add-16|cmos-static|power": (
        (
            "12c19fc1b034cfbe5c7a57bd61bc2cdebc75172a74229ee4827ec7767b792784",
            "12c19fc1b034cfbe5c7a57bd61bc2cdebc75172a74229ee4827ec7767b792784",
        ),
        (True, True),
    ),
    "add-16|cntfet-tg-static|area": (
        (
            "97b501b117550dc9abefe5bad8c241e0144648b9dd582d8ef84df38490461700",
            "97b501b117550dc9abefe5bad8c241e0144648b9dd582d8ef84df38490461700",
        ),
        (True, True),
    ),
    "add-16|cntfet-tg-static|delay": (
        (
            "a8f2feb47fd944970bbaf3fcf11383edb98e3134929f24e49536dc34ad04c705",
            "a8f2feb47fd944970bbaf3fcf11383edb98e3134929f24e49536dc34ad04c705",
        ),
        (True, True),
    ),
    "add-16|cntfet-tg-static|power": (
        (
            "5e6f649a16938812fa80d519c2960ce53f6215a4071972b730a3bd3d29fd66b3",
            "5e6f649a16938812fa80d519c2960ce53f6215a4071972b730a3bd3d29fd66b3",
        ),
        (True, True),
    ),
    "t481|cmos-static|area": (
        (
            "4ea6ab0a095b72cb5c0813cdfc3dd7f004c11bcb8d22e26a7bcfb2f8541976d7",
            "4ea6ab0a095b72cb5c0813cdfc3dd7f004c11bcb8d22e26a7bcfb2f8541976d7",
        ),
        (True, True),
    ),
    "t481|cmos-static|delay": (
        (
            "b1c91457da406eb2e0196d6432892c9a6af9a130b941fe026e692fbe8a501b57",
            "ae1985b2bf1220e9c762be1469f12b41a92a619ed789c4a2451e874819975ce7",
            "16ba51ea9b85aaeff5eceffed3beff01020bf4ea1f9ab7990db89609a59662ee",
            "2e158b02a1b10dba6e09d430cfb0992d12c1717dd02482e1d4012f45e4770ba5",
        ),
        (True, True, True, True),
    ),
    "t481|cmos-static|power": (
        (
            "323f87f648565ab5391ca4bfabc4fd6bcf61fb135f53ffd4c6302b5bee332124",
            "323f87f648565ab5391ca4bfabc4fd6bcf61fb135f53ffd4c6302b5bee332124",
        ),
        (True, True),
    ),
    "t481|cntfet-tg-static|area": (
        (
            "7ea433a32fd23c4ac272b99459dc52c341f5d98d0ccccf765d659067bae04138",
            "1b7edccaf2fb2da7faa50d2c53f437f6debff5dcb8b6be75025d25b742d5b252",
        ),
        (True, False),
    ),
    "t481|cntfet-tg-static|delay": (
        (
            "b9c35ac7df67b4de191c3f68389265179b96b35558cb8537e479a8d401429a86",
            "80fb210ec3d794fadc3136c8610f6e7c4493da0692fead7af788131ee20611bb",
            "73069063515155ab1de689592b0aa8b5382abe7db0f49cffabb4f64db464f55a",
            "73069063515155ab1de689592b0aa8b5382abe7db0f49cffabb4f64db464f55a",
        ),
        (True, True, True, True),
    ),
    "t481|cntfet-tg-static|power": (
        (
            "bdde9f0f329b392790b1ed14c994c1f4afa09a2df3b2c501b12d1be4dc678eeb",
            "bdde9f0f329b392790b1ed14c994c1f4afa09a2df3b2c501b12d1be4dc678eeb",
        ),
        (True, True),
    ),
}

FAMILIES = {
    "cntfet-tg-static": LogicFamily.TG_STATIC,
    "cntfet-tg-pseudo": LogicFamily.TG_PSEUDO,
    "cmos-static": LogicFamily.CMOS,
}

#: Benchmarks small enough for the fast lane; the rest are nightly-only.
FAST_BENCHMARKS = ("add-16", "t481")


def _netlist_digest(mapped) -> str:
    digest = hashlib.sha256()
    for gate in sorted(mapped.gates, key=lambda g: g.output):
        digest.update(
            f"{gate.output}:{gate.cell_name}:{gate.leaves}:{gate.table}:"
            f"{int(gate.inverted)};".encode()
        )
    return digest.hexdigest()


_SUBJECT_CACHE: dict[str, Aig] = {}


def _subject(name: str) -> Aig:
    aig = _SUBJECT_CACHE.get(name)
    if aig is None:
        aig = _SUBJECT_CACHE[name] = run_flow(
            "resyn2rs", benchmark_by_name(name).build()
        ).aig
    return aig


def _check_golden(golden: dict, key: str, max_inputs: int) -> None:
    benchmark, family_key, objective = key.split("|")
    library = build_library(FAMILIES[family_key])
    mapped = technology_map(
        _subject(benchmark),
        library,
        matcher=matcher_for(library),
        objective=objective,
        max_inputs=max_inputs,
    )
    digest, gates, area, levels, delay = golden[key]
    assert mapped.gate_count == gates
    assert mapped.area == pytest.approx(area, abs=1e-6)
    assert mapped.levels == levels
    assert mapped.normalized_delay == pytest.approx(delay, abs=1e-6)
    assert _netlist_digest(mapped) == digest, (
        f"round-0 mapping of {key} (K={max_inputs}) is no longer bit-identical "
        "to the pre-refactor mapper"
    )


class TestRound0Golden:
    """Round 0 must stay bit-identical to the historical single-pass mapper."""

    @pytest.mark.parametrize(
        "key",
        sorted(k for k in GOLDEN_K6 if k.split("|")[0] in FAST_BENCHMARKS),
    )
    def test_round0_bit_identical_k6(self, key):
        _check_golden(GOLDEN_K6, key, 6)

    @pytest.mark.parametrize("key", sorted(GOLDEN_K4))
    def test_round0_bit_identical_k4(self, key):
        _check_golden(GOLDEN_K4, key, 4)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "key",
        sorted(k for k in GOLDEN_K6 if k.split("|")[0] not in FAST_BENCHMARKS),
    )
    def test_round0_bit_identical_k6_full(self, key):
        _check_golden(GOLDEN_K6, key, 6)

    def test_rounds_zero_equals_technology_map(self):
        library = build_library(LogicFamily.TG_STATIC)
        aig = _subject("add-16")
        direct = technology_map(aig, library, matcher=matcher_for(library))
        result = map_rounds(aig, library, matcher=matcher_for(library), rounds=0)
        assert result.rounds == [result.final]
        assert result.accepted == [True]
        assert _netlist_digest(direct) == _netlist_digest(result.final)


class TestRecoveryGolden:
    """Every recovery round stays bit-identical, accepted or not."""

    @pytest.mark.parametrize("key", sorted(GOLDEN_RECOVERY))
    def test_recovered_rounds_bit_identical(self, key):
        benchmark, family_key, objective = key.split("|")
        library = build_library(FAMILIES[family_key])
        result = map_rounds(
            _subject(benchmark),
            library,
            matcher=matcher_for(library),
            objective=objective,
            rounds=3,
        )
        digests, accepted = GOLDEN_RECOVERY[key]
        assert tuple(result.accepted) == accepted
        assert tuple(_netlist_digest(m) for m in result.rounds) == digests


def _objective_total(mapped, objective: str, library, aig) -> float:
    """The recovered axis of a circuit: area, or total power for power."""
    if objective == "power":
        from repro.analysis.power import analyze_power

        return analyze_power(mapped, aig, library).total
    return mapped.area


class TestRecovery:
    """Safety guarantees of the required-time recovery rounds."""

    @pytest.mark.parametrize("bench_name", FAST_BENCHMARKS)
    @pytest.mark.parametrize(
        "family", (LogicFamily.TG_STATIC, LogicFamily.TG_PSEUDO, LogicFamily.CMOS),
        ids=lambda f: f.value,
    )
    @pytest.mark.parametrize("objective", ("delay", "area", "power"))
    def test_recovery_never_worsens(self, bench_name, family, objective):
        aig = _subject(bench_name)
        library = build_library(family)
        result = map_rounds(
            aig,
            library,
            matcher=matcher_for(library),
            objective=objective,
            rounds=2,
        )
        round0, final = result.rounds[0], result.final
        assert result.accepted[0] is True
        # Delay is protected whatever the recovered axis.
        assert final.normalized_delay <= round0.normalized_delay + 1e-9
        # The recovered axis never regresses (area for delay/area, power
        # for the power objective).
        assert _objective_total(final, objective, library, aig) <= (
            _objective_total(round0, objective, library, aig) + 1e-9
        )
        # Every round -- accepted or rejected -- is a functionally correct
        # netlist.
        patterns = random_pattern_words(aig.pi_names, num_words=2, seed=11)
        for mapped in result.rounds:
            assert verify_mapping(mapped, aig, patterns)

    def test_recovery_improves_area_somewhere(self):
        """The lane must actually recover area, not just hold the line."""
        aig = _subject("t481")
        library = build_library(LogicFamily.TG_STATIC)
        result = map_rounds(
            aig, library, matcher=matcher_for(library), objective="delay", rounds=2
        )
        assert result.final.area < result.rounds[0].area - 1e-9
        assert result.final.normalized_delay <= (
            result.rounds[0].normalized_delay + 1e-9
        )

    def test_rejected_rounds_do_not_leak_into_final(self):
        aig = _subject("add-16")
        library = build_library(LogicFamily.TG_STATIC)
        result = map_rounds(
            aig, library, matcher=matcher_for(library), objective="delay", rounds=4
        )
        accepted = [m for m, ok in zip(result.rounds, result.accepted) if ok]
        assert result.final is accepted[-1]

    def test_negative_rounds_rejected(self):
        library = build_library(LogicFamily.TG_STATIC)
        with pytest.raises(ValueError):
            map_rounds(_subject("add-16"), library, rounds=-1)

    def test_determinism(self):
        aig = _subject("t481")
        library = build_library(LogicFamily.TG_STATIC)
        first = map_rounds(
            aig, library, matcher=matcher_for(library), objective="delay", rounds=2
        )
        second = map_rounds(
            aig, library, matcher=matcher_for(library), objective="delay", rounds=2
        )
        assert first.accepted == second.accepted
        assert [_netlist_digest(m) for m in first.rounds] == [
            _netlist_digest(m) for m in second.rounds
        ]


def _random_aig(seed: int, num_inputs: int, num_nodes: int) -> Aig:
    rng = random.Random(seed)
    aig = Aig(f"rand-{seed}")
    literals = [aig.add_pi(f"x{i}") for i in range(num_inputs)]
    for _ in range(num_nodes):
        a = rng.choice(literals) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.and_gate(a, b))
    for i, literal in enumerate(literals[-max(2, num_inputs // 2):]):
        aig.add_po(f"y{i}", literal ^ rng.randint(0, 1))
    return aig


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_inputs=st.integers(min_value=3, max_value=7),
    num_nodes=st.integers(min_value=5, max_value=50),
    objective=st.sampled_from(("delay", "area", "power")),
    rounds=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_recovery_property_on_random_circuits(
    seed, num_inputs, num_nodes, objective, rounds
):
    """Recovery never worsens delay or the recovered axis and every round's
    netlist is equivalent to the subject, on arbitrary circuits."""
    aig = _random_aig(seed, num_inputs, num_nodes)
    library = build_library(LogicFamily.TG_STATIC)
    result = map_rounds(
        aig,
        library,
        matcher=matcher_for(library),
        objective=objective,
        rounds=rounds,
    )
    round0, final = result.rounds[0], result.final
    assert final.normalized_delay <= round0.normalized_delay + 1e-9
    assert _objective_total(final, objective, library, aig) <= (
        _objective_total(round0, objective, library, aig) + 1e-9
    )
    patterns = random_pattern_words(aig.pi_names, num_words=2, seed=seed)
    for mapped in result.rounds:
        assert verify_mapping(mapped, aig, patterns)


class TestCostModels:
    def test_registry_vocabulary(self):
        assert set(available_objectives()) >= {"delay", "area", "power"}
        assert isinstance(cost_model_for("delay"), DelayCost)
        assert isinstance(cost_model_for("area"), AreaFlowCost)
        assert isinstance(cost_model_for("power"), PowerFlowCost)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            cost_model_for("energy")

    def test_resolve_recovery(self):
        assert resolve_recovery("delay", "auto") == "area"
        assert resolve_recovery("area", "auto") == "area"
        assert resolve_recovery("power", "auto") == "power"
        assert resolve_recovery("delay", "power") == "power"
        with pytest.raises(ValueError):
            resolve_recovery("delay", "delay")
        with pytest.raises(ValueError):
            resolve_recovery("delay", "entropy")

    def test_preferred_cells(self):
        assert cost_model_for("delay").prefer == "delay"
        assert cost_model_for("area").prefer == "area"
        assert cost_model_for("power").prefer == "area"
