"""Golden digests of the generated subject graphs and their ``resyn2rs`` output.

Every AIG the generators and the flow build is pinned node for node: a
digest is a sha256 over every node's fanins and level (``-1`` fanins for the
constant and the primary inputs), then the PI names and ids and the PO names
and literals, all read through the public ``Aig`` accessors.  A change to
the AIG representation, its structural hashing, the cleanup or the passes
that alters any node, id, level or output shows up here as a digest change.

The digests cover the 15 registered Table-3 subjects plus the two scale
subjects of the benchmarks (``mult-32``, and ``des-8r`` with S-boxes from
seed 2009).  Each entry is ``(raw generator output, resyn2rs output)``,
truncated to 16 hex digits.
"""

import hashlib

import numpy as np
import pytest

from repro.bench.generators.des import des_round_circuit
from repro.bench.generators.multiplier import array_multiplier_circuit
from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.flow import run_flow
from repro.synthesis.aig import Aig

GOLDEN = {
    "C2670": ("94d5702a3cc74ebb", "a4154d824460001e"),
    "C1908": ("395d0a4525bdf27e", "53b8902fffc0c8c1"),
    "C3540": ("e06c5d37a1ed91b2", "a859d6570dcc226b"),
    "dalu": ("09f36afac0760ca9", "938c932cc4be087c"),
    "C7552": ("3278d81ef3a9e051", "bcf54c24e4a4b4d5"),
    "C6288": ("feac4d86cb3fa893", "feac4d86cb3fa893"),
    "C5315": ("7d4d02df5dce02d8", "46646e77a4a95cf6"),
    "des": ("96890289042d15c4", "eaaa7580413a1d79"),
    "i10": ("622710a8c914e71d", "5c0574a1bcbff3c4"),
    "t481": ("7980d1902cee6f3e", "399ed6629d427f37"),
    "i18": ("19e24abeeeac3272", "c86f8ef63f7e29d2"),
    "C1355": ("fcfaf565597a9b14", "34f2a65317677d92"),
    "add-16": ("3374dced3a9cacd5", "3374dced3a9cacd5"),
    "add-32": ("b808b2ae77617c59", "b808b2ae77617c59"),
    "add-64": ("3331dd0dba9c4266", "3331dd0dba9c4266"),
    "mult-32": ("d2ed33fffdb412e1", "d2ed33fffdb412e1"),
    "des-8r": ("73d39875fa784a68", "3e20dac30b58cfbf"),
}

SCALE_SUBJECTS = {
    "mult-32": lambda: array_multiplier_circuit(width=32, name="mult-32"),
    "des-8r": lambda: des_round_circuit(
        block_width=64, rounds=8, seed=2009, name="des-8r"
    ),
}


def aig_digest(aig: Aig) -> str:
    """sha256 over every node's fanins and level, then the PIs and POs."""
    rows = [
        (*(aig.fanins(node) if aig.is_and(node) else (-1, -1)), aig.level(node))
        for node in range(aig.num_nodes)
    ]
    digest = hashlib.sha256(np.asarray(rows, dtype=np.int64).tobytes())
    digest.update(
        repr((aig.pi_names, aig.pi_nodes(), aig.po_names, aig.po_literals)).encode()
    )
    return digest.hexdigest()[:16]


def _build(name: str) -> Aig:
    if name in SCALE_SUBJECTS:
        return SCALE_SUBJECTS[name]()
    return benchmark_by_name(name).build()


def test_golden_table_covers_every_registered_subject():
    assert [case.name for case in BENCHMARKS] == list(GOLDEN)[: len(BENCHMARKS)]


@pytest.mark.parametrize("name", list(GOLDEN))
def test_raw_and_resyn2rs_aigs_match_golden_digests(name):
    raw = _build(name)
    optimized = run_flow("resyn2rs", raw).aig
    assert (aig_digest(raw), aig_digest(optimized)) == GOLDEN[name]
