"""Golden digests of the switching-activity reports.

Each digest is a sha256 (16 hex digits) over a ``compute_activities``
report's ``method``, ``patterns`` and ``probability.tobytes()``, at the
Monte-Carlo seeds 2009 and 4242.  They cover the ``resyn2rs`` output of the
15 registered Table-3 subjects and the raw generator output of the two
scale subjects (``mult-32``, and ``des-8r`` with S-boxes from seed 2009), so
any change to how the activities are computed -- blocking, the level kernel,
the pattern draw -- that alters a single probability bit shows up here.
The module reads only the public API, so it runs unchanged against older
checkouts for A/B identity checks.
"""

import hashlib

import pytest

from repro.analysis.activity import compute_activities
from repro.bench.registry import BENCHMARKS, benchmark_by_name
from repro.flow import run_flow
from tests.synthesis.test_aig_golden import SCALE_SUBJECTS


def _activity_digest(report) -> str:
    digest = hashlib.sha256(repr((report.method, report.patterns)).encode())
    digest.update(report.probability.tobytes())
    return digest.hexdigest()[:16]


#: ``(seed 2009, seed 4242)`` digests per subject.
GOLDEN_ACTIVITIES = {
    "C2670": ("c4387a6fd2400bd4", "bbb03ca8c2255cdd"),
    "C1908": ("02186cb76443abce", "6e9d6daf344047c4"),
    "C3540": ("226a583c4e484d58", "4e20b3306d94a60a"),
    "dalu": ("9fb971ba759e9163", "e2ab3ea4439e56d3"),
    "C7552": ("019ad58165ca26e8", "262d5f8bc4e9ae18"),
    "C6288": ("c2a03067989426ab", "96c4134a259ae540"),
    "C5315": ("837207204476e240", "ae96f76b78b30859"),
    "des": ("6bba0001424c10c1", "1ac055844c133c9c"),
    "i10": ("25befa358ccba58f", "3b9d6922f1712870"),
    "t481": ("70d4e419b66a9a99", "3318ef394a3ea0cb"),
    "i18": ("3e0226feecaa5d26", "31e7467dd3a0d96e"),
    "C1355": ("50f2ac51fc7258a7", "a4a36a90958d7470"),
    "add-16": ("bb5c0a73a66d0e81", "fafe1dc58f061b68"),
    "add-32": ("dd3ba12575293854", "8ddd5853500f545c"),
    "add-64": ("aeebfdf755a7b6c0", "c7235c8ba831f518"),
    "mult-32": ("03ccd47e9e4bb0ae", "85ed836c26cc8882"),
    "des-8r": ("276211ed65564129", "e472ed65870322ff"),
}


def test_golden_activities_cover_every_registered_subject():
    assert [case.name for case in BENCHMARKS] == list(GOLDEN_ACTIVITIES)[
        : len(BENCHMARKS)
    ]


@pytest.mark.parametrize("name", list(GOLDEN_ACTIVITIES))
def test_activity_reports_match_golden_digests(name):
    if name in SCALE_SUBJECTS:
        aig = SCALE_SUBJECTS[name]()
    else:
        aig = run_flow("resyn2rs", benchmark_by_name(name).build()).aig
    digests = tuple(
        _activity_digest(compute_activities(aig, seed=seed)) for seed in (2009, 4242)
    )
    assert digests == GOLDEN_ACTIVITIES[name]
