"""Signal probabilities and switching activities of an AIG.

Dynamic power is driven by the *switching activity* of every net: under the
standard zero-delay model with temporally independent input vectors, a net
with signal probability ``p`` (probability of being logic 1) toggles with
activity ``a = 2 p (1 - p)`` per cycle.  This module computes per-node
probabilities for a whole AIG two ways:

* **Exact enumeration** (:func:`exact_activities`) -- for subject graphs with
  at most ``exact_limit`` primary inputs, all ``2**n`` input patterns packed
  in uint64 words; a node's probability is its minterm count over ``2**n``.
* **Monte-Carlo estimation** (:func:`monte_carlo_activities`) -- for large
  benchmarks, ``vectors`` words of 64 uniform random patterns per input are
  drawn from a seeded :func:`numpy.random.default_rng`.  The estimate is a
  pure function of ``(structure, vectors, seed)``, so results are
  bit-identical across processes and runs -- which is what lets the
  experiment engine fold the Monte-Carlo parameters into its cache key.

Both count ones with the level kernel of :meth:`Aig.simulate_words`
(:func:`~repro.synthesis.aig_array.simulate_packed`) over blocks of word
columns sized to a byte budget, ``_BLOCK_BYTES``, holding one block of node
values at a time; integer counts do not depend on the blocking.

:func:`compute_activities` picks between the two automatically.  The slow
one-assignment-at-a-time oracle and the full-matrix propagation the
property tests compare against are in ``tests/oracles/activity.py``.

Primary inputs are assumed uniform and independent (``p = 1/2``), the
convention of the classic switched-capacitance literature and the one the
paper's FO4-style normalizations imply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.synthesis.aig import Aig, lit_is_complemented, lit_node
from repro.synthesis.aig_array import aig_arrays, simulate_packed
from repro.synthesis.cut_kernels import popcount64

#: Largest primary-input count enumerated exactly (4096 patterns = 64 words).
DEFAULT_EXACT_LIMIT = 12
#: Monte-Carlo words per primary input (1024 words = 65536 patterns).
DEFAULT_VECTORS = 1024
#: Default Monte-Carlo seed (folded into the engine's cache key).
DEFAULT_SEED = 2009
#: Bytes of node values one propagation block may hold.
_BLOCK_BYTES = 8 << 20

_U64 = np.uint64
_FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class ActivityReport:
    """Per-node signal probabilities and switching activities of one AIG."""

    #: ``"exact"`` or ``"monte-carlo"``.
    method: str
    #: Number of input patterns the probabilities were computed over.
    patterns: int
    #: RNG seed of a Monte-Carlo run (``None`` for exact enumeration).
    seed: int | None
    #: Probability of logic 1 per node id (positive polarity), float64.
    probability: np.ndarray
    #: Switching activity ``2 p (1 - p)`` per node id, float64.
    activity: np.ndarray

    def node_probability(self, node: int) -> float:
        return float(self.probability[node])

    def node_activity(self, node: int) -> float:
        return float(self.activity[node])

    def literal_probability(self, literal: int) -> float:
        """Probability of a literal (complement bit applied)."""
        p = float(self.probability[lit_node(literal)])
        return 1.0 - p if lit_is_complemented(literal) else p


def _count_ones(aig: Aig, pi_words: np.ndarray, tail_mask: int) -> np.ndarray:
    """Ones per node over the input words (``tail_mask``: the valid bits of
    the last word), counted one block of word columns at a time; annotates
    the enclosing span with ``blocks`` and ``block_words``."""
    arrays = aig_arrays(aig)
    num_words = pi_words.shape[1]
    block_words = min(num_words, max(64, _BLOCK_BYTES // (8 * arrays.num_nodes)))
    starts = range(0, num_words, block_words)
    counts = np.zeros(arrays.num_nodes, dtype=np.int64)
    for start in starts:
        values = simulate_packed(arrays, pi_words[:, start : start + block_words])
        if start == starts[-1]:
            values[:, -1] &= np.uint64(tail_mask)
        counts += popcount64(values).sum(axis=1, dtype=np.int64)
        del values  # one block alive at a time
    obs.annotate(blocks=len(starts), block_words=block_words)
    return counts


def _report(
    counts: np.ndarray, total_patterns: int, method: str, seed: int | None
) -> ActivityReport:
    probability = counts / float(total_patterns)
    return ActivityReport(
        method=method,
        patterns=total_patterns,
        seed=seed,
        probability=probability,
        activity=2.0 * probability * (1.0 - probability),
    )


def exact_pi_words(num_pis: int) -> tuple[np.ndarray, int, int]:
    """All ``2**n`` input patterns, packed: ``(words, total_patterns, tail_mask)``.

    Input ``i`` follows the canonical truth-table column ordering (period
    ``2**(i+1)``), so the word at index ``w`` covers minterms ``64*w ..
    64*w + 63``.
    """
    total = 1 << num_pis
    num_words = max(total >> 6, 1)
    tail_mask = (1 << min(total, 64)) - 1
    words = np.zeros((num_pis, num_words), dtype=np.uint64)
    word_index = np.arange(num_words, dtype=np.uint64)
    for i in range(num_pis):
        if i < 6:
            block = 1 << i
            column = 0
            for start in range(block, 64, 2 * block):
                column |= ((1 << block) - 1) << start
            words[i, :] = np.uint64(column)
        else:
            bit = (word_index >> np.uint64(i - 6)) & _U64(1)
            words[i, :] = np.where(bit == 1, _FULL64, _U64(0))
    return words, total, tail_mask


def exact_activities(aig: Aig, exact_limit: int = 16) -> ActivityReport:
    """Exact probabilities by word-parallel exhaustive enumeration.

    ``exact_limit`` is a guard against accidentally enumerating huge input
    spaces (``2**n`` patterns); raise it explicitly for mid-size cones.
    """
    if aig.num_pis > exact_limit:
        raise ValueError(
            f"{aig.name!r} has {aig.num_pis} inputs; exact enumeration is "
            f"limited to {exact_limit} (use monte_carlo_activities)"
        )
    pi_words, total, tail_mask = exact_pi_words(aig.num_pis)
    return _report(_count_ones(aig, pi_words, tail_mask), total, "exact", None)


def monte_carlo_activities(
    aig: Aig, vectors: int = DEFAULT_VECTORS, seed: int = DEFAULT_SEED
) -> ActivityReport:
    """Monte-Carlo probabilities on ``64 * vectors`` seeded random patterns."""
    if vectors <= 0:
        raise ValueError("vectors must be positive")
    rng = np.random.default_rng(seed)
    pi_words = rng.integers(
        0, 1 << 64, size=(aig.num_pis, vectors), dtype=np.uint64
    )
    counts = _count_ones(aig, pi_words, (1 << 64) - 1)
    return _report(counts, 64 * vectors, "monte-carlo", seed)


def compute_activities(
    aig: Aig,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    vectors: int = DEFAULT_VECTORS,
    seed: int = DEFAULT_SEED,
) -> ActivityReport:
    """Exact enumeration for small cones, Monte-Carlo above ``exact_limit``."""
    if aig.num_pis <= exact_limit:
        return exact_activities(aig, exact_limit=exact_limit)
    return monte_carlo_activities(aig, vectors=vectors, seed=seed)
