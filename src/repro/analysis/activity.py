"""Signal probabilities and switching activities of an AIG.

Dynamic power is driven by the *switching activity* of every net: under the
standard zero-delay model with temporally independent input vectors, a net
with signal probability ``p`` (probability of being logic 1) toggles with
activity ``a = 2 p (1 - p)`` per cycle.  This module computes per-node
probabilities for a whole AIG two ways:

* **Exact enumeration** (:func:`exact_activities`) -- for subject graphs with
  at most ``exact_limit`` primary inputs, all ``2**n`` input patterns are
  enumerated at once in packed uint64 words (the same word-parallel batching
  as :meth:`Aig.simulate_words`: one gather/AND per AND-level) and the
  probability of a node is its exact minterm count over ``2**n``.
* **Monte-Carlo estimation** (:func:`monte_carlo_activities`) -- for large
  benchmarks, ``vectors`` words of 64 uniform random patterns per input are
  drawn from a seeded :func:`numpy.random.default_rng` and propagated with
  the same vectorized kernel.  The estimate is a pure function of
  ``(structure, vectors, seed)``, so results are bit-identical across
  processes and runs -- which is what lets the experiment engine fold the
  Monte-Carlo parameters into its cache key.

:func:`compute_activities` picks between the two automatically;
:func:`exact_activities_reference` is the slow one-assignment-at-a-time
oracle the hypothesis property tests compare against.

Primary inputs are assumed uniform and independent (``p = 1/2``), the
convention of the classic switched-capacitance literature and the one the
paper's FO4-style normalizations imply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.synthesis.aig import Aig, lit_is_complemented, lit_node
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cut_kernels import popcount64

#: Largest primary-input count enumerated exactly (4096 patterns = 64 words).
DEFAULT_EXACT_LIMIT = 12
#: Monte-Carlo words per primary input (1024 words = 65536 patterns).
DEFAULT_VECTORS = 1024
#: Default Monte-Carlo seed (folded into the engine's cache key).
DEFAULT_SEED = 2009

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


def _propagate_words(aig: Aig, pi_words: np.ndarray) -> np.ndarray:
    """Packed values of *every* node on the given input words.

    ``pi_words`` has shape ``(num_pis, num_words)``; the result has shape
    ``(num_nodes, num_words)``.  Same level-batched evaluation as
    :meth:`Aig.simulate_words`, kept separate because power analysis needs
    the internal nodes, not just the primary outputs.
    """
    arrays = aig_arrays(aig)
    num_words = pi_words.shape[1] if pi_words.size else 1
    values = np.zeros((arrays.num_nodes, num_words), dtype=np.uint64)
    if arrays.pi_nodes.size:
        values[arrays.pi_nodes] = pi_words
    for group in arrays.level_groups:
        fanin0 = arrays.fanin0[group]
        fanin1 = arrays.fanin1[group]
        words0 = values[fanin0 >> 1]
        words1 = values[fanin1 >> 1]
        complement0 = ((fanin0 & 1) == 1)[:, None]
        complement1 = ((fanin1 & 1) == 1)[:, None]
        values[group] = np.where(complement0, ~words0, words0) & np.where(
            complement1, ~words1, words1
        )
    return values

def _report_from_values(
    values: np.ndarray,
    total_patterns: int,
    tail_mask: int,
    method: str,
    seed: int | None,
) -> ActivityReport:
    """Count minterms per node and derive probabilities/activities.

    ``tail_mask`` selects the valid bits of the last word (all words before
    it are fully populated).
    """
    counts = popcount64(values[:, :-1]).sum(axis=1, dtype=np.int64)
    counts += popcount64(values[:, -1] & np.uint64(tail_mask)).astype(np.int64)
    probability = counts / float(total_patterns)
    activity = 2.0 * probability * (1.0 - probability)
    return ActivityReport(
        method=method,
        patterns=total_patterns,
        seed=seed,
        probability=probability,
        activity=activity,
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
    values = _propagate_words(aig, pi_words)
    return _report_from_values(values, total, tail_mask, "exact", None)


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
    values = _propagate_words(aig, pi_words)
    return _report_from_values(values, 64 * vectors, (1 << 64) - 1, "monte-carlo", seed)


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


def exact_activities_reference(aig: Aig) -> ActivityReport:
    """Slow reference for :func:`exact_activities` (oracle for the tests).

    Evaluates the AIG one input assignment at a time through plain Python
    fanin recursion -- no packed words, no numpy batching.
    """
    num_nodes = aig.num_nodes
    counts = [0] * num_nodes
    pi_nodes = aig.pi_nodes()
    for minterm in range(1 << aig.num_pis):
        values = [False] * num_nodes
        for i, node in enumerate(pi_nodes):
            values[node] = bool((minterm >> i) & 1)
        for node in aig.and_nodes():
            f0, f1 = aig.fanins(node)
            v0 = values[lit_node(f0)] ^ lit_is_complemented(f0)
            v1 = values[lit_node(f1)] ^ lit_is_complemented(f1)
            values[node] = v0 and v1
        for node in range(num_nodes):
            if values[node]:
                counts[node] += 1
    total = 1 << aig.num_pis
    probability = np.array(counts, dtype=np.float64) / float(total)
    activity = 2.0 * probability * (1.0 - probability)
    return ActivityReport(
        method="exact",
        patterns=total,
        seed=None,
        probability=probability,
        activity=activity,
    )
