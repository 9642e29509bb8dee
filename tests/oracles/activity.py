"""Reference activities: the parity oracles of ``repro.analysis.activity``.

Production counts each node's ones over packed uint64 input words in blocks
of word columns sized to a byte budget, with one XOR-masked gather/AND per
AND level.  Two references here:

* :func:`exact_activities_reference` evaluates the AIG one input
  assignment at a time through plain Python fanin lookups -- no packed
  words, no numpy batching -- and counts each node's onset;
* :func:`propagate_words_reference` and :func:`report_from_values_reference`
  are the full-matrix propagation production ran before it was blocked:
  every node's words at once (``np.where`` complements), counted in one
  pass with the tail mask on the last word.

Production must return the same counts, probabilities and activities.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.activity import ActivityReport
from repro.synthesis.aig import Aig, lit_is_complemented, lit_node
from repro.synthesis.aig_array import aig_arrays
from repro.synthesis.cut_kernels import popcount64


def exact_activities_reference(aig: Aig) -> ActivityReport:
    """Slow reference for :func:`~repro.analysis.activity.exact_activities`."""
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


def propagate_words_reference(aig: Aig, pi_words: np.ndarray) -> np.ndarray:
    """Packed values of *every* node on the given input words.

    ``pi_words`` has shape ``(num_pis, num_words)``; the result has shape
    ``(num_nodes, num_words)``, all held at once.
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


def counts_reference(values: np.ndarray, tail_mask: int) -> np.ndarray:
    """Ones per node of a full value matrix; ``tail_mask`` selects the valid
    bits of the last word (all words before it are fully populated)."""
    counts = popcount64(values[:, :-1]).sum(axis=1, dtype=np.int64)
    counts += popcount64(values[:, -1] & np.uint64(tail_mask)).astype(np.int64)
    return counts


def report_from_values_reference(
    values: np.ndarray,
    total_patterns: int,
    tail_mask: int,
    method: str,
    seed: int | None,
) -> ActivityReport:
    """Count minterms per node and derive probabilities/activities."""
    probability = counts_reference(values, tail_mask) / float(total_patterns)
    activity = 2.0 * probability * (1.0 - probability)
    return ActivityReport(
        method=method,
        patterns=total_patterns,
        seed=seed,
        probability=probability,
        activity=activity,
    )
