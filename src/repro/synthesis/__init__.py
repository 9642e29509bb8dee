"""Logic-synthesis substrate (the ABC replacement).

The paper's flow (Sec. 4.4) synthesizes each benchmark with ABC's
``resyn2rs`` script and maps it onto genlib libraries compiled from the
Table-2 characterization.  This subpackage provides an equivalent
self-contained flow:

* :mod:`repro.synthesis.aig` -- an And-Inverter Graph with structural hashing
  and 64-bit packed simulation;
* :mod:`repro.synthesis.builder` -- a convenience circuit builder used by the
  benchmark generators (named signals, word-level helpers);
* :mod:`repro.synthesis.blif` -- BLIF import/export;
* :mod:`repro.synthesis.optimize` -- technology-independent optimization
  (balancing and cut-based rewriting, our stand-in for ``resyn2rs``; both
  passes are array-backed, pinned node-for-node to the per-node oracles in
  ``tests/oracles/optimize.py``);
* :mod:`repro.synthesis.rewrite_lib` -- the per-function memo of compiled
  SOP cover schedules that the ``rewrite`` pass replays;
* :mod:`repro.synthesis.cuts` -- k-feasible priority-cut enumeration with cut
  functions;
* :mod:`repro.synthesis.matcher` -- batched NPN-canonical Boolean matching of
  cut functions against a characterized
  :class:`~repro.core.library.GateLibrary`;
* :mod:`repro.synthesis.cost` -- the pluggable mapping cost models
  (delay / area-flow / power-flow) owning per-cut cost, tie-breaks and
  preferred-cell selection;
* :mod:`repro.synthesis.mapper` -- cut-based technology mapping with
  multi-round required-time recovery, producing a
  :class:`~repro.synthesis.mapper.MappedCircuit` with the statistics reported
  in Table 3 (gate count, area, logic depth, normalized and absolute delay).
"""

from repro.synthesis.aig import Aig, AigLiteral
from repro.synthesis.builder import CircuitBuilder
from repro.synthesis.blif import read_blif, write_blif
from repro.synthesis.cost import CostModel, cost_model_for, register_cost_model
from repro.synthesis.optimize import optimize, balance, rewrite
from repro.synthesis.cuts import enumerate_cuts
from repro.synthesis.matcher import LibraryMatcher
from repro.synthesis.mapper import (
    MappedCircuit,
    MappingResult,
    map_rounds,
    technology_map,
)

__all__ = [
    "Aig",
    "AigLiteral",
    "CircuitBuilder",
    "CostModel",
    "read_blif",
    "write_blif",
    "optimize",
    "balance",
    "rewrite",
    "cost_model_for",
    "enumerate_cuts",
    "LibraryMatcher",
    "MappedCircuit",
    "MappingResult",
    "map_rounds",
    "register_cost_model",
    "technology_map",
]
