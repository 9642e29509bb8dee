"""Boolean-function substrate.

This subpackage provides the foundation used throughout the reproduction:

* :class:`~repro.logic.truth_table.TruthTable` -- bit-packed truth tables with
  the usual Boolean algebra, cofactors, support computation and composition.
* :mod:`~repro.logic.expr` -- a small Boolean expression AST with a parser for
  the textual function forms used in the paper (e.g. ``"(A ^ B) & C"``).
* :mod:`~repro.logic.npn` -- NPN canonicalization and the input/output
  transform algebra used by the Boolean matcher of the technology mapper.
* :mod:`~repro.logic.simulation` -- vectorized multi-pattern simulation
  helpers shared by the verification tests.
"""

from repro.logic.truth_table import TruthTable
from repro.logic.expr import (
    Expr,
    Var,
    Const,
    Not,
    And,
    Or,
    Xor,
    parse_expr,
)
from repro.logic.npn import (
    InputMatch,
    apply_match,
    compose_matches,
    invert_match,
    npn_canonical,
    npn_canonicalize,
)

__all__ = [
    "TruthTable",
    "Expr",
    "Var",
    "Const",
    "Not",
    "And",
    "Or",
    "Xor",
    "parse_expr",
    "InputMatch",
    "apply_match",
    "compose_matches",
    "invert_match",
    "npn_canonical",
    "npn_canonicalize",
]
