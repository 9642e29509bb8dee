"""Pass-based synthesis flow framework.

This subpackage turns the technology-independent optimization step of the
reproduction from a hard-wired ``optimize(aig)`` call into composable,
registered *passes* sequenced by named *flows*:

* :mod:`repro.flow.passes` -- the pass registry (:func:`register_pass`,
  :func:`flow_pass`) with the built-in ``balance`` / ``rewrite`` /
  ``rewrite3`` / ``rewrite5`` passes and the :class:`PassResult` telemetry
  record;
* :mod:`repro.flow.pipeline` -- :class:`FlowSpec` (prologue + iterated
  rounds + best-result bookkeeping), the flow registry with the built-in
  ``none`` / ``quick`` / ``resyn2rs`` / ``deep`` flows, and
  :func:`run_flow` returning a :class:`FlowResult` with per-pass timing and
  node-count telemetry.

The experiment engine schedules mapping jobs by flow name and folds
:meth:`FlowSpec.fingerprint` into its cache keys;
``repro.synthesis.optimize.optimize`` is the ``resyn2rs`` flow.

Technology mapping participates as a pass too (:mod:`repro.flow.mapping`):
the registered ``map`` pass -- and configured variants created with
:func:`mapping_pass` -- maps the network onto a library mid-flow and
records the result as ``FlowResult.mapped``, so FlowSpecs can interleave
resynthesis and mapping.
"""

from repro.flow.passes import (
    FunctionPass,
    Pass,
    PassResult,
    available_passes,
    flow_pass,
    get_pass,
    register_pass,
)
from repro.flow.pipeline import (
    DEFAULT_FLOW,
    FlowResult,
    FlowSpec,
    available_flows,
    get_flow,
    register_flow,
    run_flow,
)
from repro.flow.mapping import MappingPass, mapping_pass

__all__ = [
    "DEFAULT_FLOW",
    "FlowResult",
    "FlowSpec",
    "FunctionPass",
    "MappingPass",
    "Pass",
    "PassResult",
    "available_flows",
    "available_passes",
    "flow_pass",
    "get_flow",
    "get_pass",
    "mapping_pass",
    "register_flow",
    "register_pass",
    "run_flow",
]
