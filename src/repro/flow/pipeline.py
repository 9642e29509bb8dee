"""Flow specifications: named pass pipelines with a fixpoint driver.

A :class:`FlowSpec` describes a technology-independent optimization flow as
data: a *prologue* (passes run once), a *round* (passes repeated up to
``max_rounds`` times or until the node count stops improving), and the
best-result bookkeeping that makes the flow monotone (never return a larger
or deeper network than the input).  The driver in :meth:`FlowSpec.run`
executes the spec, timing every pass and recording node/depth telemetry in
the returned :class:`FlowResult`.

Built-in flows:

``none``
    Identity -- map the subject graph exactly as built.
``quick``
    One balancing pass; the cheapest flow that still fixes gross depth
    problems.
``resyn2rs``
    The paper's flow (our ABC ``resyn2rs`` stand-in): balance, then up to
    three rounds of rewrite + balance, keeping the best intermediate result.
    ``repro.synthesis.optimize.optimize`` is this flow.
``deep``
    A longer sweep interleaving 4- and 3-input rewriting over up to six
    rounds, for flow-diversity experiments.

Custom flows are plain :class:`FlowSpec` instances registered with
:func:`register_flow`; the experiment engine keys its result cache on
:meth:`FlowSpec.fingerprint`, so editing a flow's definition automatically
invalidates stale cached artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.flow.passes import PassResult, get_pass, pass_source_digest
from repro.synthesis.aig import Aig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synthesis.mapper import MappedCircuit

#: The flow used when no flow is named (the paper's synthesis script).
DEFAULT_FLOW = "resyn2rs"


@dataclass
class FlowResult:
    """Outcome of one flow execution: the optimized AIG plus per-pass telemetry.

    ``mapped`` carries the technology-mapped circuit of the last mapping
    pass the flow executed (see :mod:`repro.flow.mapping`), or ``None`` for
    purely technology-independent flows.
    """

    flow: str
    aig: Aig
    passes: list[PassResult] = field(default_factory=list)
    mapped: "MappedCircuit | None" = None

    @property
    def seconds(self) -> float:
        """Total time spent inside passes."""
        return sum(result.seconds for result in self.passes)

    def telemetry_lines(self) -> list[str]:
        """Human-readable per-pass summary (used by the CLI and examples)."""
        lines = []
        for result in self.passes:
            lines.append(
                f"{result.name:<10} nodes {result.nodes_before:>5} -> "
                f"{result.nodes_after:<5} depth {result.depth_before:>3} -> "
                f"{result.depth_after:<3} {result.seconds * 1000:8.1f} ms"
            )
        return lines


@dataclass(frozen=True)
class FlowSpec:
    """A named pass pipeline.

    ``prologue`` passes run once; ``round_passes`` run as a block up to
    ``max_rounds`` times, stopping early when a full round fails to shrink
    the network.  With ``keep_best`` the smallest (then shallowest)
    intermediate result is returned instead of the last; with
    ``compare_input`` the unmodified input wins if it was already smaller.
    """

    name: str
    description: str = ""
    prologue: tuple[str, ...] = ()
    round_passes: tuple[str, ...] = ()
    max_rounds: int = 0
    keep_best: bool = True
    compare_input: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")

    def pass_names(self) -> tuple[str, ...]:
        """Every pass the flow can execute, in first-use order."""
        seen: list[str] = []
        for name in self.prologue + self.round_passes:
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def fingerprint(self) -> str:
        """Stable content string identifying the flow's behaviour.

        Folded into the experiment engine's cache keys so that a cached
        result from one flow definition can never satisfy a request for a
        differently defined flow of the same name.  Every pass implemented
        outside the package adds ``|pass:<name>=<source digest>``
        (:func:`~repro.flow.passes.pass_source_digest`), so redefining such
        a pass under the same name changes the key; package passes add
        nothing, the code digest covers them.
        """
        text = (
            f"{self.name}|prologue={','.join(self.prologue)}"
            f"|round={','.join(self.round_passes)}|max_rounds={self.max_rounds}"
            f"|keep_best={int(self.keep_best)}|compare_input={int(self.compare_input)}"
        )
        for name in self.pass_names():
            digest = pass_source_digest(get_pass(name))
            if digest is not None:
                text += f"|pass:{name}={digest}"
        return text

    def run(self, aig: Aig) -> FlowResult:
        """Execute the flow, collecting per-pass timing and node telemetry.

        Passes exposing a ``last_mapped`` attribute (mapping passes, see
        :mod:`repro.flow.mapping`) additionally contribute a technology
        mapping; the last one executed is returned as ``result.mapped``
        (note it reflects the network state at that point of the pipeline,
        which the keep-best bookkeeping below does not rewind).
        """
        telemetry: list[PassResult] = []
        last_mapped = [None]

        def apply(pass_name: str, current: Aig) -> Aig:
            pass_ = get_pass(pass_name)
            if hasattr(pass_, "last_mapped"):
                pass_.last_mapped = None  # stale results must not leak in
            nodes_before, depth_before = current.num_ands, current.depth()
            start = time.perf_counter()
            with obs.span(
                pass_.name,
                category="pass",
                flow=self.name,
                nodes_before=nodes_before,
                depth_before=depth_before,
            ) as pass_span:
                transformed = pass_.run(current)
                nodes_after, depth_after = transformed.num_ands, transformed.depth()
                pass_span.set("nodes_after", nodes_after)
                pass_span.set("depth_after", depth_after)
            telemetry.append(
                PassResult(
                    name=pass_.name,
                    nodes_before=nodes_before,
                    nodes_after=nodes_after,
                    depth_before=depth_before,
                    depth_after=depth_after,
                    seconds=time.perf_counter() - start,
                )
            )
            produced = getattr(pass_, "last_mapped", None)
            if produced is not None:
                last_mapped[0] = produced
            return transformed

        current = aig
        for pass_name in self.prologue:
            current = apply(pass_name, current)
        best = current
        for _ in range(self.max_rounds):
            nodes_before_round = current.num_ands
            for pass_name in self.round_passes:
                current = apply(pass_name, current)
            if self.keep_best and (current.num_ands, current.depth()) < (
                best.num_ands,
                best.depth(),
            ):
                best = current
            if current.num_ands >= nodes_before_round:
                break
        result = best if self.keep_best else current
        if self.compare_input and (aig.num_ands, aig.depth()) < (
            result.num_ands,
            result.depth(),
        ):
            result = aig
        return FlowResult(
            flow=self.name, aig=result, passes=telemetry, mapped=last_mapped[0]
        )


_FLOW_REGISTRY: dict[str, FlowSpec] = {}


def register_flow(spec: FlowSpec, replace: bool = False) -> FlowSpec:
    """Add a flow to the registry, validating that its passes exist."""
    if not spec.name:
        raise ValueError("a flow must have a non-empty name")
    if not replace and spec.name in _FLOW_REGISTRY:
        raise ValueError(f"flow {spec.name!r} is already registered")
    for pass_name in spec.prologue + spec.round_passes:
        get_pass(pass_name)  # raises KeyError for unknown passes
    _FLOW_REGISTRY[spec.name] = spec
    return spec


def get_flow(name: str) -> FlowSpec:
    """Look up a registered flow; raises ``KeyError`` naming the known flows."""
    try:
        return _FLOW_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown flow {name!r}; registered flows: {', '.join(available_flows())}"
        ) from None


def available_flows() -> tuple[str, ...]:
    """Names of all registered flows, sorted."""
    return tuple(sorted(_FLOW_REGISTRY))


def run_flow(flow: str | FlowSpec, aig: Aig) -> FlowResult:
    """Execute a flow by name or spec on an AIG."""
    spec = get_flow(flow) if isinstance(flow, str) else flow
    return spec.run(aig)


# -- built-in flows ----------------------------------------------------------

register_flow(
    FlowSpec(
        name="none",
        description="identity: map the subject graph exactly as built",
    )
)
register_flow(
    FlowSpec(
        name="quick",
        description="single balancing pass (cheapest useful flow)",
        prologue=("balance",),
    )
)
register_flow(
    FlowSpec(
        name="resyn2rs",
        description="the paper's flow: balance + up to 3 rounds of rewrite/balance",
        prologue=("balance",),
        round_passes=("rewrite", "balance"),
        max_rounds=3,
    )
)
register_flow(
    FlowSpec(
        name="deep",
        description="longer sweep interleaving 4- and 3-input rewriting (6 rounds)",
        prologue=("balance",),
        round_passes=("rewrite", "balance", "rewrite3", "balance"),
        max_rounds=6,
    )
)
