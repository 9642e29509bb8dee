"""Registered synthesis passes.

A *pass* is a named, function-preserving AIG-to-AIG transformation.  The
registry decouples what a pass does (:mod:`repro.synthesis.optimize` provides
the actual algorithms) from how flows sequence them
(:mod:`repro.flow.pipeline`), so new passes can be plugged in without
touching the drivers:

>>> from repro.flow import flow_pass
>>> @flow_pass("strip", "identity pass used as an example")
... def strip(aig):
...     return aig.cleanup()

Every pass execution is timed and its node/depth deltas recorded in a
:class:`PassResult`, the telemetry unit surfaced by
:class:`repro.flow.pipeline.FlowResult`.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Protocol, runtime_checkable

from repro.synthesis.aig import Aig
from repro.synthesis.optimize import balance, rewrite


@runtime_checkable
class Pass(Protocol):
    """The pass protocol: a named AIG transformation.

    Implementations must preserve the Boolean function of the network; the
    flow tests check this for every registered pass.
    """

    name: str
    description: str

    def run(self, aig: Aig) -> Aig:  # pragma: no cover - protocol stub
        ...


@dataclass(frozen=True)
class FunctionPass:
    """Adapter turning a plain ``Aig -> Aig`` callable into a :class:`Pass`."""

    name: str
    fn: Callable[[Aig], Aig]
    description: str = ""

    def run(self, aig: Aig) -> Aig:
        return self.fn(aig)


@dataclass(frozen=True)
class PassResult:
    """Telemetry of one pass execution inside a flow."""

    name: str
    nodes_before: int
    nodes_after: int
    depth_before: int
    depth_after: int
    seconds: float

    @property
    def node_delta(self) -> int:
        """Change in AND-node count (negative means the pass shrank the AIG)."""
        return self.nodes_after - self.nodes_before


_PASS_REGISTRY: dict[str, Pass] = {}


def register_pass(pass_: Pass, replace: bool = False) -> Pass:
    """Add a pass to the registry; ``replace=True`` overwrites an existing name."""
    if not pass_.name:
        raise ValueError("a pass must have a non-empty name")
    if not replace and pass_.name in _PASS_REGISTRY:
        raise ValueError(f"pass {pass_.name!r} is already registered")
    _PASS_REGISTRY[pass_.name] = pass_
    return pass_


def flow_pass(
    name: str, description: str = "", replace: bool = False
) -> Callable[[Callable[[Aig], Aig]], Callable[[Aig], Aig]]:
    """Decorator registering a plain function as a named pass."""

    def decorate(fn: Callable[[Aig], Aig]) -> Callable[[Aig], Aig]:
        register_pass(FunctionPass(name, fn, description or (fn.__doc__ or "").strip()),
                      replace=replace)
        return fn

    return decorate


def get_pass(name: str) -> Pass:
    """Look up a registered pass; raises ``KeyError`` naming the known passes."""
    try:
        return _PASS_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown pass {name!r}; registered passes: {', '.join(available_passes())}"
        ) from None


def available_passes() -> tuple[str, ...]:
    """Names of all registered passes, sorted."""
    return tuple(sorted(_PASS_REGISTRY))


_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def pass_source_digest(pass_: Pass) -> str | None:
    """SHA-256 of the source of a pass implemented outside the package.

    The implementation is a :class:`FunctionPass`'s function, else the
    pass's class.  A package pass returns ``None``: the engine's code digest
    already covers every module of ``repro``.  A pass defined elsewhere (a
    script, a test, a plugin) would otherwise enter a cache key only by its
    name, so its source is hashed -- text only, identical in every process.
    Raises ``ValueError`` when that source cannot be read.
    """
    implementation = pass_.fn if isinstance(pass_, FunctionPass) else type(pass_)
    return _implementation_digest(implementation)


@lru_cache(maxsize=256)
def _implementation_digest(implementation) -> str | None:
    try:
        path = Path(inspect.getfile(implementation)).resolve()
        if path.is_relative_to(_PACKAGE_ROOT):
            return None
        source = inspect.getsource(implementation)
    except (OSError, TypeError) as error:
        raise ValueError(
            f"cannot read the source of pass implementation {implementation!r}, "
            "so results of a flow using it cannot be cached safely; define the "
            "pass in a module file"
        ) from error
    return hashlib.sha256(source.encode()).hexdigest()


# -- built-in passes ---------------------------------------------------------

register_pass(
    FunctionPass(
        "balance",
        balance,
        "collapse AND trees and rebuild them depth-balanced (ABC `balance`)",
    )
)
register_pass(
    FunctionPass(
        "rewrite",
        rewrite,
        "cut-based resynthesis from 4-input cut functions (ABC `rewrite`/`refactor`)",
    )
)
register_pass(
    FunctionPass(
        "rewrite3",
        lambda aig: rewrite(aig, max_inputs=3),
        "cut-based resynthesis restricted to 3-input cuts (cheap cleanup rounds)",
    )
)
register_pass(
    FunctionPass(
        "rewrite5",
        lambda aig: rewrite(aig, max_inputs=5),
        "cut-based resynthesis over 5-input cuts (aggressive, slower)",
    )
)
register_pass(
    FunctionPass(
        "sweep",
        lambda aig: aig.cleanup(),
        "drop logic unreachable from the outputs (array-backed compaction)",
    )
)
