"""Gate library container and genlib export.

A :class:`GateLibrary` is the characterized cell set of one logic family,
ready to be handed to the technology mapper
(:mod:`repro.synthesis.mapper`).  It also exports the SIS/ABC ``genlib``
format, mirroring the paper's flow in which genlib libraries were compiled
for each logic family from the Table-2 area/delay values and used by ABC for
technology mapping (Sec. 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import obs
from repro.core.cell import LibraryCell
from repro.core.families import LogicFamily, build_family_cells


@dataclass(frozen=True)
class GateLibrary:
    """The characterized cells of one logic family."""

    family: LogicFamily
    cells: tuple[LibraryCell, ...]

    @property
    def name(self) -> str:
        return self.family.value

    @property
    def tau_ps(self) -> float:
        return self.family.tau_ps

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def cell(self, function_id: str) -> LibraryCell:
        """Look up a cell by its Table-1 function id."""
        for cell in self.cells:
            if cell.function_id == function_id:
                return cell
        raise KeyError(f"no cell for function {function_id!r} in library {self.name}")

    def inverter(self) -> LibraryCell:
        """The F00 cell (inverter), used for buffering and polarity repair."""
        return self.cell("F00")

    def cells_with_arity(self, arity: int) -> tuple[LibraryCell, ...]:
        return tuple(cell for cell in self.cells if cell.arity == arity)

    @property
    def max_arity(self) -> int:
        return max(cell.arity for cell in self.cells)

    def average_area(self, with_inverter: bool = False) -> float:
        """Average cell area, the per-family figure reported in Table 2."""
        if with_inverter:
            return sum(c.area_with_inverter for c in self.cells) / len(self.cells)
        return sum(c.area for c in self.cells) / len(self.cells)

    def average_fo4(self) -> float:
        """Average of the per-cell average FO4 delays (Table 2 bottom rows)."""
        return sum(c.delay.fo4_average for c in self.cells) / len(self.cells)

    def average_transistor_count(self) -> float:
        return sum(c.transistor_count for c in self.cells) / len(self.cells)

    def to_genlib(self, use_worst_delay: bool = False) -> str:
        """Render the library in SIS/ABC genlib format.

        The cell function is written for the natural (inverting) output; the
        per-pin delay uses the characterized FO4 value split into a block
        (parasitic) term and a load-dependent term, as genlib expects.
        """
        lines = [f"# genlib for {self.name} (generated by repro)"]
        for cell in self.cells:
            expr = cell.expression_text.replace("^", "^")
            function = f"!({expr.replace('|', '+').replace('&', '*')})"
            lines.append(f"GATE {cell.name} {cell.area:.3f} Y={function};")
            delay = (
                cell.delay.fo4_worst if use_worst_delay else cell.delay.fo4_average
            )
            block = cell.delay.parasitic_output
            per_load = max(delay - block, 0.0) / 4.0
            for pin in cell.input_names:
                lines.append(
                    f"  PIN {pin} UNKNOWN 1 999 "
                    f"{block:.3f} {per_load:.3f} {block:.3f} {per_load:.3f}"
                )
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def build_library(
    family: LogicFamily,
    verify: bool = True,
    function_ids: tuple[str, ...] | None = None,
) -> GateLibrary:
    """Build (and cache) the characterized library of a logic family.

    A build runs under a ``library`` span (category ``setup``) inside the
    span of whatever first needed the library; a memo hit records none.
    Power characterization stays lazy (:attr:`LibraryCell.power`).
    """
    with obs.span("library", category="setup", family=family.value):
        cells = build_family_cells(family, function_ids=function_ids, verify=verify)
    return GateLibrary(family=family, cells=cells)
