"""Transistor-level circuit substrate.

The paper's library cells are built from series-parallel pull-up / pull-down
networks of ambipolar CNTFETs, CNTFET transmission gates and pass transistors
(Figs. 4 and 5).  This subpackage provides:

* :mod:`repro.circuits.sp_network` -- the series-parallel switch algebra used
  to describe pull networks and to derive the complementary (dual) network;
* :mod:`repro.circuits.sizing` -- the recursive unit-drive sizing rules of
  Sec. 4.1/4.2 (series stacks up-sized, transmission gates sized 2/3, pass
  transistors sized 2x, pseudo pull-downs up-sized 4/3 with a 1/3 load);
* :mod:`repro.circuits.netlist` -- construction of complete cell netlists for
  each logic style (static, pseudo, CMOS, pass-transistor variants);
* :mod:`repro.circuits.switch_sim` -- the switch-level model of a cell
  netlist over all input states at once (bitmasks plus a memo of solved
  conducting networks), read by functional and full-swing verification and
  by the delay and power models;
* :mod:`repro.circuits.delay` -- the switch-level RC / logical-effort FO4
  delay model of Sec. 4.3;
* :mod:`repro.circuits.area` -- the normalized area model (sum of W/L).
"""

from repro.circuits.sp_network import (
    LiteralSwitch,
    Parallel,
    Series,
    SwitchNetwork,
    XorSwitch,
    network_from_expr,
)
from repro.circuits.netlist import CellNetlist, CellStyle, build_cell_netlist
from repro.circuits.switch_sim import SwitchLevelResult, simulate_cell
from repro.circuits.delay import DelayReport, characterize_delay
from repro.circuits.area import cell_area

__all__ = [
    "SwitchNetwork",
    "LiteralSwitch",
    "XorSwitch",
    "Series",
    "Parallel",
    "network_from_expr",
    "CellNetlist",
    "CellStyle",
    "build_cell_netlist",
    "SwitchLevelResult",
    "simulate_cell",
    "DelayReport",
    "characterize_delay",
    "cell_area",
]
