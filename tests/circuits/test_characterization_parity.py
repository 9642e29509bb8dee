"""Bit-parallel cell characterization pinned to the per-assignment oracle.

``simulate_cell``, ``characterize_delay`` and ``characterize_power`` read one
:class:`~repro.circuits.switch_sim.SwitchStates` per netlist: bitmasks over
all input states plus a memo of solved conducting networks.  Every report
must equal the one built a state at a time by ``tests/oracles/switch_level``
exactly, floats included, on every library cell, on netlists whose pull
networks disagree (contention and floating outputs), and on random Table-1
style cells in every style.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cell_power import characterize_power
from repro.circuits import (
    CellStyle,
    build_cell_netlist,
    characterize_delay,
    network_from_expr,
    simulate_cell,
)
from repro.core.families import LogicFamily
from repro.core.library import build_library
from repro.devices.transistor import DeviceRole
from repro.logic import parse_expr
from tests.oracles.switch_level import (
    characterize_delay_reference,
    characterize_power_reference,
    simulate_cell_reference,
)


def _netlist(expr_text, style, name="cell"):
    network = network_from_expr(
        parse_expr(expr_text), allow_xor=style is not CellStyle.CMOS_STATIC
    )
    return build_cell_netlist(name, network, style)


def _assert_parity(netlist):
    assert simulate_cell(netlist) == simulate_cell_reference(netlist)
    assert characterize_delay(netlist) == characterize_delay_reference(netlist)
    assert characterize_power(netlist) == characterize_power_reference(netlist)


@pytest.mark.parametrize("family", list(LogicFamily), ids=lambda f: f.value)
def test_every_library_cell_matches_the_oracle(family):
    for cell in build_library(family).cells:
        _assert_parity(cell.netlist)


#: (pull-down function, function whose pull-up replaces the dual).  The pull
#: networks then overlap (contention) or both open (floating) somewhere.
MISMATCHED = [
    ("A | B", "A & B"),
    ("A & B", "A | B"),
    ("(A ^ B) & C", "A | (B & C)"),
    ("(A ^ B) | (C ^ D)", "(A & B) | (C & D)"),
    ("A & B & C", "(A ^ C) | B"),
]


def _mismatched(pd_text, pu_text, style):
    pd_cell = _netlist(pd_text, style)
    pu_cell = _netlist(pu_text, style)
    assert pd_cell.input_signals == pu_cell.input_signals
    devices = tuple(d for d in pd_cell.devices if d.role is DeviceRole.PULL_DOWN)
    devices += tuple(d for d in pu_cell.devices if d.role is DeviceRole.PULL_UP)
    return replace(pd_cell, name="mismatched", devices=devices)


STATIC_STYLES = [
    CellStyle.TRANSMISSION_GATE_STATIC,
    CellStyle.PASS_TRANSISTOR_STATIC,
    CellStyle.CMOS_STATIC,
]


@pytest.mark.parametrize("style", STATIC_STYLES, ids=lambda s: s.value)
def test_mismatched_pull_networks_match_the_oracle(style):
    contention = floating = 0
    for pd_text, pu_text in MISMATCHED:
        if style is CellStyle.CMOS_STATIC and "^" in pd_text + pu_text:
            continue
        netlist = _mismatched(pd_text, pu_text, style)
        # Listing the devices rail-first as well makes a path to the rail
        # need more than one sweep over the devices.
        for variant in (netlist, replace(netlist, devices=netlist.devices[::-1])):
            _assert_parity(variant)
        result = simulate_cell(netlist)
        contention += len(result.contention_minterms)
        floating += len(result.floating_minterms)
    assert contention and floating  # both branches were exercised


SIGNALS = "ABCDEF"
_literal = st.builds(
    lambda name, negated: f"{name}'" if negated else name,
    st.sampled_from(SIGNALS),
    st.booleans(),
)
_xor = st.builds(lambda a, b: f"({a} ^ {b})", _literal, _literal)


def _expressions(leaves):
    return st.recursive(
        leaves,
        lambda children: st.builds(
            lambda op, a, b: f"({a} {op} {b})",
            st.sampled_from("&|"),
            children,
            children,
        ),
        max_leaves=6,
    )


_TABLE1_STYLE = _expressions(st.one_of(_literal, _xor))
_CMOS_STYLE = _expressions(_literal)


@pytest.mark.parametrize("style", list(CellStyle), ids=lambda s: s.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_table1_cells_match_the_oracle(style, data):
    strategy = _CMOS_STYLE if style is CellStyle.CMOS_STATIC else _TABLE1_STYLE
    _assert_parity(_netlist(data.draw(strategy, label="expression"), style))
