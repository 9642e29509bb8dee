"""BLIF import / export.

BLIF (Berkeley Logic Interchange Format) is the netlist format used by SIS
and ABC; the paper's benchmark circuits circulate in this format.  The reader
builds an :class:`~repro.synthesis.aig.Aig` from the ``.names`` sum-of-product
covers; the writer emits either an AIG or a mapped circuit so that results
can be inspected with external tools.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.synthesis.aig import Aig, AigLiteral, CONST0, CONST1, lit_complement


class BlifParseError(ValueError):
    """Raised on malformed BLIF input."""


def _join_continuations(lines: Iterable[str]) -> list[str]:
    joined: list[str] = []
    buffer = ""
    for raw in lines:
        line = raw.split("#", 1)[0].rstrip()
        if not line:
            continue
        if line.endswith("\\"):
            buffer += line[:-1] + " "
            continue
        joined.append(buffer + line)
        buffer = ""
    if buffer:
        joined.append(buffer)
    return joined


def read_blif(text: str, name: str | None = None) -> Aig:
    """Parse BLIF text into an AIG.

    Supports the combinational subset: ``.model``, ``.inputs``, ``.outputs``,
    ``.names`` (with multi-cube covers and the ``0``/``1``/``-`` input
    notation) and ``.end``.  Latches and subcircuits are rejected, and so is
    a signal defined twice: by two ``.names`` covers, or an input's cover.
    """
    lines = _join_continuations(text.splitlines())
    model_name = name or "blif"
    inputs: list[str] = []
    outputs: list[str] = []
    covers: dict[str, tuple[list[str], list[str], str]] = {}

    index = 0
    while index < len(lines):
        line = lines[index]
        tokens = line.split()
        keyword = tokens[0]
        if keyword == ".model":
            if len(tokens) > 1:
                model_name = tokens[1]
            index += 1
        elif keyword == ".inputs":
            inputs.extend(tokens[1:])
            index += 1
        elif keyword == ".outputs":
            outputs.extend(tokens[1:])
            index += 1
        elif keyword == ".names":
            signals = tokens[1:]
            if not signals:
                raise BlifParseError(".names with no signals")
            target = signals[-1]
            fanins = signals[:-1]
            cubes: list[str] = []
            output_value = "1"
            bare_rows = cube_rows = 0
            index += 1
            while index < len(lines) and not lines[index].startswith("."):
                row = lines[index].split()
                if len(row) == 1:
                    # Cube part omitted: a constant driver.  Zero-input
                    # ``.names`` covers are the common form, but tools also
                    # emit the bare output value under declared fanins
                    # (every input a don't-care), so accept both.
                    output_value = row[0]
                    cubes.append("-" * len(fanins))
                    bare_rows += 1
                elif len(row) == 2:
                    cubes.append(row[0])
                    output_value = row[1]
                    cube_rows += 1
                else:
                    raise BlifParseError(f"malformed cover row: {lines[index]!r}")
                index += 1
            if bare_rows and cube_rows:
                # A bare output value only means "constant driver"; mixed
                # with cube rows it is almost certainly a cube whose output
                # column was dropped, so keep rejecting that.
                raise BlifParseError(
                    f"cover of {target!r} mixes bare output-value rows with "
                    "cube rows"
                )
            if target in covers:
                raise BlifParseError(f"signal {target!r} has two .names covers")
            covers[target] = (fanins, cubes, output_value)
        elif keyword == ".end":
            index += 1
        elif keyword in (".latch", ".subckt", ".gate"):
            raise BlifParseError(f"unsupported BLIF construct {keyword}")
        else:
            raise BlifParseError(f"unknown BLIF keyword {keyword!r}")

    for input_name in inputs:
        if input_name in covers:
            raise BlifParseError(f"input {input_name!r} also has a .names cover")

    aig = Aig(model_name)
    literals: dict[str, AigLiteral] = {}
    for input_name in inputs:
        literals[input_name] = aig.add_pi(input_name)

    def build_signal(root: str) -> AigLiteral:
        # Depth-first on an explicit stack (no recursion limit): fanins left
        # to right, each signal after its fanins.  An entry is a signal to
        # enter, or, flagged, one whose fanins are all built.
        stack = [(root, False)]
        visiting: set[str] = set()
        while stack:
            signal, fanins_built = stack.pop()
            if fanins_built:
                visiting.remove(signal)
                fanins, cubes, output_value = covers[signal]
                literals[signal] = _cover_literal(
                    aig, signal, [literals[f] for f in fanins], cubes, output_value
                )
            elif signal not in literals:
                if signal not in covers:
                    raise BlifParseError(f"signal {signal!r} is never defined")
                if signal in visiting:
                    raise BlifParseError(f"combinational loop through {signal!r}")
                visiting.add(signal)
                stack.append((signal, True))
                stack.extend((fanin, False) for fanin in reversed(covers[signal][0]))
        return literals[root]

    for output_name in outputs:
        aig.add_po(output_name, build_signal(output_name))
    return aig


def _cover_literal(
    aig: Aig, signal: str, fanin_literals: list[AigLiteral], cubes: list[str],
    output_value: str,
) -> AigLiteral:
    """Build one ``.names`` sum-of-products cover over its fanin literals."""
    if not fanin_literals:
        return CONST1 if cubes and output_value == "1" else CONST0
    cube_literals: list[AigLiteral] = []
    for cube in cubes:
        if len(cube) != len(fanin_literals):
            raise BlifParseError(
                f"cube {cube!r} width does not match fanins of {signal!r}"
            )
        terms: list[AigLiteral] = []
        for value, fanin_literal in zip(cube, fanin_literals):
            if value == "1":
                terms.append(fanin_literal)
            elif value == "0":
                terms.append(lit_complement(fanin_literal))
            elif value == "-":
                continue
            else:
                raise BlifParseError(f"invalid cube character {value!r}")
        cube_literals.append(aig.and_many(terms) if terms else CONST1)
    literal = aig.or_many(cube_literals) if cube_literals else CONST0
    if output_value == "0":
        literal = lit_complement(literal)
    return literal


def read_blif_file(path: str | Path) -> Aig:
    """Read a BLIF file from disk."""
    path = Path(path)
    return read_blif(path.read_text(), name=path.stem)


def write_blif(aig: Aig) -> str:
    """Serialize an AIG to BLIF (one two-input AND cover per node).

    AND node ``k`` drives the net ``n<k>``, with ``_`` appended until the
    name is no input's or output's, so every name is defined once.  An
    output whose name an input or an earlier output already defines needs
    no cover if it carries the same literal, and raises :class:`ValueError`
    otherwise (BLIF cannot express it).
    """
    lines = [f".model {aig.name}"]
    if aig.pi_names:
        lines.append(".inputs " + " ".join(aig.pi_names))
    if aig.po_names:
        lines.append(".outputs " + " ".join(aig.po_names))

    names = dict(zip(aig.pi_nodes(), aig.pi_names))
    taken = set(aig.pi_names) | set(aig.po_names)
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        net = f"n{node}"
        while net in taken:
            net += "_"
        names[node] = net
        lines.append(f".names {names[f0 >> 1]} {names[f1 >> 1]} {net}")
        lines.append(f"{'0' if f0 & 1 else '1'}{'0' if f1 & 1 else '1'} 1")

    defined = {name: node << 1 for name, node in zip(aig.pi_names, aig.pi_nodes())}
    for name, literal in zip(aig.po_names, aig.po_literals):
        if name in defined:
            if literal != defined[name]:
                raise ValueError(f"output {name!r} is already defined otherwise")
            continue
        defined[name] = literal
        if literal == CONST0 or literal == CONST1:
            lines.append(f".names {name}")
            if literal == CONST1:
                lines.append("1")
            continue
        lines.append(f".names {names[literal >> 1]} {name}")
        lines.append("0 1" if literal & 1 else "1 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"
