"""AIG serialization: ASCII AIGER (``aag``) and Graphviz DOT.

Only the combinational subset of AIGER is handled here; sequential circuits
(latches) are serialized by :mod:`repro.circuits.parse` on top of this.
"""

from __future__ import annotations

import io as _io
from typing import Sequence, TextIO

from repro.aig.graph import Aig
from repro.errors import AigError


def write_aag(
    aig: Aig, outputs: Sequence[int], out: TextIO, comments: str | None = None
) -> None:
    """Write the cones of ``outputs`` in ASCII AIGER format.

    Nodes are renumbered compactly; inputs keep their relative order.
    """
    compact, new_outputs, _ = aig.extract(outputs, keep_all_inputs=True)
    num_inputs = compact.num_inputs
    num_ands = compact.num_ands
    max_index = num_inputs + num_ands
    out.write(f"aag {max_index} {num_inputs} 0 {len(new_outputs)} {num_ands}\n")
    for node in compact.inputs:
        out.write(f"{2 * node}\n")
    for edge in new_outputs:
        out.write(f"{edge}\n")
    for node in compact.and_nodes():
        f0, f1 = compact.fanins(node)
        out.write(f"{2 * node} {max(f0, f1)} {min(f0, f1)}\n")
    for position, node in enumerate(compact.inputs):
        name = compact.name_of(node)
        if name is not None:
            out.write(f"i{position} {name}\n")
    if comments:
        out.write("c\n")
        out.write(comments)
        if not comments.endswith("\n"):
            out.write("\n")


def write_aag_string(aig: Aig, outputs: Sequence[int]) -> str:
    buf = _io.StringIO()
    write_aag(aig, outputs, buf)
    return buf.getvalue()


def read_aag(text: str | TextIO) -> tuple[Aig, list[int]]:
    """Parse ASCII AIGER; returns ``(aig, output_edges)``.

    Latch declarations are rejected — sequential AIGER is handled at the
    netlist layer.  Malformed input raises :class:`AigError`.
    """
    if not isinstance(text, str):
        text = text.read()
    try:
        return _parse_aag(text.splitlines())
    except (ValueError, IndexError) as exc:
        # A non-numeric field or a section cut short.
        raise AigError(f"malformed AIGER input: {exc}") from exc


def _parse_aag(lines: list[str]) -> tuple[Aig, list[int]]:
    if not lines:
        raise AigError("empty AIGER input")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "aag":
        raise AigError(f"malformed AIGER header: {lines[0]!r}")
    _, max_index, num_inputs, num_latches, num_outputs, num_ands = header
    max_index = int(max_index)
    num_inputs, num_latches = int(num_inputs), int(num_latches)
    num_outputs, num_ands = int(num_outputs), int(num_ands)
    if num_latches:
        raise AigError("latches are handled by repro.circuits.parse, not here")
    aig = Aig()
    cursor = 1
    # old AIGER literal -> new edge
    edge_map: dict[int, int] = {0: 0, 1: 1}

    def map_edge(old: int) -> int:
        base = edge_map.get(old & ~1)
        if base is None:
            raise AigError(f"AIGER literal {old} used before definition")
        return base ^ (old & 1)

    for _ in range(num_inputs):
        literal = int(lines[cursor].split()[0])
        cursor += 1
        edge_map[literal] = aig.add_input()
    output_literals = []
    for _ in range(num_outputs):
        output_literals.append(int(lines[cursor].split()[0]))
        cursor += 1
    pending = []
    for _ in range(num_ands):
        parts = lines[cursor].split()
        cursor += 1
        if len(parts) != 3:
            raise AigError(f"malformed AND line: {lines[cursor - 1]!r}")
        pending.append((int(parts[0]), int(parts[1]), int(parts[2])))
    # AND definitions may reference later ANDs only in binary AIGER; in aag
    # they are topologically ordered, so one pass suffices.
    for literal, rhs0, rhs1 in pending:
        if literal & 1:
            raise AigError("AND node literal must be even")
        edge_map[literal] = aig.and_(map_edge(rhs0), map_edge(rhs1))
    # Symbol table: rename inputs.
    input_nodes = aig.inputs
    while cursor < len(lines):
        line = lines[cursor]
        cursor += 1
        if line.startswith("c"):
            break
        if line.startswith("i"):
            name_part = line.split(None, 1)
            position = int(name_part[0][1:])
            if len(name_part) == 2 and 0 <= position < len(input_nodes):
                aig._input_names[input_nodes[position]] = name_part[1].strip()
    outputs = [map_edge(lit) for lit in output_literals]
    return aig, outputs


def to_dot(aig: Aig, outputs: Sequence[int]) -> str:
    """Graphviz rendering of the cones of ``outputs`` (debugging aid)."""
    lines = ["digraph aig {", "  rankdir=BT;"]
    for node in aig.cone(outputs):
        if aig.is_input(node):
            lines.append(
                f'  n{node} [shape=box,label="{aig.input_name(node)}"];'
            )
        else:
            lines.append(f'  n{node} [shape=circle,label="AND"];')
            for fanin in aig.fanins(node):
                style = " [style=dashed]" if fanin & 1 else ""
                lines.append(f"  n{fanin >> 1} -> n{node}{style};")
    for index, edge in enumerate(outputs):
        style = " [style=dashed]" if edge & 1 else ""
        lines.append(f'  out{index} [shape=plaintext,label="o{index}"];')
        lines.append(f"  n{edge >> 1} -> out{index}{style};")
    lines.append("}")
    return "\n".join(lines)
