"""Binary AIGER (``aig``) format: reader and writer.

The binary format is the interchange format AIG-based tools actually
exchange (ABC, aigtools, hardware model-checking competitions).  Compared
to ASCII ``aag``:

* inputs are implicit — literals ``2..2*I`` in order;
* AND gates are implicit too — gate ``i`` defines literal
  ``2*(I+i+1)``, and only the two fanin *deltas* are stored, each as a
  LEB128-style variable-length unsigned integer:
  ``delta0 = lhs - rhs0`` and ``delta1 = rhs0 - rhs1`` with the AIGER
  ordering invariant ``lhs > rhs0 >= rhs1``.

Only the combinational subset is handled here (like :mod:`repro.aig.io`);
sequential designs go through the netlist-layer formats.
"""

from __future__ import annotations

import io as _io
from typing import BinaryIO, Sequence

from repro.aig.graph import Aig
from repro.errors import AigError


def _encode_delta(value: int, out: BinaryIO) -> None:
    """LEB128 variable-length encoding used by binary AIGER."""
    while value >= 0x80:
        out.write(bytes([(value & 0x7F) | 0x80]))
        value >>= 7
    out.write(bytes([value]))


def _decode_delta(data: bytes, cursor: int) -> tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if cursor >= len(data):
            raise AigError("truncated binary AIGER delta")
        byte = data[cursor]
        cursor += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, cursor
        shift += 7


def write_aig_binary(
    aig: Aig, outputs: Sequence[int], out: BinaryIO
) -> None:
    """Write the cones of ``outputs`` in binary AIGER format.

    The cone is compacted and renumbered so that every AND literal is
    larger than both fanins (guaranteed by the manager's topological
    creation order).
    """
    compact, new_outputs, _ = aig.extract(outputs, keep_all_inputs=True)
    num_inputs = compact.num_inputs
    num_ands = compact.num_ands
    max_index = num_inputs + num_ands
    # Renumber: input k -> literal 2(k+1); AND j -> literal 2(I+j+1).
    literal_of: dict[int, int] = {0: 0}
    for position, node in enumerate(compact.inputs):
        literal_of[node] = 2 * (position + 1)
    next_literal = 2 * (num_inputs + 1)
    and_rows: list[tuple[int, int, int]] = []
    for node in compact.and_nodes():
        f0, f1 = compact.fanins(node)
        lhs = next_literal
        literal_of[node] = lhs
        next_literal += 2
        rhs = sorted(
            (
                literal_of[f0 >> 1] ^ (f0 & 1),
                literal_of[f1 >> 1] ^ (f1 & 1),
            ),
            reverse=True,
        )
        if rhs[0] >= lhs:
            raise AigError("AND fanin literal not smaller than gate literal")
        and_rows.append((lhs, rhs[0], rhs[1]))
    header = f"aig {max_index} {num_inputs} 0 {len(new_outputs)} {num_ands}\n"
    out.write(header.encode("ascii"))
    for edge in new_outputs:
        literal = literal_of[edge >> 1] ^ (edge & 1)
        out.write(f"{literal}\n".encode("ascii"))
    for lhs, rhs0, rhs1 in and_rows:
        _encode_delta(lhs - rhs0, out)
        _encode_delta(rhs0 - rhs1, out)
    # Symbol table for named inputs, then end-of-file comment marker.
    symbols = []
    for position, node in enumerate(compact.inputs):
        name = compact.name_of(node)
        if name is not None:
            symbols.append(f"i{position} {name}\n")
    if symbols:
        out.write("".join(symbols).encode("utf-8"))


def write_aig_binary_bytes(aig: Aig, outputs: Sequence[int]) -> bytes:
    buffer = _io.BytesIO()
    write_aig_binary(aig, outputs, buffer)
    return buffer.getvalue()


def read_aig_binary(data: bytes | BinaryIO) -> tuple[Aig, list[int]]:
    """Parse binary AIGER; returns ``(aig, output_edges)``.

    Malformed input raises :class:`AigError`.
    """
    if not isinstance(data, bytes):
        data = data.read()
    try:
        return _parse_aig_binary(data)
    except ValueError as exc:
        # A non-numeric header, output or symbol field.
        raise AigError(f"malformed binary AIGER input: {exc}") from exc


def _parse_aig_binary(data: bytes) -> tuple[Aig, list[int]]:
    newline = data.find(b"\n")
    if newline < 0:
        raise AigError("missing binary AIGER header")
    header = data[:newline].decode("ascii", errors="replace").split()
    if len(header) != 6 or header[0] != "aig":
        raise AigError(f"malformed binary AIGER header: {header!r}")
    max_index, num_inputs, num_latches, num_outputs, num_ands = (
        int(token) for token in header[1:]
    )
    if num_latches:
        raise AigError("latches are handled at the netlist layer, not here")
    if max_index != num_inputs + num_ands:
        raise AigError("inconsistent binary AIGER header counts")
    cursor = newline + 1
    output_literals: list[int] = []
    for _ in range(num_outputs):
        newline = data.find(b"\n", cursor)
        if newline < 0:
            raise AigError("truncated output section")
        output_literals.append(int(data[cursor:newline]))
        cursor = newline + 1
    aig = Aig()
    edge_of: dict[int, int] = {0: 0}
    for position in range(num_inputs):
        edge_of[2 * (position + 1)] = aig.add_input()

    def resolve(literal: int) -> int:
        base = edge_of.get(literal & ~1)
        if base is None:
            raise AigError(f"literal {literal} used before definition")
        return base ^ (literal & 1)

    lhs = 2 * num_inputs
    for _ in range(num_ands):
        lhs += 2
        delta0, cursor = _decode_delta(data, cursor)
        delta1, cursor = _decode_delta(data, cursor)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if rhs0 < 0 or rhs1 < 0:
            raise AigError("negative literal in binary AIGER deltas")
        edge_of[lhs] = aig.and_(resolve(rhs0), resolve(rhs1))
    # Optional symbol table (input names only).
    input_nodes = aig.inputs
    remainder = data[cursor:].decode("utf-8", errors="replace")
    for line in remainder.splitlines():
        if line.startswith("c"):
            break
        if line.startswith("i"):
            parts = line.split(None, 1)
            position = int(parts[0][1:])
            if len(parts) == 2 and 0 <= position < len(input_nodes):
                aig._input_names[input_nodes[position]] = parts[1].strip()
    return aig, [resolve(literal) for literal in output_literals]
