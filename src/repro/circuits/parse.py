"""A small text format for sequential netlists (AIGER-inspired).

Format (line oriented, ``#`` comments)::

    netlist <name>
    input <name>
    latch <name> <init 0|1>
    # gates reference signals by name; operands may be prefixed with !
    and <name> <op1> <op2>
    next <latch-name> <signal>
    output <name> <signal>
    property <signal>
    constraint <signal>

``and`` lines must be topologically ordered.  The constants ``0`` and ``1``
are predefined signal names.
"""

from __future__ import annotations

from repro.aig.graph import FALSE, TRUE, edge_not
from repro.circuits.netlist import Netlist
from repro.errors import NetlistError


def parse_netlist(text: str) -> Netlist:
    """Parse the textual netlist format into a validated Netlist."""
    netlist: Netlist | None = None
    signals: dict[str, int] = {"0": FALSE, "1": TRUE}
    latch_edges: dict[str, int] = {}

    def resolve(token: str) -> int:
        invert = token.startswith("!")
        name = token[1:] if invert else token
        if name not in signals:
            raise NetlistError(f"unknown signal {name!r}")
        edge = signals[name]
        return edge_not(edge) if invert else edge

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        try:
            if keyword == "netlist":
                netlist = Netlist(parts[1] if len(parts) > 1 else "")
            elif netlist is None:
                raise NetlistError("file must start with a netlist line")
            elif keyword == "input":
                signals[parts[1]] = netlist.add_input(parts[1])
            elif keyword == "latch":
                init_token = parts[2] if len(parts) > 2 else "0"
                if init_token not in ("0", "1"):
                    raise NetlistError(
                        f"latch init must be 0 or 1, got {init_token!r}"
                    )
                init = init_token == "1"
                edge = netlist.add_latch(parts[1], init=init)
                signals[parts[1]] = edge
                latch_edges[parts[1]] = edge
            elif keyword == "and":
                signals[parts[1]] = netlist.aig.and_(
                    resolve(parts[2]), resolve(parts[3])
                )
            elif keyword == "next":
                if parts[1] not in latch_edges:
                    raise NetlistError(f"{parts[1]!r} is not a latch")
                netlist.set_next(latch_edges[parts[1]], resolve(parts[2]))
            elif keyword == "output":
                netlist.set_output(parts[1], resolve(parts[2]))
            elif keyword == "property":
                netlist.set_property(resolve(parts[1]))
            elif keyword == "constraint":
                netlist.add_constraint(resolve(parts[1]))
            else:
                raise NetlistError(f"unknown keyword {keyword!r}")
        except IndexError as exc:
            raise NetlistError(f"line {line_no}: missing fields") from exc
        except NetlistError as exc:
            raise NetlistError(f"line {line_no}: {exc}") from exc
    if netlist is None:
        raise NetlistError("empty netlist text")
    netlist.validate()
    return netlist


def serialize_netlist(netlist: Netlist) -> str:
    """Inverse of :func:`parse_netlist` (gate names are generated)."""
    aig = netlist.aig
    lines = [f"netlist {netlist.name}".rstrip()]
    names: dict[int, str] = {}
    for node in netlist.input_nodes:
        name = aig.input_name(node)
        names[node] = name
        lines.append(f"input {name}")
    for latch in netlist.latches:
        names[latch.node] = latch.name
        lines.append(f"latch {latch.name} {int(latch.init)}")

    roots = [latch.next_edge for latch in netlist.latches]
    roots.extend(netlist.outputs.values())
    if netlist.has_property:
        roots.append(netlist.property_edge)
    roots.extend(netlist.constraints)

    def token(edge: int) -> str:
        node = edge >> 1
        if node == 0:
            return "1" if edge & 1 else "0"
        return ("!" if edge & 1 else "") + names[node]

    counter = 0
    for node in aig.cone(roots):
        if not aig.is_and(node):
            continue
        name = f"g{counter}"
        counter += 1
        f0, f1 = aig.fanins(node)
        names[node] = name
        lines.append(f"and {name} {token(f0)} {token(f1)}")
    for latch in netlist.latches:
        lines.append(f"next {latch.name} {token(latch.next_edge)}")
    for out_name, edge in netlist.outputs.items():
        lines.append(f"output {out_name} {token(edge)}")
    if netlist.has_property:
        lines.append(f"property {token(netlist.property_edge)}")
    for edge in netlist.constraints:
        lines.append(f"constraint {token(edge)}")
    return "\n".join(lines) + "\n"
