"""Canonical structural hashing of netlists for result caching.

Two netlists that encode the same verification problem must map to the
same key even when their AIG managers number nodes differently (different
gate construction order, dead logic left behind by rewriting, a
``clone()``/``extract()`` round-trip).  Plain node ids are therefore
useless as keys.  Instead every leaf is identified by its *role* —
"latch k with initial value v" or "primary input j" — and every AND node
by an order-insensitive digest of its fanin digests, so the hash only
sees the circuit's structure, never the manager's numbering.

The hash covers exactly what a verification verdict depends on: the
latches (order, initial values, next-state functions), the property, and
the environment constraints.  Output cones are excluded — two netlists
differing only in named outputs verify identically.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

from repro.aig.graph import Aig
from repro.circuits.netlist import Netlist
from repro.errors import ReproError

_CONST_DIGEST = hashlib.sha256(b"CONST").digest()


def _leaf_tokens(netlist: Netlist) -> dict[int, bytes]:
    """Map every registered leaf node to its role token."""
    tokens: dict[int, bytes] = {}
    for index, latch in enumerate(netlist.latches):
        tokens[latch.node] = f"L{index}:{int(latch.init)}".encode()
    for index, node in enumerate(netlist.input_nodes):
        tokens[node] = f"I{index}".encode()
    return tokens


def _edge_digests(
    aig: Aig, edges: list[int], leaf_tokens: Mapping[int, bytes]
) -> list[bytes]:
    """Canonical digest of each edge, computed bottom-up over the cones."""
    node_digest: dict[int, bytes] = {0: _CONST_DIGEST}
    fanin0, fanin1 = aig._fanin0, aig._fanin1
    sha256 = hashlib.sha256
    for node in aig.cone(edges):
        f0 = fanin0[node]
        if f0 != -1:
            f1 = fanin1[node]
            d0 = node_digest[f0 >> 1] + (b"-" if f0 & 1 else b"+")
            d1 = node_digest[f1 >> 1] + (b"-" if f1 & 1 else b"+")
            # Ordering by digest (not by node id) removes the manager's
            # fanin ordering, which depends on creation order.
            if d1 < d0:
                d0, d1 = d1, d0
            node_digest[node] = sha256(b"AND|" + d0 + b"|" + d1).digest()
        else:
            token = leaf_tokens.get(node)
            if token is None:
                raise ReproError(
                    f"node {node} ({aig.input_name(node)!r}) is neither a "
                    "registered input nor a latch; hash only validated "
                    "netlists"
                )
            node_digest[node] = hashlib.sha256(b"LEAF|" + token).digest()
    return [
        node_digest[edge >> 1] + (b"-" if edge & 1 else b"+")
        for edge in edges
    ]


def structural_hash(netlist: Netlist) -> str:
    """Hex digest keying the verification problem a netlist poses.

    Stable across AIG node renumbering and dead logic; sensitive to latch
    order, initial values, next-state functions, the property, and the
    constraints.
    """
    leaves = _leaf_tokens(netlist)
    edges: list[int] = []
    sections: list[bytes] = []
    for latch in netlist.latches:
        if latch.next_edge is not None:
            edges.append(latch.next_edge)
    if netlist.has_property:
        edges.append(netlist.property_edge)
    constraint_edges = netlist.constraints
    edges.extend(constraint_edges)
    digests = _edge_digests(netlist.aig, edges, leaves)
    cursor = 0
    for latch in netlist.latches:
        sections.append(b"latch|" + leaves[latch.node])
        if latch.next_edge is not None:
            sections.append(b"next|" + digests[cursor])
            cursor += 1
        else:
            sections.append(b"next|none")
    if netlist.has_property:
        sections.append(b"property|" + digests[cursor])
        cursor += 1
    else:
        sections.append(b"property|none")
    # Constraint order is irrelevant to the conjunction they form.
    sections.extend(
        sorted(b"constraint|" + d for d in digests[cursor:])
    )
    overall = hashlib.sha256()
    for section in sections:
        overall.update(section)
        overall.update(b"\n")
    return overall.hexdigest()
