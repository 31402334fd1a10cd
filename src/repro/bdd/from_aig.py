"""Bridges between AIGs and BDDs.

``aig_to_bdd`` builds BDDs bottom-up for every node of a cone and
*raises* :class:`~repro.errors.BddLimitExceeded` when the manager's node
budget is exhausted, letting the caller give up or cut the offending
node.  The BDD traversal lifts its netlist with it.  ``bdd_to_aig``
converts back (multiplexer per BDD node).  The AIG traversals use both
to re-encode their images through a budgeted table
(:class:`repro.mc.reach_aig.ReencodingTable`).
"""

from __future__ import annotations

from typing import Container, Mapping

from repro.aig.graph import FALSE, TRUE, Aig
from repro.aig.ops import ite as aig_ite
from repro.bdd.manager import BDD_FALSE, BDD_TRUE, BddManager
from repro.errors import BddError


def aig_to_bdd(
    aig: Aig,
    edge: int,
    manager: BddManager,
    var_map: Mapping[int, int],
    node_cache: dict[int, int] | None = None,
) -> int:
    """Build the BDD of an AIG edge.

    ``var_map`` maps AIG input *nodes* to BDD variable *indices*.  Inputs
    missing from the map raise :class:`BddError`.  ``node_cache`` (AIG node
    -> BDD node) may be shared across calls to amortize work over a cone:
    the walk visits only the nodes it lacks and stops at cached ones.  The
    BDD traversal shares one over its next-state functions, and the AIG
    traversals' re-encoding table one over a whole run.

    Raises :class:`~repro.errors.BddLimitExceeded` if the manager has a node
    budget and it is exhausted mid-construction.
    """
    if node_cache is None:
        node_cache = {}
    node_cache.setdefault(0, BDD_FALSE)
    fanin0, fanin1 = aig._fanin0, aig._fanin1
    not_, and_ = manager.not_, manager.and_
    for node in aig.cone([edge], known=node_cache):
        f0 = fanin0[node]
        if f0 == -1:
            if node not in var_map:
                raise BddError(f"AIG input {node} missing from var_map")
            node_cache[node] = manager.var_node(var_map[node])
            continue
        f1 = fanin1[node]
        b0 = node_cache[f0 >> 1]
        if f0 & 1:
            b0 = not_(b0)
        b1 = node_cache[f1 >> 1]
        if f1 & 1:
            b1 = not_(b1)
        node_cache[node] = and_(b0, b1)
    result = node_cache[edge >> 1]
    return not_(result) if edge & 1 else result


def bdd_to_aig(
    manager: BddManager,
    bdd_node: int,
    aig: Aig,
    var_edges: Mapping[int, int],
    cache: dict[int, int] | None = None,
) -> int:
    """Convert a BDD to an AIG edge (one mux per BDD node).

    ``var_edges`` maps BDD variable indices to AIG edges.  ``cache`` (BDD
    node -> AIG edge) may be shared across calls with the same manager,
    AIG and ``var_edges``: the walk stops at cached nodes, so each call
    builds muxes only for BDD nodes it has not seen.  Both managers only
    grow, and a repeated mux is a structural-hashing hit, so the shared
    cache changes no result and no node numbering.
    """
    if cache is None:
        cache = {}
    cache.setdefault(BDD_FALSE, FALSE)
    cache.setdefault(BDD_TRUE, TRUE)
    for node in _topological(manager, bdd_node, cache):
        var = manager.var_of(node)
        if var not in var_edges:
            raise BddError(f"BDD variable {var} missing from var_edges")
        low = cache[manager.low_of(node)]
        high = cache[manager.high_of(node)]
        cache[node] = aig_ite(aig, var_edges[var], high, low)
    return cache[bdd_node]


def _topological(
    manager: BddManager, root: int, known: Container[int] = ()
) -> list[int]:
    """The BDD nodes below ``root``, children first, stopping at the
    terminals and at nodes in ``known``."""
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node <= 1 or node in seen or node in known:
            continue
        seen.add(node)
        stack.append((node, True))
        stack.append((manager.low_of(node), False))
        stack.append((manager.high_of(node), False))
    return order
