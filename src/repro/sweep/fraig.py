"""FRAIG-style functional reduction: sweep, then garbage-collect.

The paper's merge phase proves node equivalences but leaves the manager
monotone — superseded logic stays behind (append-only AIGs never free
nodes).  A *functionally reduced* AIG additionally drops that garbage:
the swept cones are extracted into a fresh manager, so the node count
really shrinks instead of only the live cone getting smaller.

``fraig`` iterates sweep-and-extract rounds until no further merge is
found; each extraction gives the next round's signatures and SAT session
a smaller problem.  The portfolio preprocesses netlists with
:func:`fraig_netlist`; the benchmarks run ``fraig`` standalone on
state-set snapshots (experiment F3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.analysis import cone_size_many
from repro.aig.graph import Aig
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


# Sweep-and-extract rounds at most, however many merges keep landing.
MAX_ROUNDS = 4


@dataclass
class FraigResult:
    """A functionally reduced copy of the requested cones."""

    aig: Aig
    edges: list[int]
    node_map: dict[int, int]   # original input nodes -> new input nodes
    stats: StatsBag

    @property
    def size(self) -> int:
        return self.aig.num_ands


def fraig(
    aig: Aig,
    roots: list[int],
    keep_all_inputs: bool = False,
) -> FraigResult:
    """Functionally reduce the cones of ``roots`` into a fresh manager.

    Each round sweeps with a fresh :class:`SatSweeper` (the factorized
    incremental CDCL session, with its module's budgets).  Rounds repeat
    while merges keep landing, up to ``MAX_ROUNDS``.

    Returns a :class:`FraigResult` whose ``node_map`` maps the original
    manager's *input nodes* to the new manager's input nodes, so callers
    (e.g. :func:`fraig_netlist`) can re-anchor latches and inputs.
    """
    stats = StatsBag()
    stats.set("size_before", cone_size_many(aig, roots))
    current_aig = aig
    current_roots = list(roots)
    # original input node -> current manager's input node
    input_map = {node: node for node in aig.inputs}
    for _ in range(MAX_ROUNDS):
        sweeper = SatSweeper(current_aig)
        swept_roots, _ = sweeper.sweep(current_roots)
        stats.merge(sweeper.stats)
        stats.incr("rounds")
        merges = sweeper.stats.get("sat_merges", 0) + sweeper.stats.get(
            "constant_merges", 0
        )
        extracted, new_roots, node_map = current_aig.extract(
            swept_roots, keep_all_inputs=keep_all_inputs
        )
        input_map = {
            original: node_map[node] >> 1
            for original, node in input_map.items()
            if node in node_map
        }
        current_aig, current_roots = extracted, new_roots
        if merges == 0:
            break
    stats.set("size_after", cone_size_many(current_aig, current_roots))
    return FraigResult(
        aig=current_aig,
        edges=current_roots,
        node_map=input_map,
        stats=stats,
    )


def fraig_netlist(netlist) -> "Netlist":
    """A functionally reduced copy posing the same verification problem.

    Reduces the latch next-state cones, the property and the constraints
    into a fresh manager, preserving latch/input registration order,
    names and initial values — so the copy has the same structural hash
    *role* layout and the same positional trace encoding as the original
    (a counterexample found on the copy remaps onto the original by
    position).  This is the portfolio's preprocessing hook.
    """
    # Imported here: repro.circuits must not become a hard dependency of
    # the sweep package's module graph (the AIG-level API stays pure).
    from repro.circuits.netlist import Latch, Netlist

    netlist.validate()
    roots = [latch.next_edge for latch in netlist.latches]
    if netlist.has_property:
        roots.append(netlist.property_edge)
    roots.extend(netlist.constraints)
    if not roots:
        return netlist
    reduced = fraig(netlist.aig, roots, keep_all_inputs=True)
    node_map = reduced.node_map  # original input node -> new input node
    latches = []
    cursor = 0
    for latch in netlist.latches:
        latches.append(
            Latch(
                node=node_map[latch.node],
                next_edge=reduced.edges[cursor],
                init=latch.init,
                name=latch.name,
            )
        )
        cursor += 1
    property_edge = None
    if netlist.has_property:
        property_edge = reduced.edges[cursor]
        cursor += 1
    return Netlist.from_aig(
        reduced.aig,
        input_nodes=[node_map[n] for n in netlist.input_nodes],
        latches=latches,
        property_edge=property_edge,
        constraints=reduced.edges[cursor:],
        name=netlist.name,
    )
