"""Merge-phase orchestration for cofactor pairs (Section 2.1).

Given the two cofactors of a Shannon expansion, maximize sub-circuit
sharing before taking their disjunction.  Three engines run in the paper's
order — structural hashing (implicit), BDD sweeping, SAT checks — and the
SAT stage supports both processing directions the paper compares:

* ``backward``: try to prove output-region pairs equivalent first and stop
  descending on success (wins when the cofactors are similar);
* ``forward``: sweep the union of both cones from the inputs up, learning
  merges as it goes (wins when cofactors are dissimilar — behaves like
  BDD sweeping).

BDD sweeping runs in a :class:`~repro.sweep.bddsweep.BddSweepTable` of
``BDD_NODE_LIMIT`` nodes.  A caller that merges many cofactor pairs (a
quantification, or every image of a traversal) passes one table to every
call, so each pair builds BDDs only for the nodes earlier pairs have not
seen.  A pair that overruns a table holding earlier pairs restarts in a
fresh one (``bdd_recycles``), and a support guard keeps a representative
from an earlier pair from bringing back a variable that is already
quantified (see :mod:`repro.sweep.bddsweep`).  Without a table, each call
sweeps in a fresh table of its own.
"""

from __future__ import annotations

from repro.aig.graph import Aig
from repro.errors import AigError
from repro.sweep.bddsweep import BddSweepTable, bdd_sweep
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


# Node budget of a BDD sweeping table; past it, a fresh table makes cut
# points and a table holding earlier sweeps starts over.
BDD_NODE_LIMIT = 2000


def merge_cofactors(
    aig: Aig,
    cof0: int,
    cof1: int,
    use_bdd_sweep: bool = True,
    use_sat_merge: bool = True,
    order: str = "backward",
    sweeper: SatSweeper | None = None,
    bdd_table: BddSweepTable | None = None,
) -> tuple[int, int, StatsBag]:
    """Run the merge phase on a cofactor pair; returns merged edges + stats.

    ``order`` is the SAT stage's direction, ``"backward"`` or
    ``"forward"``.  Without a ``sweeper`` the SAT stage makes its own;
    without a ``bdd_table`` BDD sweeping does.
    """
    if order not in ("backward", "forward"):
        raise AigError(f"unknown merge order: {order!r}")
    stats = StatsBag()
    if use_bdd_sweep:
        (cof0, cof1), _, bdd_stats = bdd_sweep(
            aig, [cof0, cof1], node_limit=BDD_NODE_LIMIT, table=bdd_table
        )
        stats.merge(bdd_stats)
    if use_sat_merge:
        if sweeper is None:
            sweeper = SatSweeper(aig)
        before = sweeper.stats.as_dict()
        if order == "backward":
            cof1, _ = sweeper.merge_pair_backward(cof0, cof1)
        else:
            (cof0, cof1), _ = sweeper.sweep([cof0, cof1])
        # The sweeper may be shared: report only what this call did.
        sweeper_stats = sweeper.stats.growth_since(before)
        stats.merge(sweeper_stats)
        stats.incr("merge_sat_checks", sweeper_stats.get("sat_checks"))
    return cof0, cof1, stats


def new_bdd_table(aig: Aig) -> BddSweepTable:
    """An empty BDD sweeping table of ``BDD_NODE_LIMIT`` nodes."""
    return BddSweepTable(aig, node_limit=BDD_NODE_LIMIT)
