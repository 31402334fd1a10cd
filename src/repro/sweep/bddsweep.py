"""BDD sweeping (step 2 of the merge phase, after Kuehlmann-Krohm [4]).

BDDs are built bottom-up for every node of the target cones inside a
node-budgeted manager.  Two nodes whose BDDs coincide (directly or as
complements) are *provably* equivalent — canonicity makes the check free —
and merge immediately.  When a node's BDD construction blows the budget,
the node becomes a *cut point*: it gets a fresh BDD variable and
construction continues above it.  Equality of BDDs over cut variables still
implies functional equivalence (the cut variable can be re-substituted by
the common function), so merging stays sound; inequality however proves
nothing, which is why SAT checks follow as step 3.

A :class:`BddSweepTable` keeps the manager and the per-node maps from one
sweep to the next, so a run that sweeps many overlapping cones (the
cofactor pairs of one traversal) builds BDDs only for nodes it has not
seen.  Two rules keep the shared table equivalent to a fresh one per call:

* **restart**: a sweep that overruns a table already holding earlier
  sweeps drops it and starts over in a fresh one (``bdd_recycles``).
  Only a fresh table makes cut points, so no sweep gets less budget than
  it would alone;
* **support guard**: every rebuilt edge and every representative carries
  a bitmask over the table's input variables, an upper bound of its
  structural support.  A node merges into a representative only when the
  representative's mask lies within the node's own; otherwise the node
  becomes the representative of its BDD.  Without the guard, a
  representative from an earlier sweep could bring back a variable the
  caller has just quantified away.
"""

from __future__ import annotations

from repro.aig.graph import FALSE, TRUE, Aig
from repro.bdd.manager import BDD_FALSE, BDD_TRUE, BddManager
from repro.errors import BddLimitExceeded
from repro.util.stats import StatsBag


# Node budget of a BDD sweeping table; past it, a fresh table makes cut
# points and a table holding earlier sweeps starts over.
BDD_NODE_LIMIT = 2000


class BddSweepTable:
    """The BDD manager and node maps that successive sweeps share."""

    def __init__(self, aig: Aig) -> None:
        self.aig = aig
        self.reset()

    def reset(self) -> None:
        """Forget every sweep: the next one starts in an empty manager of
        ``BDD_NODE_LIMIT`` nodes."""
        self.manager = BddManager(max_nodes=BDD_NODE_LIMIT)
        # Primary input (or cut point) -> its BDD variable.
        self.var_of_input: dict[int, int] = {}
        self.node_bdd: dict[int, int] = {0: BDD_FALSE}
        # Node -> representative edge, and that edge's support mask.
        self.rebuilt: dict[int, int] = {0: FALSE}
        self.rebuilt_support: dict[int, int] = {0: 0}
        # Canonical BDD -> (representative AIG edge, its support mask).
        # Store both phases so that antivalent nodes merge through a
        # complemented edge.
        self.representative: dict[int, tuple[int, int]] = {
            BDD_FALSE: (FALSE, 0), BDD_TRUE: (TRUE, 0),
        }
        self.fresh = True

    def _fresh_var(self, node: int) -> int:
        bdd = self.manager.new_var()
        self.var_of_input[node] = bdd
        return bdd

    def _represent(
        self, bdd: int, edge: int, mask: int, fresh: bool, stats: StatsBag
    ) -> None:
        """Make ``edge`` the representative of ``bdd`` (and, unless one
        exists, its complement that of ``not bdd``)."""
        self.representative[bdd] = (edge, mask)
        try:
            negated = self.manager.not_(bdd)
        except BddLimitExceeded:
            if not fresh:
                raise
            stats.incr("complement_skipped")
            return
        self.representative.setdefault(negated, (edge ^ 1, mask))

    def sweep(self, roots: list[int], stats: StatsBag) -> list[int]:
        """Sweep the nodes of the cones of ``roots`` the table has not
        seen; returns the swept roots.

        Only a fresh table turns a budget overrun into a cut point (or a
        skipped complement); any other table lets
        :class:`BddLimitExceeded` escape, half-updated, for the caller to
        :meth:`reset`.
        """
        fresh, self.fresh = self.fresh, False
        aig, manager = self.aig, self.manager
        node_bdd, rebuilt = self.node_bdd, self.rebuilt
        rebuilt_support = self.rebuilt_support
        representative = self.representative
        for node in aig.cone(roots, known=node_bdd):
            if aig.is_input(node):
                mask = 1 << manager.num_vars
                bdd = self._fresh_var(node)
                node_bdd[node] = bdd
                rebuilt[node] = 2 * node
                rebuilt_support[node] = mask
                self._represent(bdd, 2 * node, mask, fresh, stats)
                continue
            f0, f1 = aig.fanins(node)
            default = aig.and_(
                rebuilt[f0 >> 1] ^ (f0 & 1),
                rebuilt[f1 >> 1] ^ (f1 & 1),
            )
            if default in (FALSE, TRUE):
                rebuilt[node] = default
                rebuilt_support[node] = 0
                node_bdd[node] = BDD_FALSE if default == FALSE else BDD_TRUE
                stats.incr("constant_folds")
                continue
            mask = rebuilt_support[f0 >> 1] | rebuilt_support[f1 >> 1]
            b0 = node_bdd[f0 >> 1]
            b1 = node_bdd[f1 >> 1]
            try:
                if f0 & 1:
                    b0 = manager.not_(b0)
                if f1 & 1:
                    b1 = manager.not_(b1)
                bdd = manager.and_(b0, b1)
            except BddLimitExceeded:
                if not fresh:
                    raise
                # Too big: this node becomes a cut point with a fresh
                # variable.
                stats.incr("cut_points")
                bdd = self._fresh_var(node)
            node_bdd[node] = bdd
            known = representative.get(bdd)
            if known is not None:
                existing, known_mask = known
                if not known_mask & ~mask:
                    if existing != default:
                        stats.incr("bdd_merges")
                    rebuilt[node] = existing
                    rebuilt_support[node] = known_mask
                    continue
                # The representative reads a variable this node does not.
                stats.incr("support_guarded")
            rebuilt[node] = default
            rebuilt_support[node] = mask
            self._represent(bdd, default, mask, fresh, stats)
        return [rebuilt[e >> 1] ^ (e & 1) for e in roots]


def bdd_sweep(
    aig: Aig,
    roots: list[int],
    table: BddSweepTable | None = None,
) -> tuple[list[int], dict[int, int], StatsBag]:
    """Sweep the cones of ``roots`` by bounded BDD construction.

    Returns ``(new_roots, rebuilt, stats)``: ``rebuilt`` maps original
    nodes to representative edges in the same AIG manager.  Without a
    ``table`` the sweep runs in a fresh one of ``BDD_NODE_LIMIT`` nodes;
    with one it reuses what earlier sweeps built, and a budget overrun
    starts the table over (``bdd_recycles``).
    """
    stats = StatsBag()
    if table is None:
        table = BddSweepTable(aig)
    try:
        new_roots = table.sweep(roots, stats)
    except BddLimitExceeded:
        # Only a table holding earlier sweeps lets an overrun escape.
        table.reset()
        stats = StatsBag()
        stats.incr("bdd_recycles")
        new_roots = table.sweep(roots, stats)
    stats.set("bdd_nodes", table.manager.num_nodes)
    return new_roots, table.rebuilt, stats
