"""SAT-based merge-point detection (step 3 of the paper's merge phase).

Equivalence checks share an incremental solver: the AIG cones are
Tseitin-encoded through a persistent :class:`~repro.aig.cnf.CnfMapper`, and
each check activates two temporary "difference" clauses through a fresh
selector variable assumed for that call only.  This is the paper's
factorization of "several checks together within a single ZChaff run": the
clause database is not reloaded between checks, and what the solver learns
carries over to later checks.

The solver is right-sized, not kept forever.  A sweeper shared by a whole
traversal would otherwise hold every cone it ever encoded, and every SAT
answer would have to assign all of them.  So each top-level operation —
:meth:`SatSweeper.sweep`, :meth:`SatSweeper.merge_pair_backward` and the
don't-care phase's :func:`~repro.core.optimize.optimize_disjunction` —
first calls :meth:`SatSweeper.fit_solver` with its roots.  A fresh mapper
and solver start whenever the current one holds more than twice the live
cone of those roots: at the start of the operation, and again if a check's
encoding pushes it past that bound, so no check of the operation solves on
a bigger solver.  The rule follows from the cones alone; there is no
threshold to tune.

The backward merge walks cofactor pairs from the roots down and never
enters a pair whose b-side node already lies in a's cone: that node and
its whole cone are shared already, so no check there can add sharing.
Its work is counted as ``backward_pairs``.

Checks yield three verdicts: proven equal (UNSAT), proven different (SAT —
the model becomes a new simulation pattern), or unknown (conflict budget
exhausted; the pair is conservatively left unmerged).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.simulate import word_mask
from repro.sat.solver import Solver, SolveResult
from repro.sweep.signatures import SignatureTable
from repro.util.stats import StatsBag


# Conflicts allowed per check before it answers unknown; candidate
# representatives tried per node of a forward sweep; and the words and
# seed of the random patterns a sweeper's signature table starts from.
CONFLICT_BUDGET = 3000
MAX_CANDIDATES = 8
SIM_WORDS = 4
SIM_SEED = 2005


class SatSweeper:
    """Incremental SAT sweeping over one AIG manager."""

    def __init__(self, aig: Aig) -> None:
        self.aig = aig
        self.mapper = CnfMapper(aig, Solver())
        # Built over the first operation's roots (see signature_table).
        self.signatures: SignatureTable | None = None
        self.stats = StatsBag()
        # Live cone size of the latest operation (see fit_solver); checks
        # made outside any operation leave the solver unbounded.
        self._live_nodes: float = math.inf

    # ------------------------------------------------------------------ #
    # Primitive checks
    # ------------------------------------------------------------------ #

    def check_equal(self, a: int, b: int) -> bool | None:
        """Is ``a == b`` for all inputs?  True / False / None (unknown).

        On a SAT (different) verdict the distinguishing input pattern is
        pushed into the signature table, refining future candidate classes.
        """
        if a == b:
            return True
        if a == edge_not(b):
            return False
        self.stats.incr("sat_checks")
        lit_a, lit_b = self._literals(a, b)
        solver = self.mapper.solver
        selector = solver.new_var()
        # selector -> (a != b)
        solver.add_clause([-selector, lit_a, lit_b])
        solver.add_clause([-selector, -lit_a, -lit_b])
        result = solver.solve([selector], conflict_budget=CONFLICT_BUDGET)
        solver.add_clause([-selector])  # retire this check's clauses
        if result is SolveResult.UNSAT:
            self.stats.incr("proved_equal")
            return True
        if result is SolveResult.SAT:
            self.stats.incr("proved_different")
            self._learn_counterexample()
            return False
        self.stats.incr("unknown_checks")
        return None

    def check_constant(self, edge: int, value: bool) -> bool | None:
        """Is ``edge`` constantly ``value``?  True / False / None."""
        target = edge_not(edge) if value else edge
        if target == FALSE:
            return True
        if target == TRUE:
            return False
        self.stats.incr("sat_checks")
        [lit] = self._literals(target)
        result = self.mapper.solver.solve(
            [lit], conflict_budget=CONFLICT_BUDGET
        )
        if result is SolveResult.UNSAT:
            self.stats.incr("proved_constant")
            return True
        if result is SolveResult.SAT:
            self._learn_counterexample()
            return False
        self.stats.incr("unknown_checks")
        return None

    def _learn_counterexample(self) -> None:
        if self.signatures is None:
            return
        self.signatures.add_pattern(self.mapper.model_inputs())
        self.stats.incr("counterexamples_learned")

    def signature_table(self, roots: Sequence[int]) -> SignatureTable:
        """The shared signature table, covering the cones of ``roots``.

        Built over ``roots`` if missing; an existing table learns just the
        nodes of those cones it has not seen yet.
        """
        if self.signatures is None:
            self.signatures = SignatureTable(
                self.aig, roots, words=SIM_WORDS, seed=SIM_SEED
            )
        else:
            self.signatures.refresh_roots(roots)
        return self.signatures

    def fit_solver(self, roots: Sequence[int]) -> None:
        """Right-size the solver for an operation checking ``roots``' cones.

        Until the next operation, no check solves on a solver holding more
        than twice the live cone of ``roots``: a fresh mapper and solver
        start now if the current one is already past that, and again
        whenever a check's encoding pushes it past.  Cones encoded for
        earlier operations are dead weight, as every SAT answer must
        assign them.
        """
        cone_entry = self.aig.cone_entry
        self._live_nodes = len(
            set().union(*(cone_entry(root >> 1).order for root in roots))
        )
        if self.mapper.num_nodes > 2 * self._live_nodes:
            self._fresh_solver()

    def _fresh_solver(self) -> None:
        self.mapper = CnfMapper(self.aig, Solver())
        self.stats.incr("solver_recycles")

    def _literals(self, *edges: int) -> list[int]:
        """The edges' literals, in a solver within the operation's bound."""
        lits = [self.mapper.lit_for(edge) for edge in edges]
        if self.mapper.num_nodes > 2 * self._live_nodes:
            self._fresh_solver()
            lits = [self.mapper.lit_for(edge) for edge in edges]
        return lits

    # ------------------------------------------------------------------ #
    # Forward sweeping
    # ------------------------------------------------------------------ #

    def sweep(self, roots: list[int]) -> tuple[list[int], dict[int, int]]:
        """Forward sweep: merge equivalent nodes bottom-up.

        "Forward processing is more similar to the BDD sweeping technique,
        as we start merging from primary inputs and propagate checks to the
        primary outputs.  In this case as long as we find equivalent points,
        we can learn them, thus simplifying successive equivalence checks."

        Returns ``(new_roots, rebuilt)`` where ``rebuilt`` maps original
        nodes to their representative edges in the same manager.
        """
        aig = self.aig
        self.fit_solver(roots)
        signatures = self.signature_table(roots)
        signatures.freeze()  # keys must stay comparable within this sweep
        rebuilt: dict[int, int] = {0: FALSE}
        # Candidate classes over *original* nodes; reps store the
        # phase-normalized rebuilt edge.
        reps: dict[int, list[int]] = {}
        for node in aig.cone(roots):
            if aig.is_input(node):
                rebuilt[node] = 2 * node
                phase, key = signatures.signature_key(node)
                reps.setdefault(key, []).append(2 * node ^ int(phase))
                continue
            f0, f1 = aig.fanins(node)
            default = aig.and_(
                rebuilt[f0 >> 1] ^ (f0 & 1),
                rebuilt[f1 >> 1] ^ (f1 & 1),
            )
            if default in (FALSE, TRUE):
                rebuilt[node] = default
                self.stats.incr("constant_folds")
                continue
            # Constant candidates first (all-0/all-1 signature).
            suggested = signatures.is_candidate_constant(node)
            if suggested is not None:
                verdict = self.check_constant(default, suggested)
                if verdict:
                    rebuilt[node] = TRUE if suggested else FALSE
                    self.stats.incr("constant_merges")
                    continue
            phase, key = signatures.signature_key(node)
            merged = False
            candidates = reps.get(key, ())
            for normalized_rep in candidates[:MAX_CANDIDATES]:
                candidate = normalized_rep ^ int(phase)
                if candidate == default:
                    rebuilt[node] = default
                    merged = True
                    self.stats.incr("hash_merges")
                    break
                verdict = self.check_equal(default, candidate)
                if verdict:
                    rebuilt[node] = candidate
                    merged = True
                    self.stats.incr("sat_merges")
                    break
            if not merged:
                rebuilt[node] = default
                reps.setdefault(key, []).append(default ^ int(phase))
        new_roots = [rebuilt[e >> 1] ^ (e & 1) for e in roots]
        signatures.thaw()
        return new_roots, rebuilt

    # ------------------------------------------------------------------ #
    # Backward pairwise merging
    # ------------------------------------------------------------------ #

    def merge_pair_backward(self, a: int, b: int) -> tuple[int, dict[int, int]]:
        """Merge the cone of ``b`` into ``a`` starting from the outputs.

        "Backward processing is generally better in case of high merge
        probability (similar cofactors), as few checks on the output region
        can quickly find equivalence and merge points, and stop recursion."

        Works down from the root pair: when a pair proves equivalent the
        descent stops there (the whole sub-cone merges at once); otherwise
        the fanin pairs are tried.  Pairs whose b-node already lies in a's
        cone are skipped: that node is shared already, and so is its whole
        cone, so merging there adds no sharing.  Every ancestor of a b-node
        outside a's cone is outside it too, so the skip loses no pair the
        descent would otherwise reach.  Each pair examined counts as
        ``backward_pairs``.  Returns ``(new_b, merge_map)`` where
        ``merge_map`` maps nodes of b's cone to edges into a's cone.
        """
        aig = self.aig
        self.fit_solver([a, b])
        signatures = self.signature_table([a, b])
        signatures.freeze()
        # Frozen, the table neither learns nor flushes: every node of both
        # cones has its position, and its signature stays put.
        pos, sigs = signatures._plan.pos, signatures._sigs
        mask = word_mask(signatures.words)
        fanin0, fanin1 = aig._fanin0, aig._fanin1
        # The loop creates no node, so ``node_a * size + node_b`` keys a
        # pair by one integer.
        size = len(fanin0)
        shared = set(aig.cone_entry(a >> 1).order)
        merge_map: dict[int, int] = {}
        visited_pairs: set[int] = set()
        pairs = 0
        # Worklist of (node_of_a_cone_edge, node_of_b_cone_edge) pairs.
        worklist: list[tuple[int, int]] = [(a, b)]
        while worklist:
            edge_a, edge_b = worklist.pop()
            node_a, node_b = edge_a >> 1, edge_b >> 1
            if node_b in shared or node_b in merge_map:
                continue
            pair = node_a * size + node_b
            if pair in visited_pairs:
                continue
            visited_pairs.add(pair)
            pairs += 1
            b0 = fanin0[node_b]
            if b0 == -1:
                continue  # only AND nodes of b's cone get merged
            difference = sigs[pos[node_a]] ^ sigs[pos[node_b]]
            if (edge_a ^ edge_b) & 1:
                difference ^= mask
            compatible_equal = difference == 0
            if compatible_equal or difference == mask:
                target = edge_a if compatible_equal else edge_not(edge_a)
                verdict = self.check_equal(target, edge_b)
                if verdict:
                    # b-node expressed through a's cone; stop descending.
                    merge_map[node_b] = target ^ (edge_b & 1)
                    self.stats.incr("backward_merges")
                    continue
            # Descend into fanin pairs (all four combinations, signature
            # filtering happens on the next visit).
            a0 = fanin0[node_a]
            if a0 != -1:
                a1, b1 = fanin1[node_a], fanin1[node_b]
                worklist += ((a0, b0), (a0, b1), (a1, b0), (a1, b1))
        if pairs:
            self.stats.incr("backward_pairs", pairs)
        signatures.thaw()
        if not merge_map:
            return b, merge_map
        new_b = aig.rebuild(b, merge_map)
        return new_b, merge_map


def prove_edges_equivalent(
    aig: Aig,
    a: int,
    b: int,
    conflict_budget: int | None = None,
) -> tuple[bool | None, dict[int, bool] | None]:
    """One-shot combinational equivalence check of two edges.

    Returns ``(verdict, counterexample)``: verdict True (equal), False
    (different, with a distinguishing input assignment), or None (budget
    exhausted).
    """
    if a == b:
        return True, None
    mapper = CnfMapper(aig, Solver())
    lit_a = mapper.lit_for(a)
    lit_b = mapper.lit_for(b)
    solver = mapper.solver
    selector = solver.new_var()
    solver.add_clause([-selector, lit_a, lit_b])
    solver.add_clause([-selector, -lit_a, -lit_b])
    result = solver.solve(
        [selector],
        conflict_budget=conflict_budget,
    )
    if result is SolveResult.UNSAT:
        return True, None
    if result is SolveResult.SAT:
        return False, mapper.model_inputs()
    return None, None
