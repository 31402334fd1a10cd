"""k-induction (Sheeran, Singh, Stålmarck [5]).

Base case: no counterexample of length <= k (incremental BMC).  Step case:
no path of k+1 states, all but the last satisfying P, ending in a
violation — checked without the initial-state constraint.  With
``unique_states`` the path is additionally required to be loop-free, which
makes the method complete (k grows to the recurrence diameter at worst).

Section 4 preprocessing applies as in BMC: folding ``preimage_folds``
pre-images into the target strengthens the violation condition and removes
that many frames of input variables from the induction queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.netlist import Netlist
from repro.core.quantify import QuantifyOptions
from repro.mc.bmc import extract_trace, fold_targets
from repro.mc.result import Status, VerificationResult
from repro.mc.unroll import Unroller
from repro.sat.solver import SolveResult, Solver
from repro.util.stats import StatsBag


@dataclass
class KInductionOptions:
    """Typed configuration of :func:`k_induction` (the engine registry's
    option dataclass for the ``k_induction`` engine)."""

    max_k: int = 100
    unique_states: bool = True
    preimage_folds: int = 0
    quantify_options: QuantifyOptions | None = None


def k_induction(
    netlist: Netlist,
    max_k: int,
    unique_states: bool = True,
    preimage_folds: int = 0,
    quantify_options: QuantifyOptions | None = None,
) -> VerificationResult:
    """Prove the property by k-induction or find a counterexample.

    Returns PROVED, FAILED (with trace) or UNKNOWN when ``max_k`` is
    reached inconclusively.
    """
    netlist.validate()
    stats = StatsBag()
    targets = fold_targets(netlist, preimage_folds, quantify_options, stats)
    target = targets[-1]
    stats.set("folds", preimage_folds)

    # Base solver: initial state asserted; step solver: free first frame.
    base = Unroller(netlist, Solver())
    base.assert_initial_state()
    step = Unroller(netlist, Solver())
    distinct_done: set[tuple[int, int]] = set()

    # Folding skips violation lengths 0..j-1; probe the intermediate fold
    # targets at frame 0 so PROVED remains sound.
    for fold_depth in range(preimage_folds):
        stats.incr("base_sat_calls")
        lit = base.edge_lit_in(base.frame(0), targets[fold_depth])
        if base.solver.solve([lit]) is SolveResult.SAT:
            return VerificationResult(
                status=Status.FAILED,
                engine="k_induction",
                trace=extract_trace(
                    netlist, base, 0, targets[: fold_depth + 1], folded=True,
                    stats=stats,
                ),
                iterations=fold_depth,
                stats=stats,
            )

    for k in range(max_k + 1):
        # ---- base: violation reachable in exactly k + folds steps? ----
        stats.incr("base_sat_calls")
        bad_lit = base.edge_lit_in(base.frame(k), target)
        if base.solver.solve([bad_lit]) is SolveResult.SAT:
            return VerificationResult(
                status=Status.FAILED,
                engine="k_induction",
                trace=extract_trace(
                    netlist, base, k, targets, folded=preimage_folds > 0,
                    stats=stats,
                ),
                iterations=k + preimage_folds,
                stats=stats,
            )
        # ---- step: P ... P -> no violation at frame k+1? ----
        # Path frames 0..k satisfy P (and are pairwise distinct when
        # unique_states); frame k+1 violates.  UNSAT proves P invariant.
        stats.incr("step_sat_calls")
        assumptions = []
        for i in range(k + 1):
            assumptions.append(step.property_lit(i))
        bad_step_lit = step.edge_lit_in(step.frame(k + 1), target)
        assumptions.append(bad_step_lit)
        if unique_states:
            # Distinctness is monotone: add only the new pairs.
            for i in range(k + 2):
                for j in range(i + 1, k + 2):
                    if (i, j) not in distinct_done:
                        step.state_distinct_clauses(i, j)
                        distinct_done.add((i, j))
        if step.solver.solve(assumptions) is not SolveResult.SAT:
            stats.set("proved_at_k", k)
            return VerificationResult(
                status=Status.PROVED,
                engine="k_induction",
                iterations=k,
                stats=stats,
            )
    return VerificationResult(
        status=Status.UNKNOWN,
        engine="k_induction",
        iterations=max_k,
        stats=stats,
    )
