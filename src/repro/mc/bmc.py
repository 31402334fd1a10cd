"""Bounded model checking (Biere et al. [1]) with optional quantification
preprocessing.

Plain BMC unrolls ``k`` frames and asks SAT for a length-``k`` violation.
Section 4 of the paper proposes "reducing the amount of primary input
variables by quantification as a preprocessing of SAT procedures": here
that is *pre-image folding* — before unrolling, the bad states ``NOT P``
are replaced by ``pre^j(NOT P)`` computed with circuit-based
quantification, which removes ``j`` frames (and their input variables)
from every SAT query.  A violation found at frame ``k`` then corresponds
to a real trace of length ``k + j``; the folded suffix is re-concretized
step by step with small SAT calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aig.analysis import cone_size
from repro.aig.graph import edge_not
from repro.circuits.netlist import Netlist
from repro.core.images import ImageComputer
from repro.core.quantify import QuantifyOptions
from repro.mc.result import Status, Trace, VerificationResult
from repro.mc.trace import concretize_suffix, find_violation_inputs
from repro.mc.unroll import Unroller
from repro.sat.solver import SolveResult
from repro.util.stats import StatsBag


@dataclass
class BmcOptions:
    """Typed configuration of :func:`bmc` (the engine registry's option
    dataclass for the ``bmc`` engine)."""

    max_depth: int = 100
    preimage_folds: int = 0


def bmc(
    netlist: Netlist,
    max_depth: int,
    preimage_folds: int = 0,
) -> VerificationResult:
    """Search for a counterexample of length at most ``max_depth``.

    Returns FAILED with a validated trace, or UNKNOWN if no violation
    exists within the bound (BMC alone never proves).
    """
    netlist.validate()
    stats = StatsBag()
    targets = fold_targets(netlist, preimage_folds, stats)
    target = targets[-1]
    unroller = Unroller(netlist)
    unroller.assert_initial_state()
    stats.set("folds", preimage_folds)

    def finish(
        status: Status, iterations: int, trace: Trace | None = None
    ) -> VerificationResult:
        stats.set("cnf_vars", unroller.solver.num_vars)
        stats.set("frames_unrolled", unroller.num_frames)
        return VerificationResult(
            status=status,
            engine="bmc",
            trace=trace,
            iterations=iterations,
            stats=stats,
        )

    # Folding skips lengths 0..j-1, so probe the intermediate fold targets
    # at frame 0 first (length-d violation == init state in pre^d(bad)).
    for fold_depth in range(min(preimage_folds, max_depth + 1)):
        stats.incr("sat_calls")
        lit = unroller.edge_lit_in(unroller.frame(0), targets[fold_depth])
        if unroller.solver.solve([lit]) is SolveResult.SAT:
            trace = extract_trace(
                netlist, unroller, 0, targets[: fold_depth + 1], folded=True,
                stats=stats,
            )
            return finish(Status.FAILED, fold_depth, trace)
    last_frame = max_depth - preimage_folds
    for depth in range(last_frame + 1):
        bad_lit = unroller.edge_lit_in(unroller.frame(depth), target)
        stats.incr("sat_calls")
        outcome = unroller.solver.solve([bad_lit])
        if outcome is SolveResult.SAT:
            trace = extract_trace(
                netlist, unroller, depth, targets,
                folded=preimage_folds > 0, stats=stats,
            )
            return finish(Status.FAILED, depth + preimage_folds, trace)
    return finish(Status.UNKNOWN, max_depth)


def fold_targets(netlist: Netlist, folds: int, stats: StatsBag) -> list[int]:
    """``[bad, pre(bad), ..., pre^folds(bad)]``, or ``[NOT P]`` unfolded.

    The pre-images quantify with the default (full) ``QuantifyOptions``.
    The fold targets must be pure *state* sets: the bad states quantify
    the property's own input references first, otherwise the fold would
    conflate the violation-step inputs with the transition inputs.
    """
    if not folds:
        return [edge_not(netlist.property_edge)]
    computer = ImageComputer(netlist, QuantifyOptions())
    targets = [computer.bad_states().edge]
    for _ in range(folds):
        result = computer.preimage(targets[-1])
        targets.append(result.edge)
        stats.merge(result.stats)
    stats.set("fold_target_size", cone_size(netlist.aig, targets[-1]))
    return targets


def extract_trace(
    netlist: Netlist,
    unroller: Unroller,
    depth: int,
    targets: list[int],
    folded: bool,
    stats: StatsBag | None = None,
) -> Trace:
    """Read the unrolled prefix, then concretize the folded suffix.

    ``folded`` distinguishes the two target semantics: fold targets are
    pure state sets (frame inputs are unconstrained by the query, so the
    violation witness must be recomputed), whereas the raw ``NOT P``
    target constrains the final frame's own inputs.  ``stats`` receives
    the fold walk's step counts.
    """
    states = [unroller.read_state(k) for k in range(depth + 1)]
    inputs = [unroller.read_inputs(k) for k in range(depth)]
    if len(targets) > 1:
        # states[-1] satisfies pre^j(bad); walk it down to bad itself.
        suffix_states, suffix_inputs = concretize_suffix(
            netlist, states[-1], targets, stats=stats
        )
        states.extend(suffix_states)
        inputs.extend(suffix_inputs)
    if folded:
        violation = find_violation_inputs(netlist, states[-1])
    else:
        # The violation lives in the last unrolled frame; its inputs are
        # the frame's own input assignment.
        violation = unroller.read_inputs(depth)
    return Trace(states=states, inputs=inputs, violation_inputs=violation)
