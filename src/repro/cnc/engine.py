"""The ``cnc`` engine: one deep unrolling, split, conquered in parallel.

BMC sweeps depths one SAT call at a time on one core.  ``cnc`` instead
builds a single combinational *violation target* — "some step ``d <=
max_depth`` satisfies the constraints so far and violates the property"
— by unrolling the netlist at the AIG level (latches substituted frame
by frame, fresh scratch inputs per frame, constant-folded from the
initial state), then hands that one hard instance to the Cube stage.
The cube tree turns it into many genuinely smaller subproblems and the
conquer pool solves them concurrently: the first SAT cube yields a
counterexample (replayed forward on the original netlist into a
standard, validated :class:`~repro.mc.result.Trace`), all-UNSAT is a
bound-exhausted UNKNOWN — or a PROVED verdict when the netlist is
combinational, where depth 0 covers the whole space.

:func:`split_solve` is the split machinery itself, applied to any one
combinational target edge; the engine calls it on the unrolled target.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import or_all
from repro.aig.simulate import eval_edge
from repro.circuits.netlist import Netlist
from repro.cnc.conquer import conquer, make_task
from repro.cnc.cube import CubeTree, build_cube_tree
from repro.cnc.options import CncOptions
from repro.errors import ModelCheckingError
from repro.mc.result import Status, Trace, VerificationResult
from repro.obs import probes as _obs
from repro.sat.solver import SolveResult
from repro.util.stats import StatsBag


@dataclass
class SplitOutcome:
    """Aggregate verdict of one split-solved target."""

    verdict: SolveResult
    model: dict[int, bool] | None = None
    cubes: int = 0
    refuted: int = 0
    stats: StatsBag = field(default_factory=StatsBag)


def _effective_workers(workers: int) -> int:
    # Daemonic children (portfolio workers, conquer workers themselves)
    # cannot fork their own pool; degrade to the in-process path.
    if workers > 0 and multiprocessing.current_process().daemon:
        return 0
    return workers


def _aggregate(
    aig: Aig,
    target: int,
    tree: CubeTree,
    outcomes,
    stats: StatsBag,
) -> SplitOutcome:
    """Fold the cube outcomes into a single verdict."""
    split = SplitOutcome(
        verdict=SolveResult.UNSAT,
        cubes=len(tree.leaves),
        refuted=tree.refuted_leaves,
        stats=stats,
    )
    for outcome in outcomes:
        if outcome.verdict == "sat":
            if not eval_edge(aig, target, outcome.model):
                raise ModelCheckingError(
                    "cnc produced a model that does not satisfy the "
                    "split target"
                )
            split.verdict = SolveResult.SAT
            split.model = outcome.model
            return split
    if any(outcome.verdict == "crashed" for outcome in outcomes):
        # A crashed cube decided nothing, so the split decides nothing.
        split.verdict = SolveResult.UNKNOWN
    return split


def split_solve(
    aig: Aig,
    target: int,
    *,
    cube_depth: int = 4,
    candidates_limit: int = 10,
    workers: int = 0,
    stats: StatsBag | None = None,
) -> SplitOutcome:
    """Cube-and-conquer one combinational target edge.

    SAT models are returned over the target cone's input *nodes*
    (missing inputs are don't-cares; complete with False).  ``workers=0``
    (the default) solves the cubes in-process and deterministically;
    positive values fan them out over that many processes.
    """
    bag = stats if stats is not None else StatsBag()
    workers = _effective_workers(workers)
    with _obs.span("cnc.cube", "engine", cube_depth=cube_depth):
        tree = build_cube_tree(
            aig,
            target,
            cube_depth=cube_depth,
            candidates_limit=candidates_limit,
            stats=bag,
        )
    open_leaves = tree.open_leaves
    if not open_leaves:
        return SplitOutcome(
            verdict=SolveResult.UNSAT,
            cubes=len(tree.leaves),
            refuted=tree.refuted_leaves,
            stats=bag,
        )
    tasks = [
        make_task(aig, leaf, tag=index)
        for index, leaf in enumerate(open_leaves)
    ]
    with _obs.span("cnc.conquer", "engine", cubes=len(tasks),
                   workers=workers):
        outcomes = conquer(
            tasks,
            workers=workers,
            lookahead_refuted=tree.refuted_leaves,
            stats=bag,
        )
    return _aggregate(aig, target, tree, outcomes, bag)


# ---------------------------------------------------------------------- #
# The registered engine: BMC-style unrolling, split, conquered
# ---------------------------------------------------------------------- #


def _unroll_violation(
    netlist: Netlist, bound: int
) -> tuple[Netlist, int, list[dict[int, int]]]:
    """One combinational "violation within <= bound steps" target.

    Built in a fresh clone so the rebuild churn never pollutes the
    caller's manager.  Returns ``(clone, target_edge, frames)`` where
    ``frames[d]`` maps the *original* netlist's input nodes to the
    clone-manager scratch input node carrying that input at step ``d``.
    """
    clone, node_map = netlist.clone()
    aig = clone.aig
    inverse = {clone_node: orig for orig, clone_node in node_map.items()}
    state = {
        latch.node: (TRUE if latch.init else FALSE)
        for latch in clone.latches
    }
    next_funcs = clone.next_functions()
    frames: list[dict[int, int]] = []
    bads = []
    prefix = TRUE
    for depth in range(bound + 1):
        substitution = dict(state)
        frame: dict[int, int] = {}
        for node in clone.input_nodes:
            fresh = aig.add_input(f"{aig.input_name(node)}@{depth}")
            substitution[node] = fresh
            frame[inverse[node]] = fresh >> 1
        frames.append(frame)
        cache: dict[int, int] = {}
        for edge in clone.constraints:
            prefix = aig.and_(prefix, aig.rebuild(edge, substitution, cache))
        bads.append(
            aig.and_(
                prefix,
                edge_not(aig.rebuild(clone.property_edge, substitution,
                                     cache)),
            )
        )
        if depth < bound:
            state = {
                node: aig.rebuild(next_funcs[node], substitution, cache)
                for node in state
            }
    return clone, or_all(aig, bads), frames


def _extract_trace(
    netlist: Netlist,
    frames: list[dict[int, int]],
    model: dict[int, bool],
) -> tuple[Trace, int]:
    """Replay the unrolling model forward into a standard trace."""
    inputs_per_step = [
        {orig: model.get(node, False) for orig, node in frame.items()}
        for frame in frames
    ]
    states = [netlist.init_assignment()]
    for depth, step_inputs in enumerate(inputs_per_step):
        current = states[-1]
        if not netlist.constraints_hold(current, step_inputs):
            break
        if not netlist.property_holds(current, step_inputs):
            return (
                Trace(
                    states=states,
                    inputs=inputs_per_step[:depth],
                    violation_inputs=step_inputs,
                ),
                depth,
            )
        states.append(netlist.simulate_step(current, step_inputs))
    raise ModelCheckingError(
        "cnc unrolling model does not replay to a property violation"
    )


def cnc_verify(
    netlist: Netlist, options: CncOptions | None = None
) -> VerificationResult:
    """Run cube-and-conquer bounded model checking on a netlist."""
    options = options if options is not None else CncOptions()
    options.validate()
    stats = StatsBag()
    bound = 0 if netlist.num_latches == 0 else options.max_depth
    workers = _effective_workers(options.workers)
    stats.set("cnc_bound", bound)
    stats.set("cnc_workers", workers)
    with _obs.span("cnc.unroll", "engine", bound=bound):
        clone, target, frames = _unroll_violation(netlist, bound)
    outcome = split_solve(
        clone.aig,
        target,
        cube_depth=options.cube_depth,
        candidates_limit=options.candidates_limit,
        workers=workers,
        stats=stats,
    )
    stats.set("cnc_cubes", outcome.cubes)
    stats.set("cnc_refuted_by_lookahead", outcome.refuted)
    result = VerificationResult(status=Status.UNKNOWN, engine="cnc")
    result.stats = stats
    if outcome.verdict is SolveResult.SAT:
        trace, depth = _extract_trace(netlist, frames, outcome.model)
        result.status = Status.FAILED
        result.trace = trace
        result.iterations = depth
        return result
    result.iterations = bound
    if outcome.verdict is SolveResult.UNSAT:
        if netlist.num_latches == 0:
            # Depth 0 of a combinational netlist is the whole space:
            # all cubes UNSAT is a proof, not a bound exhaustion.
            result.status = Status.PROVED
        else:
            stats.incr("cnc_bound_exhausted")
    else:
        stats.incr("cnc_split_crashed")
    return result
