"""Backward reachability with AIG state sets (Section 3 of the paper).

"We modify standard breadth-first reachability in order to exploit circuit
based quantification.  Given an invariant property P we start reachability
from its complement and we terminate as soon as no newly reached states are
found (fix-point) or we intersect the initial state set, delivering a
counter-example.  In our implementation all state sets are represented and
manipulated using AIGs instead of BDDs.  Operations on AIGs, e.g.,
equivalence, are performed using a SAT engine."

The engine keeps a private clone of the netlist, takes its bad states and
pre-images from :class:`~repro.core.images.ImageComputer` (in-lining, then
circuit-based input quantification, all-SAT, or the hybrid partial+all-SAT
combination of Section 4), checks frontier emptiness and init
intersection with SAT, and periodically compacts its manager.  All SAT
queries of one compaction epoch run on a single incremental solver, so
each AIG node is Tseitin-encoded at most once per epoch.
:class:`AigTraversal` holds what it shares with the forward engine of
:mod:`repro.mc.reach_aig_fwd`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.analysis import cone_size
from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.aig.ops import or_
from repro.circuits.netlist import Netlist
from repro.core.images import ImageComputer
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError, ResourceLimit
from repro.mc.result import Status, Trace, VerificationResult
from repro.mc.trace import concretize_suffix, find_violation_inputs
from repro.sat.solver import SolveResult, Solver
from repro.util.stats import StatsBag

# Unused here (ImageComputer in-lines and quantifies); perfbench/tracing.py
# patches these names on this module.
from repro.core.quantify import quantify_exists  # noqa: F401
from repro.core.substitution import preimage_by_substitution  # noqa: F401


@dataclass
class ReachOptions:
    """Configuration of the backward traversal."""

    quantify: QuantifyOptions = field(
        default_factory=lambda: QuantifyOptions.preset("full")
    )
    # "circuit": full circuit quantification (the paper's core method);
    # "allsat": pure SAT enumeration (the Ganai et al. baseline);
    # "hybrid": partial circuit quantification, all-SAT on the residual
    #           (the Section 4 combination).
    input_elimination: str = "circuit"
    partial_growth_factor: float = 2.0
    max_iterations: int = 10_000
    compact_every: int = 4          # manager compaction period (iterations)
    max_manager_nodes: int = 2_000_000
    allsat_max_cubes: int | None = None
    # Functionally reduce the live state sets at each compaction (FRAIG):
    # recovers merges the per-step pipeline missed, at one sweep's cost.
    fraig_compaction: bool = False


class AigTraversal:
    """What the backward and forward AIG traversals share.

    A validated private clone of the netlist — traversal adds heaps of
    nodes and must not pollute (or be confused by) the caller's manager —
    with the :class:`~repro.core.images.ImageComputer` over it, the SAT
    query for a latch assignment of a state set, per-iteration frontier
    stats, the manager node budget, and the mapping of traces and results
    back to the caller's netlist.

    Every SAT query — frontier emptiness, init intersection or violation,
    and the counterexample walk — runs with assumptions on one
    :class:`~repro.aig.cnf.CnfMapper` bound to the working manager, the
    paper's "load the clause database once and for-all".  Successive
    state sets share most of their cone (``reached`` recurs in every
    frontier), so each node is encoded at most once per *epoch*: the
    span between two compactions.  A compaction replaces the manager
    and so starts a new epoch with a new solver; an engine that never
    compacts keeps one solver for the whole run.  ``check_solvers`` and
    ``check_cnf_nodes`` in the stats count the solvers and the nodes
    they encoded.

    Subclasses set ``direction`` and ``engine`` and define
    ``_new_images`` and ``run`` (on the subclass itself:
    perfbench/tracing.py wraps ``run`` per class).
    """

    direction: str
    engine: str

    def __init__(self, netlist: Netlist, options) -> None:
        netlist.validate()
        if not netlist.has_property:
            raise ModelCheckingError(
                f"{self.direction} reachability needs a property"
            )
        self.original = netlist
        self.options = options
        self.model, _, node_map = netlist.clone()
        self._to_original = {new: old for old, new in node_map.items()}
        self.stats = StatsBag()
        self.images = self._new_images()
        self._epoch_mapper: CnfMapper | None = None

    def _new_images(self) -> ImageComputer:
        raise NotImplementedError

    def _mapper(self) -> CnfMapper:
        """The epoch's CNF mapper over the working manager (made lazily)."""
        if self._epoch_mapper is None:
            self._epoch_mapper = CnfMapper(self.model.aig, Solver())
            self.stats.incr("check_solvers")
        return self._epoch_mapper

    def _end_epoch(self) -> None:
        """Drop the epoch's solver, counting the nodes it encoded."""
        if self._epoch_mapper is not None:
            self.stats.incr("check_cnf_nodes", self._epoch_mapper.num_nodes)
            self._epoch_mapper = None

    def _solve(self, edge: int) -> dict[int, bool] | None:
        """Input and latch values of a SAT model of ``edge``, or None.

        Inputs outside the cone of ``edge`` are free; they keep whatever
        value the epoch solver gives them.
        """
        if edge == FALSE:
            return None
        mapper = self._mapper()
        lit = mapper.lit_for(edge)
        if mapper.solver.solve([lit]) is not SolveResult.SAT:
            return None
        return mapper.model_inputs()

    def _satisfiable_state(self, edge: int) -> dict[int, bool] | None:
        """Latch assignment of a SAT model of ``edge``, or None."""
        model = self._solve(edge)
        if model is None:
            return None
        return {
            node: model.get(node, False) for node in self.model.latch_nodes
        }

    def _record_frontier(
        self, iteration: int, frontier: int, reached: int
    ) -> None:
        aig = self.model.aig
        size = cone_size(aig, frontier)
        self.stats.set(f"frontier_size_{iteration}", size)
        self.stats.max("peak_frontier_size", size)
        self.stats.max("peak_reached_size", cone_size(aig, reached))

    def _check_budget(self) -> None:
        limit = self.options.max_manager_nodes
        if self.model.aig.num_nodes > limit:
            raise ResourceLimit(f"AIG manager exceeded {limit} nodes")

    def _result(
        self, status: Status, iterations: int, trace: Trace | None = None
    ) -> VerificationResult:
        self._end_epoch()
        if status is not Status.UNKNOWN:
            self.stats.set("iterations", iterations)
        return VerificationResult(
            status=status,
            engine=self.engine,
            trace=trace,
            iterations=iterations,
            stats=self.stats,
        )

    def _failed(
        self,
        states: list[dict[int, bool]],
        inputs: list[dict[int, bool]],
        iterations: int,
    ) -> VerificationResult:
        """The FAILED result of a concrete path ending in a bad state."""
        violation = find_violation_inputs(
            self.model, states[-1], mapper=self._mapper()
        )
        trace = Trace(
            states=[self._map_assignment(s) for s in states],
            inputs=[self._map_assignment(i) for i in inputs],
            violation_inputs=(
                self._map_assignment(violation)
                if violation is not None
                else None
            ),
        )
        return self._result(Status.FAILED, iterations, trace)

    def _map_assignment(self, values: dict[int, bool]) -> dict[int, bool]:
        return {
            self._to_original.get(node, node): value
            for node, value in values.items()
        }


class BackwardReachability(AigTraversal):
    """The paper's traversal routine over one netlist."""

    direction = "backward"

    def __init__(
        self, netlist: Netlist, options: ReachOptions | None = None
    ) -> None:
        options = options if options is not None else ReachOptions()
        super().__init__(netlist, options)
        mode = options.input_elimination
        self.engine = "reach_aig" if mode == "circuit" else f"reach_aig_{mode}"

    def _new_images(self) -> ImageComputer:
        """An image computer over the current working model."""
        options = self.options
        return ImageComputer(
            self.model,
            options.quantify,
            elimination=options.input_elimination,
            growth_factor=options.partial_growth_factor,
            max_cubes=options.allsat_max_cubes,
        )

    # ------------------------------------------------------------------ #
    # The traversal
    # ------------------------------------------------------------------ #

    def run(self) -> VerificationResult:
        options = self.options
        aig = self.model.aig
        # The bad *states*: inputs of an input-dependent property are
        # existentially quantified away so every layer is a pure state set.
        # The violating step must itself satisfy the constraints.
        image = self.images.bad_states()
        self.stats.merge(image.stats)
        bad = image.edge
        init = self.model.init_state_edge()
        # Distance layers for trace reconstruction: layers[k] = states at
        # backward distance k from the violation.
        layers: list[int] = [bad]
        reached = bad
        frontier = bad
        init_hit = self._check_init(init, bad)
        if init_hit is not None:
            return self._counterexample(init_hit, layers, iterations=0)
        iteration = 0
        while iteration < options.max_iterations:
            iteration += 1
            image = self.images.preimage(frontier)
            self.stats.merge(image.stats)
            new_frontier = aig.and_(image.edge, edge_not(reached))
            self._record_frontier(iteration, new_frontier, reached)
            if self._satisfiable_state(new_frontier) is None:
                # Fix-point: no newly reached states.
                return self._result(Status.PROVED, iteration)
            layers.append(new_frontier)
            reached = or_(aig, reached, new_frontier)
            frontier = new_frontier
            init_hit = self._check_init(init, new_frontier)
            if init_hit is not None:
                return self._counterexample(init_hit, layers, iterations=iteration)
            if (
                options.compact_every
                and iteration % options.compact_every == 0
            ):
                layers, reached, frontier, init, bad = self._compact(
                    layers, reached, frontier, init, bad
                )
                aig = self.model.aig   # compaction swapped the working copy
            self._check_budget()
        return self._result(Status.UNKNOWN, options.max_iterations)

    def _check_init(self, init: int, frontier: int) -> dict[int, bool] | None:
        """Does the frontier contain the initial state?"""
        return self._satisfiable_state(self.model.aig.and_(init, frontier))

    def _counterexample(
        self,
        start_state: dict[int, bool],
        layers: list[int],
        iterations: int,
    ) -> VerificationResult:
        """Walk the initial state down the distance layers to the bug."""
        suffix_states, inputs = concretize_suffix(
            self.model, start_state, layers, mapper=self._mapper(),
            stats=self.stats,
        )
        return self._failed(
            [dict(start_state)] + suffix_states, inputs, iterations
        )

    def _compact(
        self,
        layers: list[int],
        reached: int,
        frontier: int,
        init: int,
        bad: int,
    ) -> tuple[list[int], int, int, int, int]:
        """Shrink the working manager, transferring the live state sets.

        The image computer (and its sweeper) and the SAT solver of the
        checks are rebuilt over the new manager: one of each per
        compaction epoch.
        """
        self._end_epoch()
        before = self.model.aig.num_nodes
        extras = list(layers) + [reached, frontier, init, bad]
        if self.options.fraig_compaction:
            from repro.sweep.fraig import fraig_in_place

            extras, fraig_stats = fraig_in_place(self.model.aig, extras)
            self.stats.incr(
                "fraig_nodes_recovered",
                fraig_stats.get("size_before") - fraig_stats.get("size_after"),
            )
        new_model, moved, node_map = self.model.clone(extras)
        self.model = new_model
        self.images = self._new_images()
        # Chain the original-node mapping through the new clone.
        self._to_original = {
            new: self._to_original.get(old, old)
            for old, new in node_map.items()
        }
        self.stats.incr("compactions")
        self.stats.incr("compaction_nodes_freed", before - new_model.aig.num_nodes)
        n = len(layers)
        return list(moved[:n]), moved[n], moved[n + 1], moved[n + 2], moved[n + 3]
