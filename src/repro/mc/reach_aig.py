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
combination of Section 4), and checks frontier emptiness and init
intersection with SAT.  One working manager, one image computer (with its
sweeper and signature table) and one incremental check solver serve the
whole run, so each AIG node is Tseitin-encoded at most once per run.
:class:`AigTraversal` runs the breadth-first loop for this engine and for
the forward engine of :mod:`repro.mc.reach_aig_fwd`; each direction
supplies only its start set, image, hit test and counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.aig.analysis import cone_size
from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.aig.ops import or_
from repro.circuits.netlist import Netlist
from repro.core.images import ImageComputer, ImageResult
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError, ResourceLimit
from repro.mc.result import Status, Trace, VerificationResult
from repro.mc.trace import concretize_suffix, find_violation_inputs
from repro.sat.solver import SolveResult
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
    max_manager_nodes: int = 2_000_000
    allsat_max_cubes: int | None = None


class AigTraversal:
    """The breadth-first AIG traversal, backward or forward.

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
    emptiness test), so each node is encoded at most once per run.
    ``check_cnf_nodes`` in the stats counts the nodes it encoded.  The
    working manager is never replaced: its only bound is
    ``max_manager_nodes``.

    The traversal stops "as soon as no newly reached states are found",
    a test on ``image ∧ ¬reached`` only.  The set handed to the next
    image may be any F with ``image ∧ ¬reached ⊆ F ⊆ image ∨ reached``;
    :meth:`_next_frontier` takes ``image ∧ ¬previous``, ``previous`` being
    the last iteration's raw image (the bad or initial states at first).
    Every earlier image lies in ``reached``, so ``image ∧ ¬reached ⊆ F
    ⊆ image``: the reached sets, iterations and verdicts are those of
    the exact frontier, and each stored layer or ring still lies in the
    image of the one before, so traces keep their length.  What changes
    is the circuit: F no longer in-lines the whole ``reached`` cone into
    every image, check and frontier stat.  ``image ∧ ¬reached`` survives
    only as the emptiness test.

    :meth:`run` is the traversal loop of both directions.  Subclasses
    set ``direction``, ``engine`` and ``images`` and define its four
    steps: :meth:`_start`, :meth:`_image`, :meth:`_hit` and
    :meth:`_counterexample`.
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
        self.model, node_map = netlist.clone()
        self._to_original = {new: old for old, new in node_map.items()}
        self.stats = StatsBag()
        # The check solver of the run, over the working manager.
        self._checks = CnfMapper(self.model.aig)

    # ------------------------------------------------------------------ #
    # The traversal
    # ------------------------------------------------------------------ #

    def run(self) -> VerificationResult:
        """Traverse to a fix point (PROVED), a hit (FAILED) or the
        iteration bound (UNKNOWN)."""
        options = self.options
        start = self._start()
        # layers[k] holds every state at distance k from the start set,
        # perhaps some nearer ones too, and lies in the image of
        # layers[k-1]: backward, the distance to a violation; forward,
        # the onion rings around the initial state.
        layers: list[int] = [start]
        reached = start
        previous = start
        hit = self._hit(start)
        if hit is not None:
            return self._failed(hit, layers)
        for iteration in range(1, options.max_iterations + 1):
            image = self._image(layers[-1])
            self.stats.merge(image.stats)
            frontier = self._next_frontier(
                iteration, image.edge, previous, reached
            )
            if frontier is None:
                return self._result(Status.PROVED, iteration)
            layers.append(frontier)
            reached = or_(self.model.aig, reached, image.edge)
            previous = image.edge
            hit = self._hit(frontier)
            if hit is not None:
                return self._failed(hit, layers)
            self._check_budget()
        return self._result(Status.UNKNOWN, options.max_iterations)

    def _start(self) -> int:
        """The state set the traversal starts from."""
        raise NotImplementedError

    def _image(self, states: int) -> ImageResult:
        """The image of ``states`` in the traversal's direction."""
        raise NotImplementedError

    def _hit(self, frontier: int) -> dict[int, bool] | None:
        """A state of ``frontier`` that ends the search, or None."""
        raise NotImplementedError

    def _counterexample(
        self, hit: dict[int, bool], layers: list[int]
    ) -> tuple[list[dict[int, bool]], list[dict[int, bool]]]:
        """States and inputs of a concrete path from an initial state
        through ``hit`` to a bad state, one state per layer."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _solve(self, edge: int) -> dict[int, bool] | None:
        """Input and latch values of a SAT model of ``edge``, or None.

        Inputs outside the cone of ``edge`` are free; they keep whatever
        value the check solver gives them.
        """
        if edge == FALSE:
            return None
        lit = self._checks.lit_for(edge)
        if self._checks.solver.solve([lit]) is not SolveResult.SAT:
            return None
        return self._checks.model_inputs()

    def _satisfiable_state(self, edge: int) -> dict[int, bool] | None:
        """Latch assignment of a SAT model of ``edge``, or None."""
        model = self._solve(edge)
        if model is None:
            return None
        return {
            node: model.get(node, False) for node in self.model.latch_nodes
        }

    def _record_frontier(self, iteration: int, frontier: int) -> None:
        """``frontier_size_N`` and ``peak_frontier_size``: AND-node cone
        sizes of the frontier handed to the next image."""
        size = cone_size(self.model.aig, frontier)
        self.stats.set(f"frontier_size_{iteration}", size)
        self.stats.max("peak_frontier_size", size)

    def _next_frontier(
        self, iteration: int, image: int, previous: int, reached: int
    ) -> int | None:
        """The frontier ``image ∧ ¬previous``, or None at the fix point."""
        aig = self.model.aig
        frontier = aig.and_(image, edge_not(previous))
        self._record_frontier(iteration, frontier)
        if self._satisfiable_state(aig.and_(image, edge_not(reached))) is None:
            return None   # no newly reached states
        return frontier

    def _check_budget(self) -> None:
        limit = self.options.max_manager_nodes
        if self.model.aig.num_nodes > limit:
            raise ResourceLimit(f"AIG manager exceeded {limit} nodes")

    def _result(
        self, status: Status, iterations: int, trace: Trace | None = None
    ) -> VerificationResult:
        self.stats.incr("check_cnf_nodes", self._checks.num_nodes)
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
        self, hit: dict[int, bool], layers: list[int]
    ) -> VerificationResult:
        """The FAILED result of a concrete path through ``hit``."""
        states, inputs = self._counterexample(hit, layers)
        violation = find_violation_inputs(
            self.model, states[-1], mapper=self._checks
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
        return self._result(Status.FAILED, len(layers) - 1, trace)

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
        self.images = ImageComputer(
            self.model,
            options.quantify,
            elimination=mode,
            growth_factor=options.partial_growth_factor,
            max_cubes=options.allsat_max_cubes,
        )

    # perfbench/tracing.py wraps ``run`` in each class's own __dict__.
    run = AigTraversal.run

    def _start(self) -> int:
        # The bad *states*: inputs of an input-dependent property are
        # existentially quantified away so every layer is a pure state set.
        # The violating step must itself satisfy the constraints.
        image = self.images.bad_states()
        self.stats.merge(image.stats)
        return image.edge

    def _image(self, states: int) -> ImageResult:
        return self.images.preimage(states)

    @cached_property
    def _init(self) -> int:
        """The initial-state cube, built on first use."""
        return self.model.init_state_edge()

    def _hit(self, frontier: int) -> dict[int, bool] | None:
        """An initial state in the frontier, if any."""
        init_states = self.model.aig.and_(self._init, frontier)
        return self._satisfiable_state(init_states)

    def _counterexample(
        self, hit: dict[int, bool], layers: list[int]
    ) -> tuple[list[dict[int, bool]], list[dict[int, bool]]]:
        """Walk the initial state down the distance layers to the bug."""
        suffix_states, inputs = concretize_suffix(
            self.model, hit, layers, mapper=self._checks, stats=self.stats,
        )
        return [dict(hit)] + suffix_states, inputs
