"""Forward reachability with AIG state sets and circuit quantification.

The paper's traversal is backward ("we start reachability from [the
property's] complement"), but its Section 1 motivation covers both
directions: "post-image and pre-image computations involve existential
quantification of input and state variables".  This engine is the forward
twin: starting from the initial states, post-images (the relational
product over next-state placeholders, quantifying current state *and*
input variables) are accumulated to a fix-point or until a bad state is
reached.

Forward post-image is the harder quantification workload — there is no
in-lining shortcut, so every current-state and input variable goes through
the circuit-based engine.  The T4/F1-style comparisons between this engine
and the backward one quantify exactly that asymmetry.

Counterexample traces are rebuilt by walking the stored onion rings
backwards: for each concrete state in ring ``k`` a SAT call finds a ring
``k-1`` predecessor and the driving inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.graph import edge_not
from repro.aig.ops import or_
from repro.circuits.netlist import Netlist
from repro.core.images import ImageComputer
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError
from repro.mc.reach_aig import AigTraversal
from repro.mc.result import Status, VerificationResult

# Unused here (AigTraversal maps the violation); perfbench/tracing.py
# patches this name on this module.
from repro.mc.trace import find_violation_inputs  # noqa: F401


@dataclass
class ForwardReachOptions:
    """Configuration of the forward traversal."""

    quantify: QuantifyOptions = field(
        default_factory=lambda: QuantifyOptions.preset("full")
    )
    max_iterations: int = 10_000
    max_manager_nodes: int = 2_000_000


class ForwardReachability(AigTraversal):
    """Breadth-first forward traversal over one netlist."""

    direction = "forward"
    engine = "reach_aig_fwd"

    def __init__(
        self,
        netlist: Netlist,
        options: ForwardReachOptions | None = None,
    ) -> None:
        super().__init__(
            netlist,
            options if options is not None else ForwardReachOptions(),
        )

    def _new_images(self) -> ImageComputer:
        return ImageComputer(self.model, self.options.quantify)

    # ------------------------------------------------------------------ #
    # SAT helpers
    # ------------------------------------------------------------------ #

    def _violating_state(self, state_set: int) -> dict[int, bool] | None:
        """A state of ``state_set`` where the property can fail, if any.

        The violating step must itself satisfy the environment
        constraints (an unconstrained input pattern does not count).
        """
        bad = self.model.aig.and_(
            state_set, edge_not(self.model.property_edge)
        )
        bad = self.model.aig.and_(bad, self.model.constraint_edge())
        return self._satisfiable_state(bad)

    def _predecessor_in(
        self, source_set: int, target_state: dict[int, bool]
    ) -> tuple[dict[int, bool], dict[int, bool]]:
        """A (state, inputs) pair of ``source_set`` stepping onto the target."""
        aig = self.model.aig
        constraint = aig.and_(source_set, self.model.constraint_edge())
        for latch in self.model.latches:
            want = target_state[latch.node]
            next_edge = latch.next_edge
            constraint = aig.and_(
                constraint,
                next_edge if want else edge_not(next_edge),
            )
        model = self._solve(constraint)
        if model is None:
            raise ModelCheckingError(
                "onion-ring state has no predecessor (engine bug)"
            )
        state = {
            node: model.get(node, False) for node in self.model.latch_nodes
        }
        inputs = {
            node: model.get(node, False) for node in self.model.input_nodes
        }
        return state, inputs

    # ------------------------------------------------------------------ #
    # The traversal
    # ------------------------------------------------------------------ #

    def run(self) -> VerificationResult:
        options = self.options
        aig = self.model.aig
        init = self.model.init_state_edge()
        # Onion rings: rings[k] holds every state first reached at step k,
        # perhaps some earlier ones too, and lies in the post-image of
        # rings[k-1].
        rings: list[int] = [init]
        reached = init
        previous = init
        violating = self._violating_state(init)
        if violating is not None:
            return self._counterexample(violating, rings)
        iteration = 0
        while iteration < options.max_iterations:
            iteration += 1
            image = self.images.postimage(rings[-1])
            self.stats.merge(image.stats)
            frontier = self._next_frontier(
                iteration, image.edge, previous, reached
            )
            if frontier is None:
                return self._result(Status.PROVED, iteration)
            rings.append(frontier)
            reached = or_(aig, reached, image.edge)
            previous = image.edge
            violating = self._violating_state(frontier)
            if violating is not None:
                return self._counterexample(violating, rings)
            self._check_budget()
        return self._result(Status.UNKNOWN, options.max_iterations)

    # ------------------------------------------------------------------ #
    # Trace reconstruction (backwards through the onion rings)
    # ------------------------------------------------------------------ #

    def _counterexample(
        self, bad_state: dict[int, bool], rings: list[int]
    ) -> VerificationResult:
        states = [dict(bad_state)]
        inputs: list[dict[int, bool]] = []
        for ring_index in range(len(rings) - 2, -1, -1):
            predecessor, step_inputs = self._predecessor_in(
                rings[ring_index], states[0]
            )
            states.insert(0, predecessor)
            inputs.insert(0, step_inputs)
        return self._failed(states, inputs, len(rings) - 1)


def forward_reachability(
    netlist: Netlist, options: ForwardReachOptions | None = None
) -> VerificationResult:
    """Convenience wrapper: build the forward engine and run it."""
    return ForwardReachability(netlist, options).run()
