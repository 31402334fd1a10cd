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
from repro.circuits.netlist import Netlist
from repro.core.images import ImageComputer, ImageResult
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError
from repro.mc.reach_aig import AigTraversal

# Unused here (AigTraversal maps the violation); perfbench/tracing.py
# patches this name on this module.
from repro.mc.trace import find_violation_inputs  # noqa: F401


@dataclass
class ForwardReachOptions:
    """Configuration of the forward traversal."""

    # Without the don't-care optimization, as in the backward
    # traversal's ReachOptions.
    quantify: QuantifyOptions = field(
        default_factory=lambda: QuantifyOptions(optimize=False)
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
        self.images = ImageComputer(self.model, self.options.quantify)

    # perfbench/tracing.py wraps ``run`` in each class's own __dict__.
    run = AigTraversal.run

    def _start(self) -> int:
        return self.model.init_state_edge()

    def _image(self, states: int) -> ImageResult:
        return self.images.postimage(states)

    def _hit(self, frontier: int) -> dict[int, bool] | None:
        """A state of ``frontier`` where the property can fail, if any.

        The violating step must itself satisfy the environment
        constraints (an unconstrained input pattern does not count).
        """
        bad = self.model.aig.and_(
            frontier, edge_not(self.model.property_edge)
        )
        bad = self.model.aig.and_(bad, self.model.constraint_edge())
        return self._satisfiable_state(bad)

    # ------------------------------------------------------------------ #
    # Trace reconstruction (backwards through the onion rings)
    # ------------------------------------------------------------------ #

    def _counterexample(
        self, hit: dict[int, bool], layers: list[int]
    ) -> tuple[list[dict[int, bool]], list[dict[int, bool]]]:
        states = [dict(hit)]
        inputs: list[dict[int, bool]] = []
        for ring_index in range(len(layers) - 2, -1, -1):
            predecessor, step_inputs = self._predecessor_in(
                layers[ring_index], states[0]
            )
            states.insert(0, predecessor)
            inputs.insert(0, step_inputs)
        return states, inputs

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
