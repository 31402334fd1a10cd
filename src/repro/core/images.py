"""Pre-image, post-image and bad states over AIG state sets (Sections 3–4).

``ImageComputer`` binds a netlist to a quantification strategy and is the
one place that decides how variables leave an image.  One
:class:`~repro.sweep.satsweep.SatSweeper` and one
:class:`~repro.sweep.bddsweep.BddSweepTable`, each created on first use,
serve every quantification the computer makes, so counterexample-refined
signatures carry over from one image to the next, and BDD sweeping builds
BDDs only for nodes no earlier cofactor pair has shown it.

* **pre-image** uses the in-lining rule — compose the next-state functions
  into the state set (no quantifier for next-state variables at all) —
  conjoins the environment constraints, then eliminates the primary
  inputs (:meth:`ImageComputer.eliminate_inputs`) in one of three modes:

  - ``"circuit"``: circuit-based quantification, the paper's method;
  - ``"allsat"``: all-solutions SAT enumeration with circuit cofactoring
    (:func:`repro.core.partial.allsat_quantify`, Ganai et al.);
  - ``"hybrid"``: partial circuit quantification, aborting the variables
    that grow the result beyond ``growth_factor``, then all-SAT on the
    residual ones (the Section 4 combination).

* **bad states** ``exists i . C AND NOT P`` go through the same input
  elimination, so backward layers and pre-image fold targets are pure
  state sets;
* **post-image** builds the relational product with next-state placeholder
  variables and quantifies both current state and inputs with the
  circuit-based engine.  The product is *partitioned*: the
  ``y_k == delta_k`` conjuncts are conjoined in the order chosen by
  :func:`repro.core.schedule.schedule_variable_order` and every variable
  is quantified as soon as no later conjunct depends on it — the same plan
  vocabulary the BDD engine's scheduled image uses
  (:func:`repro.core.schedule.plan_partitioned_quantification`).
  ``schedule_image=False`` keeps the monolithic conjoin-then-quantify
  pipeline as the reference the scheduled product is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.aig.graph import Aig, edge_not
from repro.aig.ops import and_all, compose, support, xnor
from repro.circuits.netlist import Netlist
from repro.core.partial import PartialQuantifier, allsat_quantify
from repro.core.quantify import QuantifyOptions, quantify_exists
from repro.core.schedule import (
    plan_partitioned_quantification,
    schedule_variable_order,
)
from repro.core.substitution import preimage_by_substitution
from repro.errors import ModelCheckingError
from repro.sweep.bddsweep import BddSweepTable
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag

ELIMINATION_MODES = ("circuit", "allsat", "hybrid")


@dataclass
class ImageResult:
    """An image computation outcome."""

    edge: int
    stats: StatsBag


class ImageComputer:
    """Pre/post-image engine over one netlist.

    ``elimination`` picks how :meth:`eliminate_inputs` removes the primary
    inputs (see the module docstring); ``growth_factor`` is the hybrid
    mode's abort rule and ``max_cubes`` bounds every all-SAT enumeration.
    """

    def __init__(
        self,
        netlist: Netlist,
        options: QuantifyOptions | None = None,
        elimination: str = "circuit",
        growth_factor: float = 2.0,
        max_cubes: int | None = None,
        schedule_image: bool = True,
    ) -> None:
        if elimination not in ELIMINATION_MODES:
            raise ModelCheckingError(
                f"unknown input elimination mode: {elimination!r}"
            )
        netlist.validate()
        self.netlist = netlist
        self.aig: Aig = netlist.aig
        self.options = options if options is not None else QuantifyOptions()
        # A plan step's variables arrive in plan order: quantify them so.
        self._step_options = replace(self.options, schedule="static")
        self.elimination = elimination
        self.growth_factor = growth_factor
        self.max_cubes = max_cubes
        self.schedule_image = schedule_image
        self._sweeper: SatSweeper | None = None
        self._bdd_table: BddSweepTable | None = None
        self._next_functions = netlist.next_functions()
        self._placeholders: dict[int, int] | None = None
        # (constraints, plan) for the scheduled product — the transition
        # relation is invariant across calls, only the state set changes.
        self._image_plan: tuple[list[int], list] | None = None

    @property
    def sweeper(self) -> SatSweeper:
        """The sweeper every quantification shares (built on first use,
        so a design without anything to quantify never pays for it)."""
        if self._sweeper is None:
            self._sweeper = SatSweeper(self.aig)
        return self._sweeper

    @property
    def bdd_table(self) -> BddSweepTable:
        """The BDD sweeping table every quantification shares (built on
        first use, like the sweeper)."""
        if self._bdd_table is None:
            self._bdd_table = BddSweepTable(self.aig)
        return self._bdd_table

    # ------------------------------------------------------------------ #
    # Input elimination: pre-image and bad states
    # ------------------------------------------------------------------ #

    def preimage(self, state_set: int) -> ImageResult:
        """States with *some constrained* input leading into ``state_set``.

        In-lining first (cost: one compose), then input elimination.
        Environment constraints are conjoined before quantifying, so the
        result is ``exists i . C(s, i) AND S(delta(s, i))``.
        """
        composed = preimage_by_substitution(
            self.aig, state_set, self._next_functions
        )
        return self.eliminate_inputs(
            self.aig.and_(composed, self.netlist.constraint_edge())
        )

    def bad_states(self) -> ImageResult:
        """``exists i . C AND NOT P``: the states where the property can
        fail under some constrained input."""
        return self.eliminate_inputs(
            self.aig.and_(
                edge_not(self.netlist.property_edge),
                self.netlist.constraint_edge(),
            )
        )

    def eliminate_inputs(self, edge: int) -> ImageResult:
        """``exists inputs . edge`` by the configured elimination mode."""
        aig = self.aig
        # Input-free designs skip the support walk altogether.
        present = support(aig, edge) if self.netlist.input_nodes else ()
        inputs = [
            node for node in self.netlist.input_nodes if node in present
        ]
        stats = StatsBag()
        if not inputs:
            return ImageResult(edge=edge, stats=stats)
        if self.elimination == "circuit":
            outcome = quantify_exists(
                aig, edge, inputs, self.options, sweeper=self.sweeper,
                bdd_table=self.bdd_table,
            )
            return ImageResult(edge=outcome.edge, stats=outcome.stats)
        if self.elimination == "hybrid":
            quantifier = PartialQuantifier(
                aig,
                options=self.options,
                growth_factor=self.growth_factor,
                sweeper=self.sweeper,
                bdd_table=self.bdd_table,
            )
            partial = quantifier.quantify(edge, inputs)
            stats.merge(partial.stats)
            stats.incr("hybrid_residual_vars", len(partial.aborted))
            if not partial.aborted:
                return ImageResult(edge=partial.edge, stats=stats)
            edge, inputs = partial.edge, partial.aborted
        result, sat_stats = allsat_quantify(
            aig, edge, inputs, max_cubes=self.max_cubes
        )
        stats.merge(sat_stats)
        return ImageResult(edge=result, stats=stats)

    # ------------------------------------------------------------------ #
    # Post-image
    # ------------------------------------------------------------------ #

    def _next_placeholders(self) -> dict[int, int]:
        if self._placeholders is None:
            self._placeholders = {}
            for latch in self.netlist.latches:
                edge = self.aig.add_input(f"next_{latch.name}")
                self._placeholders[latch.node] = edge >> 1
        return self._placeholders

    def postimage(self, state_set: int) -> ImageResult:
        """States reachable from ``state_set`` in one step.

        Relational product: ``exists s, i . S(s) AND AND_k (y_k == delta_k)``
        followed by renaming y back to the state variables.  Unless
        ``schedule_image`` is off, the product is conjoined partition by
        partition with early quantification along the shared
        image-scheduling plan.
        """
        placeholders = self._next_placeholders()
        constraints = [
            xnor(self.aig, 2 * placeholders[node], fn)
            for node, fn in self._next_functions.items()
        ]
        constraints.append(self.netlist.constraint_edge())
        if self.schedule_image:
            result = self._scheduled_product(state_set, constraints)
        else:
            product = self.aig.and_(state_set, and_all(self.aig, constraints))
            present = support(self.aig, product)
            to_quantify = [
                node
                for node in (
                    self.netlist.latch_nodes + self.netlist.input_nodes
                )
                if node in present
            ]
            outcome = quantify_exists(
                self.aig, product, to_quantify, self.options,
                sweeper=self.sweeper, bdd_table=self.bdd_table,
            )
            result = ImageResult(edge=outcome.edge, stats=outcome.stats)
        renamed = compose(
            self.aig,
            result.edge,
            {y: 2 * node for node, y in placeholders.items()},
        )
        return ImageResult(edge=renamed, stats=result.stats)

    def _scheduled_product(
        self, state_set: int, constraints: list[int]
    ) -> ImageResult:
        """Partitioned relational product with early quantification.

        The conjuncts are folded into the product along the
        :func:`~repro.core.schedule.plan_partitioned_quantification` plan;
        each plan step hands its freed variables to the circuit-based
        quantifier at once, to be quantified in plan order (the ``static``
        schedule), so no variable ever waits for conjuncts it does not
        depend on.  The plan depends only on the transition relation,
        so it is computed once and reused across traversal steps.
        """
        aig = self.aig
        if self._image_plan is None:
            # The full structural conjunction is cheap on AIGs; it only
            # seeds the scheduling heuristics, the product never builds it.
            relation = and_all(aig, constraints)
            # Every current-state/input variable is a candidate — one the
            # relation ignores is freed in the plan's first step and costs
            # nothing unless the state set happens to read it.
            candidates = (
                self.netlist.latch_nodes + self.netlist.input_nodes
            )
            order = schedule_variable_order(
                aig, relation, candidates, self.options.schedule
            )
            candidate_set = set(candidates)
            supports = [
                support(aig, term) & candidate_set for term in constraints
            ]
            self._image_plan = (
                list(constraints),
                plan_partitioned_quantification(order, supports),
            )
        constraints, plan = self._image_plan
        stats = StatsBag()
        product = state_set
        for step in plan:
            for index in step.conjoin:
                product = aig.and_(product, constraints[index])
            if step.quantify:
                outcome = quantify_exists(
                    aig,
                    product,
                    step.quantify,
                    self._step_options,
                    sweeper=self.sweeper,
                    bdd_table=self.bdd_table,
                )
                product = outcome.edge
                stats.merge(outcome.stats)
        return ImageResult(edge=product, stats=stats)
