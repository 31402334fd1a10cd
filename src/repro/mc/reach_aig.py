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
combination of Section 4), and checks init intersection with SAT.  One
working manager, one image computer (with its sweeper and signature
table) and one incremental check solver serve the whole run, so each AIG
node is Tseitin-encoded at most once per run.  :class:`AigTraversal` runs
the breadth-first loop for this engine and for the forward engine of
:mod:`repro.mc.reach_aig_fwd`; each direction supplies only its start
set, image, hit test and counterexample.

The state sets stay AIGs; BDDs are only a budgeted helper, as in the
paper's BDD sweeping.  Each run keeps one :class:`ReencodingTable`: a
BDD manager of ``REENCODE_NODE_LIMIT`` nodes over the latches in a
:func:`structural_latch_order`.  Every image is built there, and when
its multiplexer AIG (one mux per BDD node) is smaller than the image's
cone, it replaces the image: the same set, so iterations, verdicts and
traces do not move.  The table also holds the BDD of ``reached``, so
the fix-point test ``image ∧ ¬reached = ∅`` is a BDD comparison; SAT
answers it only once the table is gone.  A budget overrun drops the
table (``reencode_aborts``); after ``REENCODE_MAX_ABORTS`` the run stops
re-encoding.  Without it, an input-free design's pre-images are bare
compositions and grow like a BMC unrolling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.analysis import cone_size
from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, Aig, edge_not
from repro.aig.ops import or_, support
from repro.bdd.from_aig import aig_to_bdd, bdd_to_aig
from repro.bdd.manager import BDD_FALSE, BddManager
from repro.circuits.netlist import Netlist
from repro.core.images import ImageComputer, ImageResult
from repro.core.quantify import QuantifyOptions
from repro.errors import BddLimitExceeded, ModelCheckingError, ResourceLimit
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

    # The merge phase without the don't-care optimization: a traversal
    # re-encodes and conjoins every image, and the optimized circuit
    # never gave it a smaller frontier, fewer iterations or another
    # verdict, only more SAT checks (and on one_hot_fsm(10, safe=False)
    # a frontier twice as large).
    quantify: QuantifyOptions = field(
        default_factory=lambda: QuantifyOptions(optimize=False)
    )
    max_iterations: int = 10_000
    max_manager_nodes: int = 2_000_000


# Node budget of a run's re-encoding table (:class:`ReencodingTable`);
# past it, the run drops the table.
REENCODE_NODE_LIMIT = 4000

# Budget overruns after which a run stops re-encoding its images.
REENCODE_MAX_ABORTS = 2


def structural_latch_order(model: Netlist) -> list[int]:
    """The latch nodes in depth-first order of their dependency graph.

    Each latch links to the latches in its next-state support.  The walk
    starts from the latches in the property's cone and then takes the
    rest; ties are broken by latch name, which survives any renumbering
    of the netlist, so the order does not depend on the declaration
    order.  Latches that feed each other end up next to each other, the
    usual good BDD order (a shift register comes out as a chain).
    """
    aig = model.aig
    latches = {latch.node: latch for latch in model.latches}

    def by_name(nodes) -> list[int]:
        return sorted(
            (node for node in nodes if node in latches),
            key=lambda node: latches[node].name,
        )

    order: list[int] = []
    seen: set[int] = set()
    roots = by_name(support(aig, model.property_edge)) + by_name(latches)
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            stack.extend(
                reversed(by_name(support(aig, latches[node].next_edge)))
            )
    return order


class ReencodingTable:
    """A budgeted BDD table over the latches, kept for a traversal run.

    One :class:`~repro.bdd.manager.BddManager` with
    ``REENCODE_NODE_LIMIT`` nodes, its variables in a
    :func:`structural_latch_order`, the AIG node -> BDD ``node_cache``
    of :func:`~repro.bdd.from_aig.aig_to_bdd` (the next-state cones that
    every pre-image in-lines are built once), the BDD node -> mux edge
    cache of :func:`~repro.bdd.from_aig.bdd_to_aig` (each decode builds
    muxes only for BDD nodes no earlier one built), and the BDD of the
    run's reached set once it is known.  Operations raise
    :class:`~repro.errors.BddLimitExceeded` past the budget; the owner
    then drops the whole table.
    """

    def __init__(self, aig: Aig, order: list[int]) -> None:
        self.aig = aig
        self.manager = BddManager(max_nodes=REENCODE_NODE_LIMIT)
        self.var_map = {node: index for index, node in enumerate(order)}
        self.var_edges = {index: 2 * node for index, node in enumerate(order)}
        for node in order:
            self.manager.new_var(aig.input_name(node))
        self.node_cache: dict[int, int] = {}
        self.mux_cache: dict[int, int] = {}
        self.reached: int | None = None

    def encode(self, edge: int) -> int:
        """The BDD of a state set."""
        return aig_to_bdd(
            self.aig, edge, self.manager, self.var_map, self.node_cache
        )

    def decode(self, bdd: int) -> int:
        """The mux AIG of a BDD, one multiplexer per BDD node."""
        return bdd_to_aig(
            self.manager, bdd, self.aig, self.var_edges, self.mux_cache
        )

    def add_reached(self, bdd: int) -> bool:
        """Fold ``bdd`` into the reached set; whether it added states."""
        union = self.manager.or_(self.reached, bdd)
        grew = union != self.reached
        self.reached = union
        return grew


class AigTraversal:
    """The breadth-first AIG traversal, backward or forward.

    A validated private clone of the netlist — traversal adds heaps of
    nodes and must not pollute (or be confused by) the caller's manager —
    with the :class:`~repro.core.images.ImageComputer` over it, the SAT
    query for a latch assignment of a state set, per-iteration frontier
    stats, the manager node budget, and the mapping of traces and results
    back to the caller's netlist.

    Every SAT query — frontier emptiness when the re-encoding table
    cannot answer it, the forward violation check, and the
    counterexample walk — runs with assumptions on one
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

    Each image, and the start set, first goes through the run's
    :class:`ReencodingTable` (:meth:`_reencode`): if its BDD fits the
    table's budget and the BDD's mux AIG is smaller than its cone, the
    mux AIG stands for it from then on (``reencode_wins``).  While the
    table holds the BDD of ``reached`` too, the emptiness test is
    ``reached ∨ image = reached`` on BDDs and needs no SAT call.  A
    budget overrun drops the table with its ``reached`` BDD and counts
    ``reencode_aborts``; the next image starts a fresh table, whose
    ``reached`` stays unknown, so SAT answers the emptiness tests from
    then on.  After ``REENCODE_MAX_ABORTS`` overruns the run stops
    re-encoding.  The frontier ``image ∧ ¬previous`` stays an AIG over
    the (re-encoded) images.

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
        self._latch_order = structural_latch_order(self.model)
        # The re-encoding table of the run; None once dropped.
        self._table: ReencodingTable | None = None

    # ------------------------------------------------------------------ #
    # The traversal
    # ------------------------------------------------------------------ #

    def run(self) -> VerificationResult:
        """Traverse to a fix point (PROVED), a hit (FAILED) or the
        iteration bound (UNKNOWN)."""
        options = self.options
        self._table = ReencodingTable(self.model.aig, self._latch_order)
        self._table.reached = BDD_FALSE     # nothing reached yet
        start, _ = self._reencode(self._start())
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
            edge, grew = self._reencode(image.edge)
            frontier = self._next_frontier(
                iteration, edge, previous, reached, grew
            )
            if frontier is None:
                return self._result(Status.PROVED, iteration)
            layers.append(frontier)
            reached = or_(self.model.aig, reached, edge)
            previous = edge
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

    def _reencode(self, edge: int) -> tuple[int, bool | None]:
        """``edge``, or the smaller mux AIG of its BDD, and whether the
        set adds states to ``reached`` (None when the table cannot tell).

        The set is folded into the table's ``reached`` BDD.  A budget
        overrun drops the table and counts a ``reencode_aborts``; the
        next call starts a fresh table with ``reached`` unknown, and
        after ``REENCODE_MAX_ABORTS`` the run stops re-encoding.
        """
        if self._table is None:
            if self.stats.get("reencode_aborts") >= REENCODE_MAX_ABORTS:
                return edge, None
            self._table = ReencodingTable(self.model.aig, self._latch_order)
        table = self._table
        try:
            bdd = table.encode(edge)
            grew = None if table.reached is None else table.add_reached(bdd)
        except BddLimitExceeded:
            self._table = None
            self.stats.incr("reencode_aborts")
            return edge, None
        mux = table.decode(bdd)
        aig = self.model.aig
        if cone_size(aig, mux) < cone_size(aig, edge):
            self.stats.incr("reencode_wins")
            return mux, grew
        return edge, grew

    def _next_frontier(
        self,
        iteration: int,
        image: int,
        previous: int,
        reached: int,
        grew: bool | None,
    ) -> int | None:
        """The frontier ``image ∧ ¬previous``, or None at the fix point.

        ``grew`` answers the fix-point test ``image ∧ ¬reached = ∅``
        when the re-encoding table knows both BDDs; SAT answers it
        otherwise.
        """
        aig = self.model.aig
        frontier = aig.and_(image, edge_not(previous))
        self._record_frontier(iteration, frontier)
        if grew is None:
            newly = aig.and_(image, edge_not(reached))
            grew = self._satisfiable_state(newly) is not None
        return frontier if grew else None   # None: no newly reached states

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
    """The paper's traversal routine over one netlist.

    ``elimination`` picks how pre-images lose their inputs:
    ``"circuit"`` quantifies them out of the circuit (the paper's core
    method), ``"allsat"`` enumerates them (the Ganai et al. baseline)
    and ``"hybrid"`` quantifies what does not grow the circuit and
    enumerates the rest (the Section 4 combination).  Each mode is
    registered as its own engine (``reach_aig``, ``reach_aig_allsat``,
    ``reach_aig_hybrid``).
    """

    direction = "backward"

    def __init__(
        self,
        netlist: Netlist,
        options: ReachOptions | None = None,
        elimination: str = "circuit",
    ) -> None:
        options = options if options is not None else ReachOptions()
        super().__init__(netlist, options)
        self.engine = (
            "reach_aig" if elimination == "circuit"
            else f"reach_aig_{elimination}"
        )
        self.images = ImageComputer(
            self.model, options.quantify, elimination=elimination
        )
        self._init = self.model.init_assignment()
        # Node -> 0/1 value at the initial state, over every cone
        # :meth:`_hit` evaluated so far: cone-closed, and valid for the
        # whole run because the working manager only grows.
        self._init_values: dict[int, int] = {0: 0}

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

    def _hit(self, frontier: int) -> dict[int, bool] | None:
        """The initial state, if the frontier holds it.

        Every backward frontier is a pure state set (the inputs are
        quantified away), so one evaluation at the single initial state
        answers what would otherwise be a SAT query.  Successive
        frontiers share most of their cones, so only nodes no earlier
        call evaluated are visited.
        """
        aig = self.model.aig
        fanin0, fanin1 = aig._fanin0, aig._fanin1
        init, values = self._init, self._init_values
        for node in aig.cone([frontier], known=values):
            f0 = fanin0[node]
            if f0 == -1:
                values[node] = 1 if init.get(node, False) else 0
            else:
                f1 = fanin1[node]
                values[node] = (
                    (values[f0 >> 1] ^ (f0 & 1))
                    & (values[f1 >> 1] ^ (f1 & 1))
                )
        if values[frontier >> 1] ^ (frontier & 1):
            return dict(init)
        return None

    def _counterexample(
        self, hit: dict[int, bool], layers: list[int]
    ) -> tuple[list[dict[int, bool]], list[dict[int, bool]]]:
        """Walk the initial state down the distance layers to the bug."""
        suffix_states, inputs = concretize_suffix(
            self.model, hit, layers, mapper=self._checks, stats=self.stats,
        )
        return [dict(hit)] + suffix_states, inputs
