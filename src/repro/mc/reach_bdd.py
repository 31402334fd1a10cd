"""BDD-based reachability with scheduled partitioned image computation.

The seed version of this engine was the "traditional methodology" baseline:
conjoin the entire transition relation, then quantify state and input
variables one at a time.  It now practices what the paper preaches — *when*
you quantify matters as much as *what* you quantify:

* the transition relation is kept **partitioned** (one ``y_k == delta_k``
  conjunct per latch plus the environment constraint), clustered up to a
  node threshold (:data:`CLUSTER_SIZE`), IWLS95-style;
* the conjunction order and the early-quantification points are chosen by
  the variable-ordering heuristics of :mod:`repro.core.schedule` — the
  same vocabulary the AIG quantification path uses — so each variable is
  existentially quantified by a fused
  :meth:`~repro.bdd.manager.BddManager.and_exists` as soon as no later
  cluster depends on it;
* pre-images fuse the constraint conjunction with input quantification;
* the kernel's operation caches are trimmed between frontier steps and
  their hit/miss counters surface through the result's ``StatsBag``.

Both directions run through one loop, :meth:`_BddTraversal.run`:
backward by pre-images (vector composition of the next-state functions,
then input quantification, as in :mod:`repro.mc.reach_aig`), forward by
the scheduled relational product.  The monolithic conjoin-then-quantify
image survives only as :meth:`_BddModel.postimage_monolithic`, the
reference that the tests and ``benchmarks/bench_t14_bdd_image.py``
compare the scheduled image with.

Each iteration does only image and set work.  Stats:

* ``peak_frontier_bdd``: the largest frontier, sized every iteration,
  so experiment T4 and figure F1 can contrast it with the AIG engine's
  circuit sizes (perfbench reads it as ``peak_stateset_nodes``);
* ``reached_bdd``: the size of the final reached set, walked once when
  the run ends (a per-iteration peak of it cost a full walk of the
  growing set every step);
* ``iterations``, ``manager_nodes`` and the kernel cache counters.

Memo: next to the kernel's caches the model keeps one run-long memo,
node -> renamed node for the post-image's next-to-current renaming
(``BddManager.rename``).  Its map is fixed for the run, so no node is
relabeled twice, and ``trim_caches`` leaves it alone; it holds at most
one entry per manager node.  The pre-image's ``compose`` keeps a memo
per call: a run-long one saved under 5% of the backward T4 runs and,
since its hits skip ``ite`` calls the op cache would have answered,
lowered their reported cache hit rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.aig.ops import and_all
from repro.bdd.from_aig import aig_to_bdd
from repro.bdd.manager import BDD_FALSE, BDD_TRUE, BddManager
from repro.circuits.netlist import Netlist
from repro.core.schedule import (
    plan_partitioned_quantification,
    schedule_variable_order,
)
from repro.errors import ModelCheckingError
from repro.mc.result import Status, Trace, VerificationResult
from repro.obs import probes as _obs
from repro.util.stats import StatsBag

# BDD node bound of one transition-relation cluster of the post-image.
CLUSTER_SIZE = 2_000


@dataclass
class BddReachOptions:
    """Configuration of the BDD traversals.

    ``max_iterations`` bounds the image steps (UNKNOWN beyond it);
    ``max_nodes`` bounds the manager (:class:`~repro.errors.BddLimitExceeded`
    beyond it).  ``schedule`` names a :mod:`repro.core.schedule` heuristic
    that orders the quantified variables (and thereby the cluster
    conjunctions) of the post-image.  ``max_cache_entries``
    bounds each kernel operation cache; caches beyond the bound are
    dropped between frontier steps.
    """

    max_iterations: int = 10_000
    max_nodes: int | None = None
    schedule: str = "min_dependence"
    max_cache_entries: int | None = 1 << 20


class _BddModel:
    """Netlist lifted into a BDD manager.

    Variable order: latches first (interleaving-friendly creation order),
    then primary inputs, then next-state placeholders for forward images.
    """

    def __init__(self, netlist: Netlist, options: BddReachOptions) -> None:
        netlist.validate()
        self.netlist = netlist
        self.options = options
        self.manager = BddManager(
            max_nodes=options.max_nodes,
            max_cache_entries=options.max_cache_entries,
        )
        self.var_of_node: dict[int, int] = {}
        for node in netlist.latch_nodes:
            self.var_of_node[node] = len(self.var_of_node)
            self.manager.new_var(f"s{node}")
        for node in netlist.input_nodes:
            self.var_of_node[node] = len(self.var_of_node)
            self.manager.new_var(f"i{node}")
        self.next_var_of_latch: dict[int, int] = {}
        for node in netlist.latch_nodes:
            self.next_var_of_latch[node] = self.manager.num_vars
            self.manager.new_var(f"n{node}")
        cache: dict[int, int] = {}

        def lift(edge: int) -> int:
            return aig_to_bdd(
                netlist.aig, edge, self.manager, self.var_of_node, cache
            )

        self.delta = {
            node: lift(fn) for node, fn in netlist.next_functions().items()
        }
        # Pre-images substitute delta_k for s_k.
        self._compose_map = {
            self.var_of_node[node]: fn for node, fn in self.delta.items()
        }
        self.input_vars = [self.var_of_node[n] for n in netlist.input_nodes]
        self.state_vars = [self.var_of_node[n] for n in netlist.latch_nodes]
        self.input_cube = self.manager.cube_pos(self.input_vars)
        # Environment constraints gate transitions and violations alike.
        self.constraint = lift(netlist.constraint_edge())
        # bad_raw may read inputs; bad is the pure-state projection
        # (only constraint-satisfying input patterns count).
        self.bad_raw = self.manager.and_(
            lift(netlist.property_edge ^ 1), self.constraint
        )
        self.bad = self.manager.exists_cube(self.bad_raw, self.input_cube)
        init = netlist.init_assignment()
        self.init = self.manager.cube(
            {self.var_of_node[node]: value for node, value in init.items()}
        )
        self._rename_map = {
            self.next_var_of_latch[node]: self.var_of_node[node]
            for node in self.delta
        }
        # Run-long memo of _rename_map: node -> renamed node.
        self._rename_cache: dict[int, int] = {}
        # (clusters, quantification cube) steps, built on first post-image.
        self._image_plan: list[tuple[list[int], int]] | None = None

    # ------------------------------------------------------------------ #
    # Pre-image
    # ------------------------------------------------------------------ #

    def preimage(self, state_set: int) -> int:
        """exists i . C(s, i) AND S(delta(s, i)) by composition.

        The constraint conjunction and the input quantification are fused
        into one ``and_exists`` — the composed set is never conjoined with
        the constraint in full.
        """
        composed = self.manager.compose(state_set, self._compose_map)
        return self.manager.and_exists_cube(
            composed, self.constraint, self.input_cube
        )

    def preimage_into(self, layer: int, state: dict[int, bool]) -> int:
        """BDD over the input variables: choices taking ``state`` into layer."""
        composed = self.manager.and_(
            self.manager.compose(layer, self._compose_map), self.constraint
        )
        for node, value in state.items():
            composed = self.manager.restrict(
                composed, self.var_of_node[node], value
            )
        return composed

    # ------------------------------------------------------------------ #
    # Post-image
    # ------------------------------------------------------------------ #

    def postimage(self, state_set: int) -> int:
        """Clustered partitioned image with scheduled early quantification.

        The relational image over next-state variables, renamed back to
        the state variables.  The full transition relation is never built:
        clusters are conjoined in the scheduler-chosen order and every
        current-state/input variable is quantified by a fused
        ``and_exists`` as soon as no later cluster depends on it.
        """
        manager = self.manager
        product = state_set
        for clusters, cube in self._scheduled_plan():
            if not clusters:
                if cube != BDD_TRUE:
                    product = manager.exists_cube(product, cube)
                continue
            for cluster in clusters[:-1]:
                product = manager.and_(product, cluster)
                if product == BDD_FALSE:
                    return BDD_FALSE
            if cube == BDD_TRUE:
                product = manager.and_(product, clusters[-1])
            else:
                product = manager.and_exists_cube(
                    product, clusters[-1], cube
                )
            if product == BDD_FALSE:
                return BDD_FALSE
        return manager.rename(product, self._rename_map, self._rename_cache)

    def postimage_monolithic(self, state_set: int) -> int:
        """The seed pipeline: conjoin the full relation, then quantify.

        No traversal runs it: it is the reference that :meth:`postimage`
        must equal, node for node.
        """
        manager = self.manager
        product = manager.and_(state_set, self.constraint)
        for node, fn in self.delta.items():
            product = manager.and_(
                product,
                manager.xnor(manager.var_node(self.next_var_of_latch[node]), fn),
            )
        product = manager.exists(product, self.state_vars + self.input_vars)
        return manager.rename(product, self._rename_map)

    def _scheduled_plan(self) -> list[tuple[list[int], int]]:
        """Build (once) the clustered conjunction/quantification schedule."""
        if self._image_plan is not None:
            return self._image_plan
        manager = self.manager
        quantify_vars = set(self.state_vars + self.input_vars)
        # Partition: the constraint plus one y_k == delta_k per latch.
        conjuncts: list[int] = []
        if self.constraint != BDD_TRUE:
            conjuncts.append(self.constraint)
        for node, fn in self.delta.items():
            conjuncts.append(
                manager.xnor(
                    manager.var_node(self.next_var_of_latch[node]), fn
                )
            )
        supports = [
            manager.support(c) & quantify_vars for c in conjuncts
        ]
        var_order = self._scheduled_var_order()
        plan = plan_partitioned_quantification(var_order, supports)
        steps: list[tuple[list[int], int]] = []
        for step in plan:
            # Cluster the step's conjuncts up to the node threshold so
            # small relations amortize into one cached cluster BDD.
            clusters: list[int] = []
            acc: int | None = None
            for index in step.conjoin:
                piece = conjuncts[index]
                if acc is None:
                    acc = piece
                    continue
                combined = manager.and_(acc, piece)
                if manager.size(combined) > CLUSTER_SIZE:
                    clusters.append(acc)
                    acc = piece
                else:
                    acc = combined
            if acc is not None:
                clusters.append(acc)
            steps.append((clusters, manager.cube_pos(step.quantify)))
        self._image_plan = steps
        return steps

    def _scheduled_var_order(self) -> list[int]:
        """Variable order from the shared AIG schedulers, as BDD indices.

        The heuristics of :mod:`repro.core.schedule` analyse AIG cones, so
        they run on a throwaway clone of the netlist (scheduling must not
        pollute the caller's manager) over the conjunction of the
        next-state functions and the constraint.
        """
        netlist = self.netlist
        candidates = netlist.latch_nodes + netlist.input_nodes
        if not candidates:
            return []
        clone, node_map = netlist.clone()
        edge = and_all(
            clone.aig,
            [clone.constraint_edge()]
            + [fn for fn in clone.next_functions().values()],
        )
        back = {new: old for old, new in node_map.items()}
        order = schedule_variable_order(
            clone.aig,
            edge,
            [node_map[node] for node in candidates],
            self.options.schedule,
        )
        return [self.var_of_node[back[node]] for node in order]

    # ------------------------------------------------------------------ #
    # Cubes back to netlist assignments
    # ------------------------------------------------------------------ #

    def values(
        self, cube: dict[int, bool], nodes: list[int]
    ) -> dict[int, bool]:
        """The values ``cube`` gives ``nodes`` (don't-cares read False)."""
        var = self.var_of_node
        return {node: cube.get(var[node], False) for node in nodes}

    def violation_inputs(
        self, state: dict[int, bool]
    ) -> dict[int, bool] | None:
        """Witness inputs for an input-reading property in ``state``."""
        restricted = self.bad_raw
        for node, value in state.items():
            restricted = self.manager.restrict(
                restricted, self.var_of_node[node], value
            )
        cube = self.manager.pick_cube(restricted)
        if cube is None:
            return None
        return self.values(cube, self.netlist.input_nodes)


class _BddTraversal:
    """The breadth-first BDD traversal, backward or forward.

    A direction supplies its engine name, the span name of its image, its
    start set, hit target and image (:meth:`_direction`), and the path of
    its counterexample (:meth:`_path`).  ``layers[k]`` is
    ``image(layers[k-1]) ∧ ¬reached``: exactly the states at distance
    ``k`` from the start set, so the layers are disjoint, and the search
    stops at the first layer that hits the target.
    """

    engine = ""
    image_span = ""

    def __init__(self, netlist: Netlist, options: BddReachOptions) -> None:
        self.model = _BddModel(netlist, options)
        self.options = options
        self.stats = StatsBag()

    def run(self) -> VerificationResult:
        """Traverse to a fix point (PROVED), a hit (FAILED) or the
        iteration bound (UNKNOWN)."""
        manager = self.model.manager
        start, target, image_of = self._direction()
        layers = [start]
        reached = start
        if manager.and_(start, target) != BDD_FALSE:
            return self._failed(layers, reached)
        for iteration in range(1, self.options.max_iterations + 1):
            with _obs.span(self.image_span, "bdd", iteration=iteration):
                image = image_of(layers[-1])
            frontier = manager.and_(image, manager.not_(reached))
            self.stats.max("peak_frontier_bdd", manager.size(frontier))
            if _obs.ENABLED:
                _obs.tick("bdd", manager, bag=self.stats)
            manager.trim_caches()
            if frontier == BDD_FALSE:
                return self._result(Status.PROVED, iteration, reached)
            layers.append(frontier)
            reached = manager.or_(reached, frontier)
            if manager.and_(frontier, target) != BDD_FALSE:
                return self._failed(layers, reached)
        return self._result(
            Status.UNKNOWN, self.options.max_iterations, reached
        )

    def _direction(self) -> tuple[int, int, Callable[[int], int]]:
        """The start set, the hit target and the image function."""
        raise NotImplementedError

    def _path(
        self, layers: list[int]
    ) -> tuple[list[dict[int, bool]], list[dict[int, bool]]]:
        """States and inputs of a path from an initial state to a bad
        state, one state per layer."""
        raise NotImplementedError

    def _failed(self, layers: list[int], reached: int) -> VerificationResult:
        states, inputs = self._path(layers)
        violation = self.model.violation_inputs(states[-1])
        trace = Trace(states=states, inputs=inputs, violation_inputs=violation)
        return self._result(Status.FAILED, len(layers) - 1, reached, trace)

    def _result(
        self,
        status: Status,
        iterations: int,
        reached: int,
        trace: Trace | None = None,
    ) -> VerificationResult:
        """Size the reached set, surface the kernel cache counters, then
        build the result."""
        manager = self.model.manager
        if status is not Status.UNKNOWN:
            self.stats.set("iterations", iterations)
        self.stats.set("reached_bdd", manager.size(reached))
        for key, value in manager.cache_summary().items():
            self.stats.set(f"bdd_{key}", value)
        self.stats.set("manager_nodes", manager.num_nodes)
        return VerificationResult(
            status=status,
            engine=self.engine,
            trace=trace,
            iterations=iterations,
            stats=self.stats,
        )


class _BackwardTraversal(_BddTraversal):
    """From the bad states through pre-images until init is hit."""

    engine = "reach_bdd"
    image_span = "bdd.preimage"

    def _direction(self) -> tuple[int, int, Callable[[int], int]]:
        return self.model.bad, self.model.init, self.model.preimage

    def _path(self, layers):
        """From init, which only the last layer holds, choose inputs that
        steer into each nearer layer down to a bad state."""
        model = self.model
        states = [dict(model.netlist.init_assignment())]
        inputs: list[dict[int, bool]] = []
        for layer in reversed(layers[:-1]):
            target = model.preimage_into(layer, states[-1])
            cube = model.manager.pick_cube(target)
            if cube is None:
                raise ModelCheckingError("trace reconstruction failed")
            inputs.append(model.values(cube, model.netlist.input_nodes))
            states.append(model.netlist.simulate_step(states[-1], inputs[-1]))
        return states, inputs


class _ForwardTraversal(_BddTraversal):
    """From init through post-images (onion rings) until bad is hit."""

    engine = "reach_bdd_fwd"
    image_span = "bdd.postimage"

    def _direction(self) -> tuple[int, int, Callable[[int], int]]:
        return self.model.init, self.model.bad, self.model.postimage

    def _path(self, layers):
        """Pick a bad state in the last ring, walk predecessors back."""
        model = self.model
        manager = model.manager
        latches = model.netlist.latch_nodes
        cube = manager.pick_cube(manager.and_(layers[-1], model.bad))
        states = [model.values(cube, latches)]
        inputs: list[dict[int, bool]] = []
        for ring in reversed(layers[:-1]):
            # Predecessors in the previous ring: ring(s) AND C(s, i) AND
            # delta(s, i) == target, solved by one cube pick.
            target = states[0]
            predecessors = manager.and_(ring, model.constraint)
            for node, fn in model.delta.items():
                literal = fn if target[node] else manager.not_(fn)
                predecessors = manager.and_(predecessors, literal)
            cube = manager.pick_cube(predecessors)
            if cube is None:
                raise ModelCheckingError("ring state has no predecessor")
            states.insert(0, model.values(cube, latches))
            inputs.insert(0, model.values(cube, model.netlist.input_nodes))
        return states, inputs


def bdd_backward_reachability(
    netlist: Netlist, options: BddReachOptions | None = None
) -> VerificationResult:
    """Backward BDD traversal; same verdict contract as the AIG engine.

    Raises :class:`~repro.errors.BddLimitExceeded` when ``max_nodes`` is
    exceeded — the memory-explosion outcome the paper's method avoids.
    """
    return _BackwardTraversal(netlist, options or BddReachOptions()).run()


def bdd_forward_reachability(
    netlist: Netlist, options: BddReachOptions | None = None
) -> VerificationResult:
    """Forward BDD traversal with onion-ring trace reconstruction."""
    return _ForwardTraversal(netlist, options or BddReachOptions()).run()
