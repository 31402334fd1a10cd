"""Scheduled partitioned BDD image computation vs the monolithic reference.

The scheduled pipeline, the only one the traversals run, must be a pure
optimization of the monolithic conjoin-then-quantify image: the same
BDD node at every step.  Random netlists use a fixed seed so failures
reproduce.
"""

import random
import sys
from pathlib import Path

import pytest

from repro.bdd.manager import BDD_FALSE
from repro.circuits import generators as G
from repro.circuits.netlist import Netlist
from repro.core import images as images_module
from repro.core.images import ImageComputer
from repro.core.schedule import (
    ImageStep,
    plan_partitioned_quantification,
    schedule_variable_order,
    scheduler_names,
)
from repro.errors import ModelCheckingError
from repro.mc import verify
from repro.mc.reach_bdd import BddReachOptions, _BddModel, _ForwardTraversal
from repro.mc.result import Status

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS, build_netlists  # noqa: E402

SEED = 20050308


def random_netlist(seed, num_latches=3, num_inputs=2, num_gates=10):
    """A small random sequential circuit with a random latch invariant."""
    rng = random.Random(seed)
    netlist = Netlist(f"random_{seed}")
    inputs = [netlist.add_input(f"i{k}") for k in range(num_inputs)]
    latches = [
        netlist.add_latch(f"l{k}", init=bool(rng.randint(0, 1)))
        for k in range(num_latches)
    ]
    aig = netlist.aig
    pool = inputs + latches
    for _ in range(num_gates):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    for latch in latches:
        netlist.set_next(latch, rng.choice(pool) ^ rng.randint(0, 1))
    candidates = latches + pool[len(inputs) + len(latches):]
    netlist.set_property(rng.choice(candidates) ^ rng.randint(0, 1))
    netlist.validate()
    return netlist


class TestPlan:
    def test_plan_covers_all_variables_and_partitions(self):
        order = [3, 1, 2]
        supports = [{1, 2}, {3}, {2}, set()]
        plan = plan_partitioned_quantification(order, supports)
        conjoined = [c for step in plan for c in step.conjoin]
        quantified = [v for step in plan for v in step.quantify]
        assert sorted(conjoined) == [0, 1, 2, 3]
        assert sorted(quantified) == [1, 2, 3]

    def test_no_variable_quantified_before_its_partitions(self):
        order = [0, 1, 2, 3]
        supports = [{0, 1}, {1, 2}, {2, 3}]
        plan = plan_partitioned_quantification(order, supports)
        seen: set = set()
        for step in plan:
            seen.update(step.conjoin)
            for var in step.quantify:
                holders = {
                    c for c, s in enumerate(supports) if var in s
                }
                assert holders <= seen, (var, step)

    def test_unsupported_variables_are_freed_immediately(self):
        plan = plan_partitioned_quantification([5], [set()])
        assert plan == [ImageStep((), (5,)), ImageStep((0,), ())]

    def test_schedule_variable_order_is_a_permutation(self):
        net = G.mod_counter(4, 10)
        variables = net.latch_nodes + net.input_nodes
        edge = net.property_edge
        for name in scheduler_names():
            order = schedule_variable_order(net.aig, edge, variables, name)
            assert sorted(order) == sorted(variables), name


class TestScheduledPostimageEquivalence:
    """Scheduled and monolithic images are the same BDD node."""

    @pytest.mark.parametrize("seed", range(SEED, SEED + 12))
    def test_random_netlists(self, seed):
        net = random_netlist(seed)
        model = _BddModel(net, BddReachOptions())
        manager = model.manager
        frontier = reached = model.init
        for _ in range(6):
            scheduled = model.postimage(frontier)
            monolithic = model.postimage_monolithic(frontier)
            assert scheduled == monolithic
            frontier = manager.and_(scheduled, manager.not_(reached))
            reached = manager.or_(reached, frontier)
            if frontier == 0:
                break

    @pytest.mark.parametrize(
        "name,build",
        [
            ("mod_counter", lambda: G.mod_counter(4, 10)),
            ("gray", lambda: G.gray_counter(4)),
            ("arbiter", lambda: G.arbiter(3)),
            ("fifo", lambda: G.fifo_level(3)),
        ],
    )
    def test_generator_designs(self, name, build):
        model = _BddModel(build(), BddReachOptions())
        manager = model.manager
        frontier = model.init
        for _ in range(4):
            scheduled = model.postimage(frontier)
            assert scheduled == model.postimage_monolithic(frontier), name
            frontier = scheduled

    @pytest.mark.parametrize("schedule", ["static", "min_dependence",
                                          "min_level", "cofactor_probe"])
    def test_every_schedule_agrees(self, schedule):
        net = G.up_down_counter(4)
        model = _BddModel(net, BddReachOptions(schedule=schedule))
        frontier = model.init
        for _ in range(4):
            scheduled = model.postimage(frontier)
            assert scheduled == model.postimage_monolithic(frontier)
            frontier = scheduled


def monolithic_traversal(netlist):
    """``(iterations, peak frontier size, reached size)`` of a plain
    forward loop over the monolithic image in a fresh model.

    ``iterations`` is 0 when the initial states are bad, and the peak is
    0 when no image was taken.
    """
    model = _BddModel(netlist, BddReachOptions())
    manager = model.manager
    frontier = reached = model.init
    peak = 0
    if manager.and_(frontier, model.bad) != BDD_FALSE:
        return 0, peak, manager.size(reached)
    iteration = 0
    while True:
        iteration += 1
        image = model.postimage_monolithic(frontier)
        frontier = manager.and_(image, manager.not_(reached))
        peak = max(peak, manager.size(frontier))
        if frontier == BDD_FALSE:
            return iteration, peak, manager.size(reached)
        reached = manager.or_(reached, frontier)
        if manager.and_(frontier, model.bad) != BDD_FALSE:
            return iteration, peak, manager.size(reached)


class TestReachedSizeOracle:
    """``reached_bdd`` is the size of the final reached set, taken once
    at the end of the run; the iterations and the per-iteration peak
    frontier match an independent monolithic loop."""

    @staticmethod
    def _check(netlist):
        traversal = _ForwardTraversal(netlist, BddReachOptions())
        result = traversal.run()
        stats = result.stats
        assert (
            stats.get("iterations"),
            stats.get("peak_frontier_bdd"),
            stats.get("reached_bdd"),
        ) == monolithic_traversal(netlist)
        assert "peak_reached_bdd" not in stats.as_dict()
        return traversal, result

    @pytest.mark.parametrize("seed", range(SEED, SEED + 12))
    def test_random_netlists(self, seed):
        self._check(random_netlist(seed))

    @pytest.mark.parametrize(
        "netlist",
        build_netlists(WORKLOADS["bdd_fix"], 1),
        ids=lambda netlist: netlist.name,
    )
    def test_bdd_fix_designs(self, netlist):
        traversal, result = self._check(netlist)
        assert result.status is Status.PROVED
        # Every image was renamed through the run's one memo.
        assert traversal.model._rename_cache


class TestVerifyIntegration:
    def test_forward_verdicts_match(self):
        safe = verify(G.gray_counter(4), method="reach_bdd_fwd", max_depth=100)
        assert safe.status is Status.PROVED
        buggy = verify(
            G.mod_counter(4, 10, safe=False),
            method="reach_bdd_fwd",
            max_depth=100,
        )
        assert buggy.status is Status.FAILED
        assert buggy.trace is not None

    def test_schedule_option_reaches_engine(self):
        result = verify(
            G.ring_counter(5),
            method="reach_bdd_fwd",
            max_depth=100,
            schedule="min_level",
        )
        assert result.status is Status.PROVED

    def test_options_object_accepted(self):
        options = BddReachOptions(max_iterations=100)
        result = verify(
            G.ring_counter(4), method="reach_bdd", options=options
        )
        assert result.status is Status.PROVED

    def test_unknown_image_mode_rejected(self):
        with pytest.raises(ModelCheckingError):
            verify(G.ring_counter(4), method="reach_bdd_fwd", image="bogus")

    def test_cache_counters_surface_in_stats(self):
        result = verify(
            G.mod_counter(4, 10), method="reach_bdd", max_depth=100
        )
        assert result.stats.get("bdd_cache_hits") > 0
        assert 0.0 < result.stats.get("bdd_cache_hit_rate") <= 1.0
        assert result.stats.get("manager_nodes") > 0


class TestScheduledAigPostimage:
    """The AIG image computer follows the same plan — semantics unchanged."""

    @pytest.mark.parametrize("seed", range(SEED, SEED + 6))
    def test_random_netlists(self, seed):
        from repro.aig.simulate import eval_edge

        net = random_netlist(seed)
        computer = ImageComputer(net)
        state = net.init_state_edge()
        image_s = computer.postimage(state).edge
        image_m = computer.postimage_monolithic(state).edge
        for bits in range(1 << len(net.latch_nodes)):
            assignment = {
                node: bool((bits >> k) & 1)
                for k, node in enumerate(net.latch_nodes)
            }
            assert eval_edge(net.aig, image_s, assignment) == eval_edge(
                net.aig, image_m, assignment
            ), (seed, bits)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: G.gray_counter(4),
            lambda: G.mod_counter(4, 12, with_enable=True),
            lambda: G.fifo_level(3),
        ],
        ids=["gray_counter_4", "mod_counter_en", "fifo_level_3"],
    )
    def test_steps_quantify_in_plan_order(self, build, monkeypatch):
        # Each plan step's variables arrive in plan order, and the step
        # quantifies them in that order under the default options too:
        # no step consults a reordering scheduler.
        steps = []
        quantify_exists = images_module.quantify_exists

        def recording(aig, edge, variables, options, **kwargs):
            outcome = quantify_exists(aig, edge, variables, options, **kwargs)
            steps.append((list(variables), options.schedule, outcome))
            return outcome

        monkeypatch.setattr(images_module, "quantify_exists", recording)
        net = build()
        computer = ImageComputer(net)
        assert computer.options.schedule == "min_dependence"
        state = net.init_state_edge()
        for _ in range(3):
            state = computer.postimage(state).edge
        assert any(len(outcome.quantified) > 1 for _, _, outcome in steps)
        for variables, schedule, outcome in steps:
            assert schedule == "static"
            done = set(outcome.quantified)
            assert outcome.quantified == [v for v in variables if v in done]


class TestDeepChainCircuit:
    def test_long_latch_chain_does_not_overflow_recursion(self):
        """1200-deep AND cone used to blow Python's recursion limit."""
        width = 1200
        netlist = Netlist("deep_chain")
        latches = [
            netlist.add_latch(f"l{k}", init=False) for k in range(width)
        ]
        for latch in latches:
            netlist.set_next(latch, 0)   # constant FALSE next state
        # Right-associated so the BDD builds bottom-up in linear time; the
        # negation/compose recursions still descend all 1200 levels.
        conjunction = 1
        for latch in reversed(latches):
            conjunction = netlist.aig.and_(latch, conjunction)
        netlist.set_property(conjunction ^ 1)   # NOT(all latches) — safe
        netlist.validate()
        result = verify(netlist, method="reach_bdd", max_depth=4)
        assert result.status is Status.PROVED
