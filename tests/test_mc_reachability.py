"""Tests for the traversal engines: AIG backward (the paper) vs BDD."""

import random
import sys
from pathlib import Path

import pytest

import repro.core.images as images
import repro.mc.reach_aig as reach_aig
from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.aig.ops import xor
from repro.aig.simulate import eval_edge, truth_table
from repro.circuits import generators as G
from repro.core.quantify import QuantifyOptions
from repro.errors import BddLimitExceeded, ModelCheckingError, ResourceLimit
from repro.mc.engine import verify
from repro.mc.reach_aig import (
    REENCODE_MAX_ABORTS,
    AigTraversal,
    BackwardReachability,
    ReachOptions,
    structural_latch_order,
)
from repro.mc.reach_aig_fwd import ForwardReachability
from repro.mc.reach_bdd import (
    BddReachOptions,
    bdd_backward_reachability,
    bdd_forward_reachability,
)
from repro.mc.result import Status
from repro.sat.solver import SolveResult

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS, build_netlists  # noqa: E402


SAFE_CASES = [
    ("mod_counter", lambda: G.mod_counter(4, 10)),
    ("ring_counter", lambda: G.ring_counter(4)),
    ("arbiter", lambda: G.arbiter(3)),
    ("fifo", lambda: G.fifo_level(3, safe=True)),
    ("traffic", lambda: G.traffic_light()),
    ("lfsr", lambda: G.lfsr(4)),
]

BUGGY_CASES = [
    ("mod_counter", lambda: G.mod_counter(4, 10, safe=False), 9),
    ("ring_counter", lambda: G.ring_counter(5, safe=False), 4),
    ("bug3", lambda: G.bug_at_depth(3), 3),
    ("fifo", lambda: G.fifo_level(3, safe=False), 1),
    ("arbiter", lambda: G.arbiter(3, safe=False), 0),
]


class TestAigBackward:
    @pytest.mark.parametrize("name,build", SAFE_CASES)
    def test_proves_safe_designs(self, name, build):
        result = BackwardReachability(build()).run()
        assert result.status is Status.PROVED, name

    @pytest.mark.parametrize("name,build,depth", BUGGY_CASES)
    def test_finds_bugs_with_shortest_traces(self, name, build, depth):
        net = build()
        result = BackwardReachability(net).run()
        assert result.status is Status.FAILED, name
        assert result.trace is not None
        assert result.trace.validate(net), name
        assert result.trace.depth == depth, name

    def test_caller_manager_untouched(self):
        net = G.mod_counter(4, 10)
        nodes_before = net.aig.num_nodes
        BackwardReachability(net).run()
        assert net.aig.num_nodes == nodes_before

    def test_iteration_limit_gives_unknown(self):
        net = G.mod_counter(4, 12, safe=False)
        result = BackwardReachability(
            net, ReachOptions(max_iterations=2)
        ).run()
        assert result.status is Status.UNKNOWN

    @pytest.mark.parametrize("preset", ["shannon", "hash", "bdd", "sat", "full"])
    def test_quantifier_presets_agree(self, preset):
        net = G.fifo_level(2, safe=True)
        result = BackwardReachability(
            net,
            ReachOptions(quantify=QuantifyOptions.preset(preset)),
        ).run()
        assert result.status is Status.PROVED, preset

    def test_missing_property_rejected(self):
        from repro.circuits.netlist import Netlist
        from repro.aig.graph import edge_not

        net = Netlist()
        t = net.add_latch("t")
        net.set_next(t, edge_not(t))
        with pytest.raises(ModelCheckingError):
            BackwardReachability(net)

    def test_invalid_mode_rejected(self):
        net = G.mod_counter(2, 3)
        with pytest.raises(ModelCheckingError):
            BackwardReachability(net, elimination="quantum")

    def test_hit_evaluates_the_initial_state(self):
        traversal = BackwardReachability(
            G.mod_counter(4, 12, safe=False, with_enable=True)
        )
        model = traversal.model
        init = model.init_state_edge()
        assert traversal._hit(init) == model.init_assignment()
        assert traversal._hit(edge_not(init)) is None
        assert traversal._hit(FALSE) is None

    def test_per_iteration_frontier_stats(self):
        net = G.mod_counter(4, 12, safe=False)
        result = BackwardReachability(net).run()
        assert "frontier_size_1" in result.stats


class TestEpochSolver:
    """One incremental SAT solver per traversal run."""

    # (design, verdict, iterations, trace depth, peak_frontier_size),
    # pinned: sharing the check solver must not change the search.  The
    # frontier sizes are those of ``image ∧ ¬previous image``, both
    # images re-encoded through the run's BDD table.
    EPOCH_CASES = [
        ("bug30", lambda: G.bug_at_depth(30), Status.FAILED, 30, 30, 13),
        ("johnson14", lambda: G.johnson_counter(14), Status.PROVED, 18,
         None, 211),
    ]

    @staticmethod
    def _record_mappers(monkeypatch) -> list[CnfMapper]:
        """Every CnfMapper the traversal engines build from now on."""
        mappers: list[CnfMapper] = []

        class RecordingMapper(CnfMapper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                mappers.append(self)

        monkeypatch.setattr(reach_aig, "CnfMapper", RecordingMapper)
        return mappers

    @staticmethod
    def _assert_one_solver(traversal, result, mappers) -> int:
        """One check solver, which encoded each node at most once;
        returns how many it encoded."""
        assert len(mappers) == 1
        encoded = result.stats.get("check_cnf_nodes")
        assert encoded == mappers[0].num_nodes
        assert encoded <= traversal.model.aig.num_nodes
        return encoded

    @pytest.mark.parametrize(
        "name,build,status,iterations,depth,peak", EPOCH_CASES
    )
    def test_encoding_bound(
        self, monkeypatch, name, build, status, iterations, depth, peak
    ):
        mappers = self._record_mappers(monkeypatch)
        traversal = BackwardReachability(build())
        result = traversal.run()
        assert result.status is status, name
        assert result.iterations == iterations, name
        assert (result.trace.depth if result.trace else None) == depth
        assert result.stats.get("peak_frontier_size") == peak, name
        # The init checks evaluate, the re-encoding table answers the
        # fix-point tests and the walk simulates: nothing is encoded.
        assert self._assert_one_solver(traversal, result, mappers) == 0

    def test_counts_repeat_exactly(self):
        runs = [ForwardReachability(G.bug_at_depth(12)).run()
                for _ in range(2)]
        encoded = [run.stats.get("check_cnf_nodes") for run in runs]
        assert encoded[0] == encoded[1] > 0

    def test_forward_engine_keeps_one_solver(self, monkeypatch):
        mappers = self._record_mappers(monkeypatch)
        traversal = ForwardReachability(G.bug_at_depth(6))
        result = traversal.run()
        assert result.status is Status.FAILED
        assert self._assert_one_solver(traversal, result, mappers) > 0

    @staticmethod
    def _fresh_answer(aig, edge: int) -> bool:
        mapper = CnfMapper(aig)
        return mapper.solver.solve([mapper.lit_for(edge)]) is SolveResult.SAT

    def _check(self, traversal, edge: int) -> bool:
        """Solve ``edge`` on the check solver; validate any model."""
        aig = traversal.model.aig
        state = traversal._satisfiable_state(edge)
        assert (state is not None) == self._fresh_answer(aig, edge)
        if state is not None:
            assert eval_edge(aig, edge, state)
        return state is not None

    def test_interleaved_queries_match_fresh_solvers(self):
        traversal = BackwardReachability(G.johnson_counter(6))
        aig = traversal.model.aig
        a, b, c, d = (2 * node for node in traversal.model.latch_nodes[:4])
        left = xor(aig, xor(aig, a, b), c)
        right = xor(aig, a, xor(aig, b, c))
        differ = aig.and_(left, edge_not(right))
        assert differ != FALSE   # not refuted by structural hashing
        assert self._check(traversal, aig.and_(left, d))
        assert not self._check(traversal, differ)
        # Shares the refuted cone: learned clauses must not block it.
        assert self._check(traversal, aig.and_(right, left))
        assert self._check(traversal, aig.and_(edge_not(right), edge_not(d)))

    def test_random_queries_match_fresh_solvers(self):
        traversal = BackwardReachability(G.johnson_counter(6))
        aig = traversal.model.aig
        rng = random.Random(7)
        pool = [2 * node for node in traversal.model.latch_nodes]
        answers = set()
        for _ in range(60):
            x = rng.choice(pool) ^ rng.randint(0, 1)
            y = rng.choice(pool) ^ rng.randint(0, 1)
            pool.append(
                aig.and_(x, y) if rng.randint(0, 1) else xor(aig, x, y)
            )
            edge = aig.and_(pool[-1], rng.choice(pool) ^ rng.randint(0, 1))
            if edge != FALSE:
                answers.add(self._check(traversal, edge))
        assert answers == {True, False}


class TestManagerBudget:
    """``max_manager_nodes`` is the AIG traversals' only memory bound."""

    @pytest.mark.parametrize("method", ["reach_aig", "reach_aig_fwd"])
    def test_small_budget_raises(self, method):
        # 19 iterations at the default budget, in which the backward run
        # grows its manager from 29 to 186 nodes (the forward run to
        # 988); 100 nodes run out first.
        net = G.mod_counter(5, 20, safe=False)
        assert verify(net, method=method).failed
        with pytest.raises(ResourceLimit, match="100 nodes"):
            verify(net, method=method, max_manager_nodes=100)


class TestReencoding:
    """Every image goes through the run's budgeted BDD table."""

    DESIGNS = [
        ("bug12", lambda: G.bug_at_depth(12)),
        ("johnson6", lambda: G.johnson_counter(6)),
        ("mod_counter", lambda: G.mod_counter(4, 10, safe=False)),
        ("fifo", lambda: G.fifo_level(3, safe=True)),
        ("arbiter", lambda: G.arbiter(3)),
        ("lfsr", lambda: G.lfsr(4)),
    ]
    ENGINES = {
        "reach_aig": BackwardReachability,
        "reach_aig_fwd": ForwardReachability,
    }

    @staticmethod
    def _spy(monkeypatch, name: str) -> list:
        """``(traversal, args, result)`` of every call of a traversal
        method from now on."""
        calls = []
        method = getattr(AigTraversal, name)

        def spy(self, *args):
            result = method(self, *args)
            calls.append((self, args, result))
            return result

        monkeypatch.setattr(AigTraversal, name, spy)
        return calls

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reencoded_image_equals_original(self, monkeypatch, engine):
        calls = self._spy(monkeypatch, "_reencode")
        replaced = 0
        for name, build in self.DESIGNS:
            calls.clear()
            result = self.ENGINES[engine](build()).run()
            assert result.status is not Status.UNKNOWN, name
            wins = 0
            for traversal, (edge,), (reencoded, _) in calls:
                aig, latches = traversal.model.aig, traversal.model.latch_nodes
                assert len(latches) <= 10
                # Exhaustive simulation over every latch assignment.
                assert truth_table(aig, reencoded, latches) == truth_table(
                    aig, edge, latches
                ), name
                wins += reencoded != edge
            assert wins == result.stats.get("reencode_wins"), name
            replaced += wins
        assert replaced > 0

    def test_over_budget_image_is_kept_and_run_backs_off(self, monkeypatch):
        reference = BackwardReachability(G.bug_at_depth(12)).run()
        # No room for one BDD node beyond the variables.
        monkeypatch.setattr(reach_aig, "REENCODE_NODE_LIMIT", 0)
        calls = self._spy(monkeypatch, "_reencode")
        tables = []
        table_init = reach_aig.ReencodingTable.__init__

        def recording_init(self, *args):
            table_init(self, *args)
            tables.append(self)

        monkeypatch.setattr(
            reach_aig.ReencodingTable, "__init__", recording_init
        )
        result = BackwardReachability(G.bug_at_depth(12)).run()
        assert result.status is reference.status is Status.FAILED
        assert result.iterations == reference.iterations == 12
        assert result.trace.depth == reference.trace.depth
        # The start set and every image come back unchanged, untested.
        assert len(calls) == result.iterations + 1
        assert all(out == (edge, None) for _, (edge,), out in calls)
        assert result.stats.get("reencode_wins") == 0
        assert result.stats.get("reencode_aborts") == REENCODE_MAX_ABORTS
        # The run's table and one retry; none after the second abort.
        assert len(tables) == REENCODE_MAX_ABORTS == 2

    @pytest.mark.parametrize(
        "workload", ["bwd_quant", "fwd_image", "bwd_deep"]
    )
    def test_order_and_counters_survive_permutation(self, workload):
        spec = WORKLOADS[workload]

        def observe(net):
            traversal = self.ENGINES[spec.engine](net)
            result = traversal.run()
            names = [
                traversal.model.aig.input_name(node)
                for node in traversal._latch_order
            ]
            counters = [
                result.stats.get(counter)
                for counter in ("reencode_wins", "reencode_aborts")
            ]
            return names, counters

        expected = [observe(design.build()) for design in spec.designs]
        for seed in (1, 2, 3):
            assert [
                observe(net) for net in build_netlists(spec, seed)
            ] == expected, seed

    def test_structural_order_follows_the_shift_chain(self):
        # j0 <- ¬j5, j5 <- j4, ...: a chain whatever the declaration.
        model = G.johnson_counter(6)
        order = structural_latch_order(model)
        assert [model.aig.input_name(node) for node in order] == [
            "j0", "j5", "j4", "j3", "j2", "j1"
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name,build", DESIGNS)
    def test_bdd_fixpoint_test_agrees_with_sat(
        self, monkeypatch, engine, name, build
    ):
        answers = []
        next_frontier = AigTraversal._next_frontier

        def checked(self, iteration, image, previous, reached, grew):
            if grew is not None:
                aig = self.model.aig
                mapper = CnfMapper(aig)
                newly = mapper.lit_for(aig.and_(image, edge_not(reached)))
                sat = mapper.solver.solve([newly]) is SolveResult.SAT
                assert grew == sat, (name, iteration)
                answers.append(grew)
            return next_frontier(
                self, iteration, image, previous, reached, grew
            )

        monkeypatch.setattr(AigTraversal, "_next_frontier", checked)
        result = self.ENGINES[engine](build()).run()
        assert answers, name
        if result.proved:
            assert answers[-1] is False   # the BDD found the fix point


class TestInputEliminationModes:
    @pytest.mark.parametrize(
        "mode", ["circuit", "allsat", "hybrid"]
    )
    def test_safe_design_all_modes(self, mode):
        net = G.fifo_level(3, safe=True)
        result = BackwardReachability(net, elimination=mode).run()
        assert result.status is Status.PROVED, mode

    @pytest.mark.parametrize(
        "mode", ["circuit", "allsat", "hybrid"]
    )
    def test_buggy_design_all_modes(self, mode):
        net = G.fifo_level(3, safe=False)
        result = BackwardReachability(net, elimination=mode).run()
        assert result.status is Status.FAILED, mode
        assert result.trace.validate(G.fifo_level(3, safe=False))

    def test_hybrid_reports_residuals(self, monkeypatch):
        monkeypatch.setattr(images, "HYBRID_GROWTH_FACTOR", 0.1)  # aborts
        net = G.arbiter(3)
        result = BackwardReachability(
            net,
            ReachOptions(quantify=QuantifyOptions.preset("hash")),
            elimination="hybrid",
        ).run()
        assert result.status is Status.PROVED
        # With such a tight budget at least one variable went to all-SAT.
        assert result.stats.get("hybrid_residual_vars", 0) >= 1


# A spread of designs for the don't-care phase's invariance: each
# traversal quantifies with it or without it to the same state sets.
PHASE_DESIGNS = {
    "one_hot_10_buggy": lambda: G.one_hot_fsm(10, safe=False),
    "updown_5": lambda: G.up_down_counter(5),
    "updown_5_buggy": lambda: G.up_down_counter(5, safe=False),
    "arbiter_8": lambda: G.arbiter(8),
    "mod_counter_5_20_enable": lambda: G.mod_counter(
        5, 20, safe=False, with_enable=True
    ),
    "gray_4": lambda: G.gray_counter(4),
    "fifo_level_4": lambda: G.fifo_level(4),
}


class TestDontCarePhaseInTraversals:
    """The traversals leave the don't-care phase off by default.  Its
    replacements keep the function of ``f0 ∨ f1``, so with the phase on
    every state set is the same function: verdicts, iterations and
    trace depths cannot move."""

    @pytest.mark.parametrize(
        "method", ["reach_aig", "reach_aig_fwd", "reach_aig_hybrid"]
    )
    @pytest.mark.parametrize("design", PHASE_DESIGNS)
    def test_phase_changes_no_search_outcome(self, method, design):
        net = PHASE_DESIGNS[design]()
        plain = verify(net, method=method)
        full = verify(
            net, method=method, quantify=QuantifyOptions.preset("full")
        )
        assert plain.stats.get("input_dc_checks") == 0
        assert plain.status is full.status
        assert plain.iterations == full.iterations
        assert (plain.trace is None) == (full.trace is None)
        if full.trace is not None:
            assert plain.trace.depth == full.trace.depth
            assert plain.trace.validate(net)
            assert full.trace.validate(net)

    def test_defaults_leave_only_the_phase_off(self):
        from repro.mc.reach_aig_fwd import ForwardReachOptions

        plain = QuantifyOptions(optimize=False)
        assert ReachOptions().quantify == plain
        assert ForwardReachOptions().quantify == plain
        assert QuantifyOptions().optimize
        assert QuantifyOptions.preset("full").optimize


class TestBddEngines:
    @pytest.mark.parametrize("name,build", SAFE_CASES)
    def test_backward_proves_safe(self, name, build):
        result = bdd_backward_reachability(build())
        assert result.status is Status.PROVED, name

    @pytest.mark.parametrize("name,build,depth", BUGGY_CASES)
    def test_backward_finds_bugs(self, name, build, depth):
        net = build()
        result = bdd_backward_reachability(net)
        assert result.status is Status.FAILED, name
        assert result.trace.validate(net), name
        assert result.trace.depth == depth, name

    @pytest.mark.parametrize("name,build", SAFE_CASES)
    def test_forward_proves_safe(self, name, build):
        result = bdd_forward_reachability(build())
        assert result.status is Status.PROVED, name

    def test_forward_finds_bugs(self):
        result = bdd_forward_reachability(G.bug_at_depth(4))
        assert result.status is Status.FAILED

    def test_cache_bound_is_a_module_constant(self, monkeypatch):
        import repro.mc.reach_bdd as reach_bdd

        plain = bdd_forward_reachability(G.mod_counter(4, 12))
        assert plain.stats.get("bdd_cache_resets") == 0
        monkeypatch.setattr(reach_bdd, "MAX_CACHE_ENTRIES", 8)
        bounded = bdd_forward_reachability(G.mod_counter(4, 12))
        # Dropped caches cost recomputation, never another search.
        assert bounded.stats.get("bdd_cache_resets") > 0
        assert bounded.status is plain.status is Status.PROVED
        assert bounded.iterations == plain.iterations

    def test_iteration_limit(self):
        result = bdd_backward_reachability(
            G.mod_counter(4, 12, safe=False), BddReachOptions(max_iterations=3)
        )
        assert result.status is Status.UNKNOWN
        assert result.iterations == 3

    def test_forward_iteration_limit(self):
        # Unbounded, the forward run hits the bug at iteration 11.
        result = bdd_forward_reachability(
            G.mod_counter(4, 12, safe=False), BddReachOptions(max_iterations=3)
        )
        assert result.status is Status.UNKNOWN
        assert result.iterations == 3

    @pytest.mark.parametrize("method", ["reach_bdd", "reach_bdd_fwd"])
    def test_node_budget_raises(self, method):
        # The full runs end with 113 (backward) and 183 (forward) nodes.
        net = G.mod_counter(4, 12, safe=False)
        assert verify(net, method=method).failed
        with pytest.raises(BddLimitExceeded, match="budget of 60"):
            verify(net, method=method, options=BddReachOptions(max_nodes=60))


class TestEnginesAgree:
    """AIG and BDD traversals must produce identical verdicts and depths."""

    @pytest.mark.parametrize("name,build,depth", BUGGY_CASES)
    def test_bug_depth_agreement(self, name, build, depth):
        aig_result = BackwardReachability(build()).run()
        bdd_result = bdd_backward_reachability(build())
        assert aig_result.status == bdd_result.status == Status.FAILED
        assert aig_result.trace.depth == bdd_result.trace.depth

    @pytest.mark.parametrize("name,build", SAFE_CASES)
    def test_iteration_agreement_on_safe(self, name, build):
        aig_result = BackwardReachability(build()).run()
        bdd_result = bdd_backward_reachability(build())
        assert aig_result.status == bdd_result.status == Status.PROVED
        assert aig_result.iterations == bdd_result.iterations, name
