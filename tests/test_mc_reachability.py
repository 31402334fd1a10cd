"""Tests for the traversal engines: AIG backward (the paper) vs BDD."""

import random

import pytest

import repro.mc.reach_aig as reach_aig
from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.aig.ops import xor
from repro.aig.simulate import eval_edge
from repro.circuits import generators as G
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError, ResourceLimit
from repro.mc.engine import verify
from repro.mc.reach_aig import BackwardReachability, ReachOptions
from repro.mc.reach_aig_fwd import ForwardReachability
from repro.mc.reach_bdd import (
    bdd_backward_reachability,
    bdd_forward_reachability,
)
from repro.mc.result import Status
from repro.sat.solver import SolveResult


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
            BackwardReachability(
                net, ReachOptions(input_elimination="quantum")
            )

    def test_per_iteration_frontier_stats(self):
        net = G.mod_counter(4, 12, safe=False)
        result = BackwardReachability(net).run()
        assert "frontier_size_1" in result.stats


class TestEpochSolver:
    """One incremental SAT solver per traversal run."""

    # (design, verdict, iterations, trace depth, peak_frontier_size),
    # pinned: sharing the check solver must not change the search.  The
    # frontier sizes are those of ``image ∧ ¬previous image``.
    EPOCH_CASES = [
        ("bug30", lambda: G.bug_at_depth(30), Status.FAILED, 30, 30, 1085),
        ("johnson14", lambda: G.johnson_counter(14), Status.PROVED, 18,
         None, 842),
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
    def _assert_one_solver(traversal, result, mappers) -> None:
        """One check solver, which encoded each node at most once."""
        assert len(mappers) == 1
        encoded = result.stats.get("check_cnf_nodes")
        assert encoded == mappers[0].num_nodes > 0
        assert encoded <= traversal.model.aig.num_nodes

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
        self._assert_one_solver(traversal, result, mappers)

    def test_counts_repeat_exactly(self):
        runs = [BackwardReachability(G.bug_at_depth(12)).run()
                for _ in range(2)]
        encoded = [run.stats.get("check_cnf_nodes") for run in runs]
        assert encoded[0] == encoded[1] > 0

    def test_forward_engine_keeps_one_solver(self, monkeypatch):
        mappers = self._record_mappers(monkeypatch)
        traversal = ForwardReachability(G.bug_at_depth(6))
        result = traversal.run()
        assert result.status is Status.FAILED
        self._assert_one_solver(traversal, result, mappers)

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
        # 19 iterations at the default budget; 200 nodes run out first.
        net = G.mod_counter(5, 20, safe=False)
        assert verify(net, method=method).failed
        with pytest.raises(ResourceLimit, match="200 nodes"):
            verify(net, method=method, max_manager_nodes=200)


class TestInputEliminationModes:
    @pytest.mark.parametrize(
        "mode", ["circuit", "allsat", "hybrid"]
    )
    def test_safe_design_all_modes(self, mode):
        net = G.fifo_level(3, safe=True)
        result = BackwardReachability(
            net, ReachOptions(input_elimination=mode)
        ).run()
        assert result.status is Status.PROVED, mode

    @pytest.mark.parametrize(
        "mode", ["circuit", "allsat", "hybrid"]
    )
    def test_buggy_design_all_modes(self, mode):
        net = G.fifo_level(3, safe=False)
        result = BackwardReachability(
            net, ReachOptions(input_elimination=mode)
        ).run()
        assert result.status is Status.FAILED, mode
        assert result.trace.validate(G.fifo_level(3, safe=False))

    def test_hybrid_reports_residuals(self):
        net = G.arbiter(3)
        result = BackwardReachability(
            net,
            ReachOptions(
                input_elimination="hybrid",
                partial_growth_factor=0.1,   # force aborts
                quantify=QuantifyOptions.preset("hash"),
            ),
        ).run()
        assert result.status is Status.PROVED
        # With such a tight budget at least one variable went to all-SAT.
        assert result.stats.get("hybrid_residual_vars", 0) >= 1


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

    def test_iteration_limit(self):
        result = bdd_backward_reachability(
            G.mod_counter(4, 12, safe=False), max_iterations=3
        )
        assert result.status is Status.UNKNOWN


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
