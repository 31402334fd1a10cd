"""Tests for the cube-and-conquer engine (:mod:`repro.cnc`).

The load-bearing claims, each checked by SAT or exhaustive simulation:

* the SWAR ternary lookahead matches its scalar reference on random
  circuits;
* ``assume_literal`` is pointwise ``target AND (gate == value)``;
* a cube tree's leaves *partition* the space — pairwise contradictory
  and jointly covering (hypothesis property, discharged by SAT);
* ``split_solve`` agrees with a monolithic solver, and its SAT models
  satisfy the original target;
* the registered ``cnc`` engine never contradicts bmc/pdr on the tier-1
  families, and its counterexamples replay through standard validation;
* the one-shot checkers (equivalence and PDR certificate validation)
  give the expected verdicts on the miter and handshake families.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, Aig, edge_not
from repro.aig.ops import and_all
from repro.aig.simulate import cone_plan, eval_edge
from repro.atpg.equivalence import check_equal_via_atpg
from repro.circuits import generators as G
from repro.circuits.library import handshake, mul_miter2
from repro.cnc import (
    CncOptions,
    analyze,
    assume_literal,
    build_cube_tree,
    split_solve,
    ternary_eval,
    ternary_lookahead,
)
from repro.errors import CertificateError, ModelCheckingError
from repro.mc.engine import verify
from repro.mc.result import Status
from repro.pdr.certify import check_certificate
from repro.sat.solver import Solver, SolveResult
from repro.sweep.satsweep import prove_edges_equivalent
from repro.util.stats import StatsBag
from tests.conftest import build_random_aig


def solve_edge(aig, edge):
    """Monolithic SAT verdict for one edge (the oracle)."""
    if edge == FALSE:
        return SolveResult.UNSAT
    mapper = CnfMapper(aig, Solver())
    return mapper.solver.solve([mapper.lit_for(edge)])


def cube_edge(aig, leaf):
    """A leaf's cube as one conjunction edge."""
    return and_all(aig, [lit.edge for lit in leaf.literals])


# ---------------------------------------------------------------------- #
# Lookahead
# ---------------------------------------------------------------------- #


class TestLookahead:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_swar_matches_scalar_reference(self, seed):
        aig, inputs, root = build_random_aig(4, 12, seed)
        plan = cone_plan(aig, (root,))
        rng = random.Random(seed)
        nodes = [node for _index, node in plan.inputs] + [
            plan.nodes[dst] for dst, *_rest in plan.ops
        ]
        if not nodes:  # the random cone folded to a constant
            return
        trials = [
            (rng.choice(nodes), rng.randint(0, 1)) for _ in range(7)
        ]
        lanes = ternary_lookahead(plan, root, trials)
        for (node, value), lane in zip(trials, lanes):
            assert lane == ternary_eval(plan, root, {node: value})

    def test_analyze_never_picks_the_root_or_assigned_nodes(self):
        aig, inputs, root = build_random_aig(4, 15, seed=7)
        exclude = [inputs[0] >> 1]
        look = analyze(aig, root, exclude=exclude)
        if look.gate is not None:
            assert look.gate != root >> 1
            assert look.gate not in exclude

    def test_refutation_is_sound(self):
        # A refuted/forced verdict must match the SAT truth: when the
        # lookahead says value v for gate g kills the target, then
        # target AND (g == v) really is UNSAT.
        for seed in range(25):
            aig, inputs, root = build_random_aig(3, 10, seed)
            look = analyze(aig, root)
            if look.refuted:
                assert solve_edge(aig, root) is SolveResult.UNSAT
            for node, value in look.forced:
                refuted = assume_literal(aig, root, node, not value)
                assert solve_edge(aig, refuted) is SolveResult.UNSAT


# ---------------------------------------------------------------------- #
# Cube stage
# ---------------------------------------------------------------------- #


class TestCubeStage:
    def test_assume_literal_is_pointwise_conjunction(self):
        aig, inputs, root = build_random_aig(4, 12, seed=11)
        gates = [dst for dst in range(aig.num_nodes) if aig.is_and(dst)]
        gate = gates[len(gates) // 2]
        for value in (True, False):
            assumed = assume_literal(aig, root, gate, value)
            for bits in range(16):
                assignment = {
                    node >> 1: bool(bits >> k & 1)
                    for k, node in enumerate(inputs)
                }
                expected = eval_edge(aig, root, assignment) and (
                    eval_edge(aig, 2 * gate, assignment) == value
                )
                assert eval_edge(aig, assumed, assignment) == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_leaves_partition_the_space(self, seed):
        aig, inputs, root = build_random_aig(4, 14, seed)
        tree = build_cube_tree(aig, root, cube_depth=3)
        leaves = tree.leaves
        assert leaves
        # Covering: no model of the target escapes every leaf cube.
        escape = root
        for leaf in leaves:
            escape = aig.and_(escape, edge_not(cube_edge(aig, leaf)))
        assert solve_edge(aig, escape) is SolveResult.UNSAT
        # Pairwise contradictory: two distinct cubes share no model.
        for i, first in enumerate(leaves):
            for second in leaves[i + 1:]:
                both = aig.and_(
                    cube_edge(aig, first), cube_edge(aig, second)
                )
                assert solve_edge(aig, both) is SolveResult.UNSAT

    def test_leaf_target_is_root_restricted_to_the_cube(self):
        aig, inputs, root = build_random_aig(4, 14, seed=3)
        tree = build_cube_tree(aig, root, cube_depth=2)
        for leaf in tree.open_leaves:
            restricted = aig.and_(root, cube_edge(aig, leaf))
            difference = aig.and_(leaf.target, edge_not(restricted))
            assert solve_edge(aig, difference) is SolveResult.UNSAT
            reverse = aig.and_(restricted, edge_not(leaf.target))
            assert solve_edge(aig, reverse) is SolveResult.UNSAT

    def test_refuted_leaves_really_are_unsat(self):
        for seed in (0, 5, 9):
            aig, inputs, root = build_random_aig(4, 14, seed)
            tree = build_cube_tree(aig, root, cube_depth=3)
            for leaf in tree.leaves:
                if leaf.refuted:
                    restricted = aig.and_(root, cube_edge(aig, leaf))
                    assert solve_edge(aig, restricted) is SolveResult.UNSAT

    def test_cube_counters(self):
        aig, inputs, root = build_random_aig(5, 20, seed=1)
        bag = StatsBag()
        tree = build_cube_tree(aig, root, cube_depth=3, stats=bag)
        assert bag.get("cnc_cube_leaves") == len(tree.leaves)
        assert bag.get("cnc_cube_splits") == tree.splits
        assert len(tree.open_leaves) + tree.refuted_leaves == len(tree.leaves)


# ---------------------------------------------------------------------- #
# split_solve
# ---------------------------------------------------------------------- #


class TestSplitSolve:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_monolithic_solver(self, seed):
        aig, inputs, root = build_random_aig(5, 18, seed)
        expected = solve_edge(aig, root)
        outcome = split_solve(aig, root, cube_depth=3)
        assert outcome.verdict is expected
        if expected is SolveResult.SAT:
            assignment = {node >> 1: False for node in inputs}
            assignment.update(outcome.model)
            assert eval_edge(aig, root, assignment)

    def test_constant_false_target(self):
        aig = Aig()
        aig.add_inputs(2)
        outcome = split_solve(aig, FALSE)
        assert outcome.verdict is SolveResult.UNSAT

    def test_root_contradiction_and_complement(self):
        aig, inputs, root = build_random_aig(5, 18, seed=4)
        contradiction = aig.and_(root, edge_not(root))
        for target in (root, contradiction, edge_not(root)):
            outcome = split_solve(aig, target, cube_depth=2)
            assert outcome.verdict is solve_edge(aig, target)
            if outcome.verdict is SolveResult.SAT:
                assignment = {node >> 1: False for node in inputs}
                assignment.update(outcome.model)
                assert eval_edge(aig, target, assignment)

    def test_unsat_miter_exercises_core_pruning_counters(self):
        netlist = mul_miter2(True)
        bag = StatsBag()
        outcome = split_solve(
            netlist.aig,
            edge_not(netlist.property_edge),
            cube_depth=4,
            stats=bag,
        )
        assert outcome.verdict is SolveResult.UNSAT
        solved = (
            bag.get("cnc_cubes_unsat")
            + bag.get("cnc_cubes_pruned")
            + bag.get("cnc_cubes_cancelled")
        )
        assert solved == outcome.cubes - outcome.refuted


# ---------------------------------------------------------------------- #
# The registered engine
# ---------------------------------------------------------------------- #

FAMILIES = [
    lambda safe: G.mod_counter(4, 12, safe=safe),
    lambda safe: handshake(safe),
    lambda safe: G.johnson_counter(4, safe=safe),
    lambda safe: mul_miter2(safe),
]


class TestCncEngine:
    @pytest.mark.parametrize("build", FAMILIES)
    def test_never_contradicts_bmc_and_pdr(self, build):
        for safe in (True, False):
            netlist = build(safe)
            result = verify(
                netlist, method="cnc", max_depth=16, workers=0
            )
            reference = verify(build(safe), method="pdr", max_depth=16)
            if safe:
                # A bounded engine may return UNKNOWN on safe designs
                # (or PROVED on combinational ones) but never FAILED.
                assert result.status is not Status.FAILED
                assert reference.status is Status.PROVED
            else:
                assert result.status is Status.FAILED
                assert reference.status is Status.FAILED
                assert result.trace.validate(build(safe))
                bmc_result = verify(
                    build(safe), method="bmc", max_depth=16
                )
                assert bmc_result.status is Status.FAILED

    def test_combinational_miter_is_proved_not_unknown(self):
        result = verify(mul_miter2(True), method="cnc", workers=0)
        assert result.status is Status.PROVED
        assert result.stats.get("cnc_bound") == 0

    def test_multiprocessing_workers_path(self):
        result = verify(
            G.mod_counter(4, 12, safe=False),
            method="cnc",
            max_depth=16,
            workers=2,
        )
        assert result.status is Status.FAILED
        assert result.stats.get("cnc_workers") == 2
        assert result.trace.validate(G.mod_counter(4, 12, safe=False))

    def test_crashed_cubes_leave_the_split_unknown(self, monkeypatch):
        import importlib

        # The package re-exports the function under the module's name.
        conquer_mod = importlib.import_module("repro.cnc.conquer")

        def crash(task):
            raise RuntimeError("worker lost")

        # The workers fork, so they inherit the patched solve.
        monkeypatch.setattr(conquer_mod, "_solve_task", crash)
        result = verify(
            G.mod_counter(4, 12, safe=False),
            method="cnc",
            max_depth=16,
            workers=1,
        )
        assert result.status is Status.UNKNOWN
        assert result.stats.get("cnc_cubes_crashed") >= 1
        assert result.stats.get("cnc_split_crashed") == 1

    def test_stats_report_cube_accounting(self):
        result = verify(
            handshake(False), method="cnc", max_depth=10, workers=0
        )
        assert result.status is Status.FAILED
        assert result.stats.get("cnc_cubes") >= 1
        assert result.stats.get("cnc_refuted_by_lookahead") >= 0

    def test_options_validate(self):
        with pytest.raises(ModelCheckingError):
            CncOptions(workers=-1).validate()
        with pytest.raises(ModelCheckingError):
            CncOptions(cube_depth=-2).validate()
        with pytest.raises(ModelCheckingError):
            CncOptions(candidates_limit=0).validate()

    def test_engine_is_registered_and_a_portfolio_default(self):
        from repro.api.registry import engine_names
        from repro.portfolio.policy import default_engines

        assert "cnc" in engine_names()
        assert "cnc" in default_engines()


# ---------------------------------------------------------------------- #
# One-shot checkers on the families cnc is tested on
# ---------------------------------------------------------------------- #


class TestMonolithicCheckers:
    def test_equivalence_via_atpg_on_miter(self):
        netlist = mul_miter2(True)
        aig = netlist.aig
        verdict, cex = check_equal_via_atpg(aig, netlist.property_edge, 1)
        assert verdict is True and cex is None
        buggy = mul_miter2(False)
        verdict, cex = check_equal_via_atpg(
            buggy.aig, buggy.property_edge, 1
        )
        assert verdict is False
        assert not eval_edge(buggy.aig, buggy.property_edge, cex)

    def test_prove_edges_equivalent_on_miter(self):
        netlist = mul_miter2(True)
        verdict, cex = prove_edges_equivalent(
            netlist.aig, netlist.property_edge, 1
        )
        assert verdict is True and cex is None
        buggy = mul_miter2(False)
        verdict, cex = prove_edges_equivalent(
            buggy.aig, buggy.property_edge, 1
        )
        assert verdict is False
        assert not eval_edge(buggy.aig, buggy.property_edge, cex)

    def test_certificate_accepts_a_real_invariant(self):
        result = verify(handshake(True), method="pdr", max_depth=30)
        assert result.status is Status.PROVED
        check_certificate(handshake(True), result.certificate)

    def test_certificate_rejects_a_wrong_invariant(self):
        # The safe design's invariant cannot certify the buggy variant.
        result = verify(handshake(True), method="pdr", max_depth=30)
        with pytest.raises(CertificateError):
            check_certificate(handshake(False), result.certificate)
