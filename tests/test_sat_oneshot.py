"""Tests for one-shot combinational SAT checks on the CNF back end.

Every one-shot check (satisfiability of an edge, equivalence of two edges,
constancy) runs on the CDCL :class:`~repro.sat.solver.Solver` behind a
:class:`~repro.aig.cnf.CnfMapper`.  Verdicts are cross-checked against
exhaustive truth tables and BDD oracles, and every model the solver
returns is evaluated on the AIG.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import and_all, ite, or_, xor
from repro.aig.simulate import eval_edge, truth_table
from repro.errors import SatError
from repro.sat.solver import Solver, SolveResult
from repro.sweep.satsweep import SatSweeper, prove_edges_equivalent
from tests.conftest import build_random_aig, edges_equivalent


def solve_objectives(mapper, objectives, conflict_budget=None):
    """Solve ``edge == value`` for every ``(edge, value)`` pair at once."""
    lits = [
        mapper.lit_for(edge if value else edge_not(edge))
        for edge, value in objectives
    ]
    return mapper.solver.solve(lits, conflict_budget=conflict_budget)


def exhaustive_sat(aig, edge, inputs, value=True):
    """Oracle: does some input row give ``edge == value``?"""
    table = truth_table(aig, edge, [e >> 1 for e in inputs])
    if value:
        return table != 0
    return table != (1 << (1 << len(inputs))) - 1


def all_models(aig, edge, input_nodes, limit=None):
    """Enumerate input assignments satisfying ``edge`` by blocking clauses."""
    mapper = CnfMapper(aig, Solver())
    target = mapper.lit_for(edge)
    input_lits = {node: mapper.input_literal(node) for node in input_nodes}
    models = []
    while limit is None or len(models) < limit:
        if mapper.solver.solve([target]) is not SolveResult.SAT:
            break
        model = {
            node: mapper.solver.lit_true(lit)
            for node, lit in input_lits.items()
        }
        models.append(model)
        mapper.solver.add_clause(
            [-lit if model[node] else lit for node, lit in input_lits.items()]
        )
    return models


def parity_chain(aig, edges):
    result = FALSE
    for edge in edges:
        result = xor(aig, result, edge)
    return result


class TestBasics:
    def test_single_and_sat(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        mapper = CnfMapper(aig, Solver())
        assert solve_objectives(mapper, [(f, True)]) is SolveResult.SAT
        model = mapper.model_inputs()
        assert model[a >> 1] and model[b >> 1]

    def test_single_and_blocked(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        mapper = CnfMapper(aig, Solver())
        result = solve_objectives(mapper, [(f, True), (a, False)])
        assert result is SolveResult.UNSAT

    def test_constant_objectives(self):
        aig = Aig()
        mapper = CnfMapper(aig, Solver())
        assert solve_objectives(mapper, [(TRUE, True)]) is SolveResult.SAT
        assert solve_objectives(mapper, [(TRUE, False)]) is SolveResult.UNSAT
        assert solve_objectives(mapper, [(FALSE, False)]) is SolveResult.SAT
        assert solve_objectives(mapper, [(FALSE, True)]) is SolveResult.UNSAT

    def test_contradictory_objectives(self):
        aig = Aig()
        a = aig.add_input()
        mapper = CnfMapper(aig, Solver())
        result = solve_objectives(mapper, [(a, True), (a, False)])
        assert result is SolveResult.UNSAT

    def test_complementary_edges_conflict(self):
        aig = Aig()
        a = aig.add_input()
        mapper = CnfMapper(aig, Solver())
        result = solve_objectives(mapper, [(a, True), (edge_not(a), True)])
        assert result is SolveResult.UNSAT

    def test_objective_on_negated_edge(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        mapper = CnfMapper(aig, Solver())
        result = solve_objectives(mapper, [(edge_not(f), True)])
        assert result is SolveResult.SAT
        assert not eval_edge(aig, f, mapper.model_inputs())

    def test_xor_needs_differing_inputs(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = xor(aig, a, b)
        mapper = CnfMapper(aig, Solver())
        assert solve_objectives(mapper, [(f, True)]) is SolveResult.SAT
        model = mapper.model_inputs()
        assert model[a >> 1] != model[b >> 1]

    def test_model_unavailable_after_unsat(self):
        aig = Aig()
        a = aig.add_input()
        mapper = CnfMapper(aig, Solver())
        solve_objectives(mapper, [(a, True), (a, False)])
        with pytest.raises(SatError):
            mapper.model_inputs()

    def test_unsat_conjunction_of_xors(self):
        # a^b, b^c, a^c cannot all be 1 (parity argument).
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = and_all(
            aig, [xor(aig, a, b), xor(aig, b, c), xor(aig, a, c)]
        )
        mapper = CnfMapper(aig, Solver())
        assert solve_objectives(mapper, [(f, True)]) is SolveResult.UNSAT

    def test_solver_reusable_across_calls(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        mapper = CnfMapper(aig, Solver())
        assert solve_objectives(mapper, [(f, True)]) is SolveResult.SAT
        # Grow the AIG between calls; the mapper encodes only the new cone.
        g = or_(aig, f, aig.add_input())
        assert solve_objectives(mapper, [(g, False)]) is SolveResult.SAT
        result = solve_objectives(mapper, [(f, True), (g, False)])
        assert result is SolveResult.UNSAT


class TestBudget:
    def test_tiny_budget_reports_unsat_or_unknown(self):
        aig = Aig()
        inputs = aig.add_inputs(8)
        # Two parity chains over opposite input orders: equal, but the
        # miter needs search to refute.
        forward = parity_chain(aig, inputs)
        backward = parity_chain(aig, list(reversed(inputs)))
        miter = xor(aig, forward, backward)
        mapper = CnfMapper(aig, Solver())
        result = solve_objectives(mapper, [(miter, True)], conflict_budget=1)
        assert result in (SolveResult.UNSAT, SolveResult.UNKNOWN)
        assert solve_objectives(mapper, [(miter, True)]) is SolveResult.UNSAT

    def test_zero_budget_on_easy_instance(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        mapper = CnfMapper(aig, Solver())
        # Easy instance needs no conflicts at all, so the budget never binds.
        result = solve_objectives(mapper, [(f, True)], conflict_budget=0)
        assert result is SolveResult.SAT


class TestAgainstExhaustive:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_aigs_agree_with_truth_table(self, seed):
        aig, inputs, root = build_random_aig(
            num_inputs=5, num_gates=25, seed=seed
        )
        mapper = CnfMapper(aig, Solver())
        for value in (True, False):
            got = solve_objectives(mapper, [(root, value)])
            expected = exhaustive_sat(aig, root, inputs, value)
            assert (got is SolveResult.SAT) == expected
            if got is SolveResult.SAT:
                assert eval_edge(aig, root, mapper.model_inputs()) == value

    @pytest.mark.parametrize("seed", range(15))
    def test_two_edge_objectives_agree(self, seed):
        rng = random.Random(seed)
        aig, inputs, root_a = build_random_aig(
            num_inputs=4, num_gates=18, seed=seed
        )
        cone = [2 * n for n in aig.cone([root_a]) if aig.is_and(n)]
        root_b = rng.choice(cone) ^ rng.randint(0, 1) if cone else root_a
        mapper = CnfMapper(aig, Solver())
        got = solve_objectives(mapper, [(root_a, True), (root_b, False)])
        want = exhaustive_sat(
            aig, aig.and_(root_a, edge_not(root_b)), inputs, True
        )
        assert (got is SolveResult.SAT) == want
        if got is SolveResult.SAT:
            model = mapper.model_inputs()
            assert eval_edge(aig, root_a, model)
            assert not eval_edge(aig, root_b, model)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_random_aig_sat_agreement(self, seed):
        aig, inputs, root = build_random_aig(
            num_inputs=4, num_gates=15, seed=seed
        )
        mapper = CnfMapper(aig, Solver())
        result = solve_objectives(mapper, [(root, True)])
        assert (result is SolveResult.SAT) == exhaustive_sat(
            aig, root, inputs, True
        )
        if result is SolveResult.SAT:
            assert eval_edge(aig, root, mapper.model_inputs())


class TestEquivalence:
    def test_structurally_equal(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        sweeper = SatSweeper(aig)
        assert sweeper.check_equal(f, f) is True
        assert sweeper.check_equal(f, edge_not(f)) is False

    def test_semantically_equal_different_structure(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        lhs = aig.and_(a, aig.and_(b, c))
        rhs = aig.and_(aig.and_(a, b), c)
        sweeper = SatSweeper(aig)
        assert sweeper.check_equal(lhs, rhs) is True

    def test_demorgan_equivalence(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        lhs = edge_not(aig.and_(a, b))
        rhs = or_(aig, edge_not(a), edge_not(b))
        sweeper = SatSweeper(aig)
        assert sweeper.check_equal(lhs, rhs) is True

    def test_inequivalent_reports_false(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        sweeper = SatSweeper(aig)
        assert sweeper.check_equal(aig.and_(a, b), or_(aig, a, b)) is False

    def test_check_constant(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        tautology = or_(aig, aig.and_(a, b), edge_not(aig.and_(a, b)))
        sweeper = SatSweeper(aig)
        assert sweeper.check_constant(tautology, True) is True
        assert sweeper.check_constant(tautology, False) is False
        assert sweeper.check_constant(a, True) is False

    @pytest.mark.parametrize("seed", range(20))
    def test_prove_equivalent_matches_bdd_oracle(self, seed):
        rng = random.Random(1000 + seed)
        aig, inputs, root = build_random_aig(
            num_inputs=4, num_gates=16, seed=seed
        )
        cone = [2 * n for n in aig.cone([root]) if aig.is_and(n)]
        other = rng.choice(cone) ^ rng.randint(0, 1) if cone else root
        verdict, cex = prove_edges_equivalent(aig, root, other)
        assert verdict == edges_equivalent(
            aig, root, other, [e >> 1 for e in inputs]
        )
        if verdict is False:
            assert eval_edge(aig, root, cex) != eval_edge(aig, other, cex)

    def test_prove_complement_pair(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        verdict, cex = prove_edges_equivalent(aig, f, edge_not(f))
        assert verdict is False
        assert eval_edge(aig, f, cex) != eval_edge(aig, edge_not(f), cex)


class TestEnumeration:
    def test_all_models_of_or(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = or_(aig, a, b)
        models = all_models(aig, f, [a >> 1, b >> 1])
        assert len(models) == 3
        for model in models:
            assert eval_edge(aig, f, model)

    def test_limit_respected(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = or_(aig, a, b)
        assert len(all_models(aig, f, [a >> 1, b >> 1], limit=2)) == 2

    def test_ite_model_count(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = ite(aig, a, b, c)
        models = all_models(aig, f, [a >> 1, b >> 1, c >> 1])
        # ite truth table has 4 ones over 3 inputs.
        assert len(models) == 4

    def test_model_count_matches_truth_table(self):
        aig, inputs, root = build_random_aig(
            num_inputs=5, num_gates=25, seed=7
        )
        nodes = [e >> 1 for e in inputs]
        models = all_models(aig, root, nodes)
        assert len(models) == bin(truth_table(aig, root, nodes)).count("1")
        assert len({tuple(sorted(m.items())) for m in models}) == len(models)


class TestStats:
    def test_solver_and_sweeper_count_calls(self):
        aig = Aig()
        inputs = aig.add_inputs(4)
        f = parity_chain(aig, inputs)
        mapper = CnfMapper(aig, Solver())
        solve_objectives(mapper, [(f, True)])
        assert mapper.solver.stats()["solve_calls"] == 1
        sweeper = SatSweeper(aig)
        sweeper.check_equal(f, inputs[0])
        assert sweeper.stats.get("sat_checks") == 1
