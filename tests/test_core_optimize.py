"""Tests for the don't-care optimization phase (Section 2.2)."""

import pytest

from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import and_all, or_, xor
from repro.aig.simulate import truth_table
from repro.core.dontcare import DontCareOracle, care_set_candidates
from repro.core.optimize import OptimizeOptions, optimize_disjunction
from repro.sweep.satsweep import SatSweeper
from repro.sweep.signatures import SignatureTable
from tests.conftest import build_random_aig, edges_equivalent


class TestDontCareOracle:
    def setup_method(self):
        self.aig = Aig()
        self.a, self.b, self.c = self.aig.add_inputs(3)
        self.oracle = DontCareOracle(self.aig, SatSweeper(self.aig))

    def test_input_dc_accepts_valid_replacement(self):
        # care = NOT a; under it, (a AND b) == FALSE.
        care = edge_not(self.a)
        original = self.aig.and_(self.a, self.b)
        assert self.oracle.valid_under_input_dc(care, original, FALSE) is True

    def test_input_dc_rejects_invalid_replacement(self):
        care = edge_not(self.a)
        # b != c within the care set (a=0, b=1, c=0 distinguishes).
        assert self.oracle.valid_under_input_dc(care, self.b, self.c) is False

    def test_input_dc_trivially_true_for_same_edge(self):
        care = edge_not(self.a)
        assert self.oracle.valid_under_input_dc(care, self.b, self.b) is True
        assert self.oracle.stats.get("input_dc_trivial") == 1

    def test_odc_accepts_unobservable_difference(self):
        # f0 = a; f1 = a AND b.  Replacing f1 by FALSE changes f1 inside
        # the care set (nowhere actually: a=1 -> f0 covers), output same.
        f0 = self.a
        f1 = self.aig.and_(self.a, self.b)
        assert self.oracle.valid_under_odc(f0, f1, FALSE) is True

    def test_odc_rejects_observable_difference(self):
        f0 = self.aig.and_(self.a, self.b)
        f1 = self.c
        assert self.oracle.valid_under_odc(f0, f1, FALSE) is False


class TestCandidates:
    def test_constant_candidates_found(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f0 = a
        f1 = aig.and_(a, b)  # within care (a=0) f1 is constant 0
        table = SignatureTable(aig, [f0, f1], words=4, seed=1)
        candidates = care_set_candidates(aig, f0, f1, table)
        assert FALSE in candidates.get(f1 >> 1, [])

    def test_merge_candidates_found(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f0 = edge_not(a)
        # Within care (a=1): (a AND b) == b.
        f1 = aig.and_(aig.and_(a, b), c)
        table = SignatureTable(aig, [f0, f1], words=4, seed=2)
        candidates = care_set_candidates(aig, f0, f1, table)
        inner = aig.and_(a, b)
        assert b in candidates.get(inner >> 1, [])

    def test_unseen_inputs_get_patterns_without_resimulation(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        table = SignatureTable(aig, [a], words=2, seed=3)
        f1 = aig.and_(a, b)
        input_words, words = table.patterns([f1])
        assert words == 2
        assert set(input_words) == {a >> 1, b >> 1}
        assert table.roots == [a]

    def test_refuted_candidate_is_dropped(self):
        # f1 is a wide AND: no random pattern sets all its inputs, so f1
        # looks constant FALSE.  The DC check refutes that, and its
        # counterexample lands in the sweeper's table.
        aig = Aig()
        xs = aig.add_inputs(20)
        f0, f1 = xs[0], and_all(aig, xs[1:])
        sweeper = SatSweeper(aig)
        table = sweeper.signature_table([f0, f1])
        assert FALSE in care_set_candidates(aig, f0, f1, table)[f1 >> 1]
        oracle = DontCareOracle(aig, sweeper)
        assert oracle.valid_under_input_dc(edge_not(f0), f1, FALSE) is False
        assert sweeper.stats.get("counterexamples_learned") == 1
        again = care_set_candidates(aig, f0, f1, table)
        assert FALSE not in again.get(f1 >> 1, [])


class TestOptimizeDisjunction:
    def test_function_preserved_random(self):
        for seed in range(8):
            aig, inputs, f = build_random_aig(5, 20, seed=seed + 500)
            import random as _random

            rng = _random.Random(seed + 900)
            nodes = list(inputs)
            for _ in range(20):
                x = rng.choice(nodes) ^ rng.randint(0, 1)
                y = rng.choice(nodes) ^ rng.randint(0, 1)
                nodes.append(aig.and_(x, y))
            g = nodes[-1] ^ rng.randint(0, 1)
            reference = or_(aig, f, g)
            optimized, stats = optimize_disjunction(aig, f, g)
            assert edges_equivalent(
                aig, optimized, reference, [e >> 1 for e in inputs]
            ), seed

    def test_never_grows(self):
        for seed in range(8):
            aig, inputs, f = build_random_aig(5, 25, seed=seed + 600)
            g = aig.and_(inputs[0], inputs[1])
            baseline = or_(aig, f, g)
            optimized, stats = optimize_disjunction(aig, f, g)
            assert aig.cone_and_count(optimized) <= aig.cone_and_count(baseline)

    def test_covered_cofactor_simplifies(self):
        # f0 = a, f1 = a AND huge: f0 OR f1 == a; optimizer should find it.
        aig = Aig()
        a = aig.add_input()
        rest = aig.add_inputs(4)
        huge = and_all(aig, rest)
        f0 = a
        f1 = aig.and_(a, huge)
        optimized, stats = optimize_disjunction(aig, f0, f1)
        assert optimized == a

    def test_odc_mode_runs(self):
        aig, inputs, f = build_random_aig(4, 15, seed=700)
        g = aig.and_(inputs[0], edge_not(inputs[1]))
        reference = or_(aig, f, g)
        optimized, stats = optimize_disjunction(
            aig, f, g,
            options=OptimizeOptions(use_odc=True),
        )
        assert edges_equivalent(
            aig, optimized, reference, [e >> 1 for e in inputs]
        )

    def test_rewrite_mode_runs(self):
        aig, inputs, f = build_random_aig(4, 15, seed=701)
        g = aig.and_(inputs[2], inputs[3])
        reference = or_(aig, f, g)
        optimized, stats = optimize_disjunction(
            aig, f, g,
            options=OptimizeOptions(use_rewrite=True),
        )
        assert edges_equivalent(
            aig, optimized, reference, [e >> 1 for e in inputs]
        )

    def test_stats_sizes_reported(self):
        aig, inputs, f = build_random_aig(4, 15, seed=702)
        g = aig.and_(inputs[0], inputs[1])
        _, stats = optimize_disjunction(aig, f, g)
        assert stats.get("size_before") >= stats.get("size_after")
