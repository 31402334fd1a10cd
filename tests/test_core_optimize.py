"""Tests for the don't-care optimization phase (Section 2.2)."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import and_all, cofactor, or_, or_all, xor
from repro.aig.simulate import truth_table
from repro.circuits.combinational import random_logic
from repro.core import optimize
from repro.core.dontcare import DontCareOracle, care_set_candidates
from repro.core.optimize import optimize_disjunction
from repro.sweep.satsweep import SatSweeper
from repro.sweep.signatures import SignatureTable
from repro.util.stats import StatsBag
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
        sig_a = table.node_signature(a >> 1)
        f1 = aig.and_(a, b)
        input_words, words = table.patterns([f1])
        assert words == 2
        assert set(input_words) == {a >> 1, b >> 1}
        # Known patterns are kept as they are; the new node is simulated
        # on them, with the new input's fresh words.
        assert input_words[a >> 1] == sig_a == table.node_signature(a >> 1)
        assert table.node_signature(f1 >> 1) == sig_a & input_words[b >> 1]

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

    def test_stats_sizes_reported(self):
        aig, inputs, f = build_random_aig(4, 15, seed=702)
        g = aig.and_(inputs[0], inputs[1])
        _, stats = optimize_disjunction(aig, f, g)
        assert stats.get("size_before") >= stats.get("size_after")


def _simplify_bottom_up(aig, reference, target):
    """The don't-care walk without a cap: every node, inputs first."""
    oracle = DontCareOracle(aig, SatSweeper(aig))
    candidates = care_set_candidates(
        aig,
        reference,
        target,
        oracle.sweeper.signature_table([reference, target]),
    )
    care_edge = edge_not(reference)
    replacements = {}
    for node in aig.cone([target]):
        for candidate in candidates.get(node, ()):
            if oracle.valid_under_input_dc(care_edge, 2 * node, candidate):
                replacements[node] = candidate
                break
    return aig.rebuild(target, replacements)


def _simplify_live(aig, reference, target):
    oracle = DontCareOracle(aig, SatSweeper(aig))
    stats = StatsBag()
    edge = optimize._simplify_against(aig, reference, target, oracle, stats)
    return edge, stats


class TestLiveWalk:
    """Don't-care checks go root-down over the nodes the rebuild reaches."""

    @settings(max_examples=25, deadline=None)
    @given(
        num_inputs=st.integers(min_value=3, max_value=7),
        num_gates=st.integers(min_value=5, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        var=st.integers(min_value=0, max_value=6),
    )
    def test_matches_uncapped_bottom_up_walk(
        self, num_inputs, num_gates, seed, var
    ):
        aig, inputs, root = random_logic(num_inputs, num_gates, seed=seed)
        var_node = inputs[var % num_inputs] >> 1
        reference = cofactor(aig, root, var_node, False)
        target = cofactor(aig, root, var_node, True)
        expected = _simplify_bottom_up(aig, reference, target)
        with mock.patch.object(optimize, "MAX_INPUT_DC_CHECKS", 10**9):
            simplified, _ = _simplify_live(aig, reference, target)
        assert len(aig.cone([simplified])) == len(aig.cone([expected]))
        nodes = [e >> 1 for e in inputs]
        care = ~truth_table(aig, reference, nodes)
        differ = truth_table(aig, simplified, nodes) ^ truth_table(
            aig, target, nodes
        )
        assert differ & care == 0

    def test_root_replaced_when_the_cap_bites(self):
        # Under care (x = 0) the root x AND (OR of x AND y_i) is FALSE, and
        # so is every term below it: a bottom-up walk spends the whole cap
        # on the terms and never reaches the root.
        aig = Aig()
        x = aig.add_input("x")
        terms = [aig.and_(x, y) for y in aig.add_inputs(250)]
        target = aig.and_(x, or_all(aig, terms))
        candidates = care_set_candidates(
            aig, x, target, SignatureTable(aig, [x, target])
        )
        below_root = sum(
            len(entries)
            for node, entries in candidates.items()
            if node != target >> 1
        )
        assert below_root > optimize.MAX_INPUT_DC_CHECKS
        simplified, stats = _simplify_live(aig, x, target)
        assert simplified == FALSE
        assert stats.get("input_dc_replacements") == 1
