"""Tests for forward SAT sweeping (SatSweeper.sweep).

Function preservation is checked against BDD oracles on random AIGs and
the combinational families; merge behaviour is checked for determinism,
for never growing the cone, and for learning its counterexamples.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.analysis import cone_size
from repro.aig.graph import Aig, edge_not
from repro.aig.ops import cofactor, or_, xor
from repro.circuits.combinational import adder_sum_parity, random_logic
from repro.sweep import satsweep
from repro.sweep.satsweep import SatSweeper
from tests.conftest import build_random_aig, edges_equivalent


class TestFunctionPreservation:
    @pytest.mark.parametrize("seed", range(12))
    def test_sweep_preserves_root_function(self, seed):
        aig, inputs, root = build_random_aig(
            num_inputs=5, num_gates=30, seed=seed
        )
        sweeper = SatSweeper(aig)
        (new_root,), _ = sweeper.sweep([root])
        assert edges_equivalent(
            aig, root, new_root, [e >> 1 for e in inputs]
        )

    def test_sweep_merges_redundant_duplicate(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        # Two structurally different, functionally equal sub-circuits.
        f = or_(aig, aig.and_(a, b), aig.and_(a, c))
        g = aig.and_(a, or_(aig, b, c))  # distributivity
        root = xor(aig, f, g)  # constant FALSE overall
        sweeper = SatSweeper(aig)
        (new_root,), _ = sweeper.sweep([root])
        assert new_root == 0  # swept to constant FALSE

    def test_sweep_multiple_roots(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        g = edge_not(aig.and_(edge_not(a), edge_not(b)))
        sweeper = SatSweeper(aig)
        roots, _ = sweeper.sweep([f, g, edge_not(f)])
        assert edges_equivalent(aig, roots[0], f, [a >> 1, b >> 1])
        assert edges_equivalent(aig, roots[1], g, [a >> 1, b >> 1])
        assert roots[2] == edge_not(roots[0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_sweep_preserves_function(self, seed):
        aig, inputs, root = build_random_aig(
            num_inputs=4, num_gates=20, seed=seed
        )
        sweeper = SatSweeper(aig)
        (new_root,), _ = sweeper.sweep([root])
        assert edges_equivalent(
            aig, root, new_root, [e >> 1 for e in inputs]
        )


class TestMergeBehaviour:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_merge_yield_on_identical_builds(self, seed, monkeypatch):
        # Identical managers and signature seeds give identical candidate
        # classes and verdicts, hence the same final cone; the sweep never
        # grows the cone it started from.
        aig_a, _, root_a = build_random_aig(
            num_inputs=5, num_gates=40, seed=seed
        )
        aig_b, _, root_b = build_random_aig(
            num_inputs=5, num_gates=40, seed=seed
        )
        monkeypatch.setattr(satsweep, "SIM_SEED", 7)
        (new_a,), _ = SatSweeper(aig_a).sweep([root_a])
        (new_b,), _ = SatSweeper(aig_b).sweep([root_b])
        assert new_a == new_b
        assert cone_size(aig_a, new_a) == cone_size(aig_b, new_b)
        assert cone_size(aig_a, new_a) <= cone_size(aig_a, root_a)

    def test_cofactor_pair_sharing(self):
        aig, inputs, root = adder_sum_parity(6)
        var = inputs[0] >> 1
        cof0 = cofactor(aig, root, var, False)
        cof1 = cofactor(aig, root, var, True)
        sweeper = SatSweeper(aig)
        (new0, new1), _ = sweeper.sweep([cof0, cof1])
        assert edges_equivalent(
            aig, cof0, new0, [e >> 1 for e in inputs]
        )
        assert edges_equivalent(
            aig, cof1, new1, [e >> 1 for e in inputs]
        )

    def test_counterexamples_feed_signatures(self, monkeypatch):
        aig, _, root = random_logic(8, 60, seed=11)
        monkeypatch.setattr(satsweep, "SIM_WORDS", 1)
        monkeypatch.setattr(satsweep, "SIM_SEED", 3)
        sweeper = SatSweeper(aig)
        sweeper.sweep([root])
        # With one word of random patterns some false candidates are
        # expected; each SAT (different) verdict must be learned.
        if sweeper.stats.get("proved_different"):
            assert sweeper.stats.get("counterexamples_learned") > 0


class TestStatsContract:
    def test_stats_report_sat_checks(self):
        aig, _, root = random_logic(6, 40, seed=5)
        sweeper = SatSweeper(aig)
        sweeper.sweep([root])
        # The ablation benches read this key after a sweep.
        assert "sat_checks" in sweeper.stats or (
            sweeper.stats.get("sat_checks") == 0
        )
