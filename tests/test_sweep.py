"""Tests for the merge-phase engines: signatures, SAT sweep, BDD sweep."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.analysis import cone_size
from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import and_all, cofactor, or_, support, xor
from repro.aig.simulate import truth_table
from repro.circuits.combinational import (
    comparator,
    equality_with_constant_slices,
)
from repro.core.quantify import QuantifyOptions, quantify_exists
from repro.sweep import bddsweep
from repro.sweep.bddsweep import BddSweepTable, bdd_sweep
from repro.sweep.satsweep import SatSweeper, prove_edges_equivalent
from repro.sweep.signatures import SignatureTable
from tests.conftest import build_random_aig


class TestSignatureTable:
    def test_equal_nodes_share_key(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = or_(aig, aig.and_(a, b), aig.and_(a, c))   # a(b|c)
        g = aig.and_(a, or_(aig, b, c))                # same function
        table = SignatureTable(aig, [f, g], words=4)
        key_f = table.signature_key(f >> 1)
        key_g = table.signature_key(g >> 1)
        assert key_f[1] == key_g[1]

    def test_distinct_functions_usually_split(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        g = or_(aig, a, b)
        table = SignatureTable(aig, [f, g], words=4)
        assert table.signature_key(f >> 1)[1] != table.signature_key(g >> 1)[1]

    def test_counterexample_refines(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        g = aig.and_(a, edge_not(b))
        table = SignatureTable(aig, [f, g], words=1, seed=0)
        # Force both signatures equal is unlikely, but adding a
        # distinguishing pattern must split them regardless.
        table.add_pattern({a >> 1: True, b >> 1: True})
        table.flush()
        assert not table.edges_may_be_equal(f, g)

    def test_freeze_defers_flush(self):
        aig = Aig()
        a = aig.add_input()
        table = SignatureTable(aig, [a], words=1)
        table.freeze()
        words_before = table.words
        for k in range(70):  # more than one word worth of patterns
            table.add_pattern({a >> 1: bool(k % 2)})
        assert table.words == words_before
        table.thaw()
        assert table.words > words_before

    def test_constant_candidate(self):
        aig = Aig()
        a = aig.add_input()
        f = aig.and_(a, edge_not(a))  # folds to FALSE edge, node 0 sig zero
        table = SignatureTable(aig, [a], words=2)
        assert table.is_candidate_constant(0) is False  # constant node is 0

    def test_refresh_roots_adds_inputs(self):
        aig = Aig()
        a = aig.add_input()
        table = SignatureTable(aig, [a], words=2)
        b = aig.add_input()
        g = aig.and_(a, b)
        table.refresh_roots([g])
        assert table.node_signature(g >> 1) is not None


class TestProveEquivalent:
    def test_equivalent_pair(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = or_(aig, aig.and_(a, b), aig.and_(a, c))
        g = aig.and_(a, or_(aig, b, c))
        verdict, cex = prove_edges_equivalent(aig, f, g)
        assert verdict is True and cex is None

    def test_different_pair_with_counterexample(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        g = or_(aig, a, b)
        verdict, cex = prove_edges_equivalent(aig, f, g)
        assert verdict is False
        assert cex is not None
        from repro.aig.simulate import eval_edge

        assert eval_edge(aig, f, cex) != eval_edge(aig, g, cex)

    def test_same_edge_trivial(self):
        aig = Aig()
        a = aig.add_input()
        assert prove_edges_equivalent(aig, a, a) == (True, None)

    def test_antivalent_pair(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        verdict, _ = prove_edges_equivalent(aig, f, edge_not(f))
        assert verdict is False


class TestSatSweeper:
    def test_sweep_preserves_function(self):
        for seed in range(10):
            aig, inputs, root = build_random_aig(5, 30, seed=seed)
            nodes = [e >> 1 for e in inputs]
            before = truth_table(aig, root, nodes)
            sweeper = SatSweeper(aig)
            [swept], rebuilt = sweeper.sweep([root])
            assert truth_table(aig, swept, nodes) == before

    def test_sweep_never_grows(self):
        for seed in range(10):
            aig, inputs, root = build_random_aig(5, 40, seed=seed + 50)
            sweeper = SatSweeper(aig)
            [swept], _ = sweeper.sweep([root])
            assert cone_size(aig, swept) <= cone_size(aig, root)

    def test_sweep_merges_redundant_logic(self):
        # Build f twice with different structure; sweeping should share.
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f1 = or_(aig, aig.and_(a, b), aig.and_(a, c))
        f2 = aig.and_(a, or_(aig, b, c))
        miter = xor(aig, f1, f2)  # constant false, sweeping should see it
        sweeper = SatSweeper(aig)
        [swept], _ = sweeper.sweep([miter])
        assert swept == FALSE

    def test_check_equal_learns_counterexamples(self):
        aig, inputs, root = build_random_aig(5, 25, seed=91)
        sweeper = SatSweeper(aig)
        sweeper.signatures = SignatureTable(aig, [root], words=1)
        other = aig.and_(inputs[0], inputs[1])
        verdict = sweeper.check_equal(root, other)
        if verdict is False:
            assert sweeper.stats.get("counterexamples_learned") >= 1

    def test_check_constant(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        tautology = or_(aig, a, edge_not(a))  # folds to TRUE
        assert tautology == TRUE
        f = or_(aig, aig.and_(a, b), edge_not(or_(aig, a, b)))
        sweeper = SatSweeper(aig)
        # f is not constant: (a AND b) OR NOT (a OR b) is 0 on a=1,b=0.
        assert sweeper.check_constant(f, True) is False
        g = or_(aig, f, xor(aig, a, b))  # covers the remaining rows: TRUE
        assert sweeper.check_constant(g, True) is True

    def test_backward_merge_preserves_function(self):
        aig = Aig()
        xs = aig.add_inputs(6)
        shared = and_all(aig, xs[:4])
        f = or_(aig, shared, xs[4])
        g = or_(aig, shared, xs[5])
        sweeper = SatSweeper(aig)
        new_g, merge_map = sweeper.merge_pair_backward(f, g)
        nodes = [e >> 1 for e in xs]
        assert truth_table(aig, new_g, nodes) == truth_table(aig, g, nodes)

    def test_backward_merge_on_identical_cones_stops_at_root(self):
        aig = Aig()
        xs = aig.add_inputs(4)
        f = and_all(aig, xs)
        # g structurally identical -> hashing gives the same edge; backward
        # merge must early-out with no SAT checks.
        g = and_all(aig, list(xs))
        sweeper = SatSweeper(aig)
        new_g, merge_map = sweeper.merge_pair_backward(f, g)
        assert new_g == g == f
        assert sweeper.stats.get("sat_checks", 0) == 0


class TestBackwardWalkSkipsSharedNodes:
    """The backward merge walk never checks a node a's cone already holds."""

    @pytest.mark.parametrize(
        "family",
        [lambda: equality_with_constant_slices(4, 3), lambda: comparator(8)],
        ids=["equality_slices_4_3", "comparator_8"],
    )
    def test_cofactor_pairs(self, family):
        aig, inputs, root = family()
        for var in inputs:
            a = cofactor(aig, root, var >> 1, False)
            b = cofactor(aig, root, var >> 1, True)
            a_cone = set(aig.cone([a]))
            b_only = set(aig.cone([b])) - a_cone
            sweeper = SatSweeper(aig)
            checked = []
            check_equal = sweeper.check_equal

            def spy(x, y):
                checked.append(y >> 1)
                return check_equal(x, y)

            sweeper.check_equal = spy
            new_b, _ = sweeper.merge_pair_backward(a, b)
            assert not a_cone.intersection(checked)
            assert prove_edges_equivalent(aig, new_b, b)[0] is True
            pairs = sweeper.stats.get("backward_pairs")
            assert pairs <= len(b_only) * len(a_cone) + 1


class TestBddSweep:
    def test_preserves_function(self):
        for seed in range(10):
            aig, inputs, root = build_random_aig(5, 30, seed=seed + 200)
            nodes = [e >> 1 for e in inputs]
            before = truth_table(aig, root, nodes)
            [swept], rebuilt, stats = bdd_sweep(aig, [root])
            assert truth_table(aig, swept, nodes) == before

    def test_merges_structurally_distinct_equivalents(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f1 = or_(aig, aig.and_(a, b), aig.and_(a, c))
        f2 = aig.and_(a, or_(aig, b, c))
        [s1, s2], rebuilt, stats = bdd_sweep(aig, [f1, f2])
        assert s1 == s2
        assert stats.get("bdd_merges") >= 1

    def test_cut_points_on_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(bddsweep, "BDD_NODE_LIMIT", 8)
        aig = Aig()
        xs = aig.add_inputs(10)
        acc = FALSE
        for x in xs:
            acc = xor(aig, acc, x)
        [swept], rebuilt, stats = bdd_sweep(aig, [acc])
        nodes = [e >> 1 for e in xs]
        assert truth_table(aig, swept, nodes) == truth_table(aig, acc, nodes)
        assert stats.get("cut_points") >= 1

    def test_antivalent_nodes_merge_with_complement(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        g = edge_not(or_(aig, edge_not(a), edge_not(b)))  # same node by hash
        # Build a structurally distinct antivalent pair instead:
        h = or_(aig, edge_not(a), edge_not(b))
        [sf, sh], rebuilt, stats = bdd_sweep(aig, [f, h])
        assert sf == edge_not(sh)


class TestBddSweepTable:
    def test_shared_table_preserves_every_root(self):
        # Cofactor pairs of random logic, as quantification makes them,
        # swept one after another through one table; later pairs also
        # cofactor what earlier sweeps returned.
        for seed in range(4):
            rng = random.Random(seed)
            aig, inputs, root = build_random_aig(6, 60, seed=seed + 500)
            nodes = [e >> 1 for e in inputs]
            pool = [root] + [2 * n for n in aig.cone([root]) if aig.is_and(n)]
            table = BddSweepTable(aig)
            for _ in range(25):
                edge = rng.choice(pool) ^ rng.randint(0, 1)
                var = rng.choice(nodes)
                pair = [
                    cofactor(aig, edge, var, False),
                    cofactor(aig, edge, var, True),
                ]
                swept, _, _ = bdd_sweep(aig, pair, table=table)
                for before, after in zip(pair, swept):
                    assert truth_table(aig, after, nodes) == truth_table(
                        aig, before, nodes
                    )
                pool.extend(swept)

    def test_overrun_restarts_in_a_fresh_table(self, monkeypatch):
        monkeypatch.setattr(bddsweep, "BDD_NODE_LIMIT", 8)
        aig = Aig()
        xs = aig.add_inputs(10)
        nodes = [e >> 1 for e in xs]
        table = BddSweepTable(aig)
        roots = [aig.and_(xs[0], xs[1])]
        for shift in range(4):
            acc = FALSE
            for x in xs[shift:] + xs[:shift]:
                acc = xor(aig, acc, x)
            roots.append(aig.and_(acc, xs[shift]))
        recycles = cut_points = 0
        for index, root in enumerate(roots):
            [swept], _, stats = bdd_sweep(aig, [root], table=table)
            assert truth_table(aig, swept, nodes) == truth_table(
                aig, root, nodes
            )
            fresh = index == 0 or stats.get("bdd_recycles") == 1
            if not fresh:
                assert stats.get("cut_points") == 0
            recycles += stats.get("bdd_recycles")
            cut_points += stats.get("cut_points")
        assert recycles >= 1
        assert cut_points >= 1

    def test_guard_keeps_quantified_variable_out(self):
        aig = Aig()
        x, a, b = aig.add_inputs(3)
        # (x & a & b) | (!x & a & b): the function a & b, first seen by
        # the table at a node that reads x.
        reads_x = or_(
            aig,
            aig.and_(aig.and_(x, a), b),
            aig.and_(aig.and_(edge_not(x), a), b),
        )
        table = BddSweepTable(aig)
        bdd_sweep(aig, [reads_x], table=table)
        f = aig.and_(x, aig.and_(a, b))
        outcome = quantify_exists(
            aig, f, [x >> 1], QuantifyOptions.preset("bdd"), bdd_table=table
        )
        assert x >> 1 not in support(aig, outcome.edge)
        assert outcome.stats.get("support_guarded") >= 1
        nodes = [e >> 1 for e in (x, a, b)]
        assert truth_table(aig, outcome.edge, nodes) == truth_table(
            aig, aig.and_(a, b), nodes
        )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sweep_function_preservation_property(seed):
    aig, inputs, root = build_random_aig(4, 22, seed=seed)
    nodes = [e >> 1 for e in inputs]
    reference = truth_table(aig, root, nodes)
    sweeper = SatSweeper(aig)
    [swept], _ = sweeper.sweep([root])
    assert truth_table(aig, swept, nodes) == reference
    with mock.patch.object(bddsweep, "BDD_NODE_LIMIT", 200):
        [bdd_swept], _, _ = bdd_sweep(aig, [root])
    assert truth_table(aig, bdd_swept, nodes) == reference
