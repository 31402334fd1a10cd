"""Tests for cut enumeration and truth-table rewriting."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.aig.cuts import cut_cone, cut_truth_table, enumerate_cuts
from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import ite, or_, xor
from repro.aig.rewrite import rewrite_root, synthesize_from_truth_table
from repro.aig.simulate import truth_table
from tests.conftest import build_random_aig


class TestCuts:
    def test_trivial_cut_always_present(self):
        aig, inputs, root = build_random_aig(4, 15, seed=31)
        cuts = enumerate_cuts(aig, [root], k=4)
        for node, node_cuts in cuts.items():
            if node != 0:
                assert frozenset((node,)) in node_cuts

    def test_cut_width_bounded(self):
        aig, inputs, root = build_random_aig(6, 40, seed=32)
        cuts = enumerate_cuts(aig, [root], k=3)
        for node_cuts in cuts.values():
            for cut in node_cuts:
                assert len(cut) <= 3

    def test_cut_count_bounded(self):
        aig, inputs, root = build_random_aig(6, 40, seed=33)
        cuts = enumerate_cuts(aig, [root], k=4, max_cuts_per_node=5)
        for node_cuts in cuts.values():
            assert len(node_cuts) <= 5

    def test_input_cuts_trivial_only(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        cuts = enumerate_cuts(aig, [f])
        assert cuts[a >> 1] == [frozenset((a >> 1,))]

    def test_cut_cone_between_leaves_and_node(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        inner = aig.and_(a, b)
        root = aig.and_(inner, c)
        cone = cut_cone(
            aig, root >> 1, frozenset((a >> 1, b >> 1, c >> 1))
        )
        assert set(cone) == {inner >> 1, root >> 1}

    def test_cut_cone_of_leaf_empty(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        assert cut_cone(aig, a >> 1, frozenset((a >> 1,))) == []

    def test_cut_truth_table_matches_global(self):
        aig, inputs, root = build_random_aig(4, 20, seed=34)
        input_nodes = [e >> 1 for e in inputs]
        # The cut of all inputs reproduces the global truth table.
        cut = frozenset(
            n for n in input_nodes
            if n in set(aig.cone([root]))
        )
        if not cut or (root >> 1) in cut:
            pytest.skip("degenerate random instance")
        mask, leaves = cut_truth_table(aig, root >> 1, cut)
        global_mask = truth_table(aig, 2 * (root >> 1), leaves)
        assert mask == global_mask


class TestSynthesis:
    def test_all_three_variable_functions(self):
        aig = Aig()
        xs = aig.add_inputs(3)
        cache = {}
        for mask in range(256):
            edge = synthesize_from_truth_table(aig, mask, list(xs), cache)
            assert truth_table(aig, edge, [x >> 1 for x in xs]) == mask

    def test_constants(self):
        aig = Aig()
        xs = aig.add_inputs(2)
        assert synthesize_from_truth_table(aig, 0, list(xs)) == FALSE
        assert synthesize_from_truth_table(aig, 0b1111, list(xs)) == TRUE

    def test_single_variable(self):
        aig = Aig()
        (x,) = aig.add_inputs(1)
        assert synthesize_from_truth_table(aig, 0b10, [x]) == x
        assert synthesize_from_truth_table(aig, 0b01, [x]) == edge_not(x)

    def test_over_complemented_leaves(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        edge = synthesize_from_truth_table(
            aig, 0b1000, [edge_not(a), b]
        )  # "leaf0 AND leaf1" with leaf0 = NOT a
        assert truth_table(aig, edge, [a >> 1, b >> 1]) == 0b0100


class TestRewrite:
    def test_function_preserved(self):
        for seed in range(15):
            aig, inputs, root = build_random_aig(4, 25, seed=seed)
            nodes = [e >> 1 for e in inputs]
            before = truth_table(aig, root, nodes)
            new_root = rewrite_root(aig, root)
            assert truth_table(aig, new_root, nodes) == before

    def test_never_grows(self):
        for seed in range(15):
            aig, inputs, root = build_random_aig(5, 35, seed=seed + 100)
            new_root = rewrite_root(aig, root)
            assert aig.cone_and_count(new_root) <= aig.cone_and_count(root)

    def test_redundant_mux_collapses(self):
        # ite(a, f, f) should collapse to f.
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(b, c)
        redundant = or_(aig, aig.and_(a, f), aig.and_(edge_not(a), f))
        new_root = rewrite_root(aig, redundant)
        assert aig.cone_and_count(new_root) <= aig.cone_and_count(f)

    def test_constant_root(self):
        aig = Aig()
        aig.add_inputs(2)
        assert rewrite_root(aig, TRUE) == TRUE
        assert rewrite_root(aig, FALSE) == FALSE


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
@example(seed=4802)  # locally best cuts grew this cone from 10 to 11 ANDs
def test_rewrite_property(seed):
    aig, inputs, root = build_random_aig(4, 20, seed=seed)
    nodes = [e >> 1 for e in inputs]
    new_root = rewrite_root(aig, root)
    assert truth_table(aig, new_root, nodes) == truth_table(aig, root, nodes)
    assert aig.cone_and_count(new_root) <= aig.cone_and_count(root)
