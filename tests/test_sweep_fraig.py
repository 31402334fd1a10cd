"""Tests for FRAIG functional reduction (sweep + garbage collection)."""

from hypothesis import given, settings, strategies as st

from repro.aig.analysis import cone_size
from repro.aig.graph import Aig, edge_not
from repro.aig.ops import cofactor, or_, transfer, xor
from repro.circuits.combinational import adder_sum_parity
from repro.sweep.fraig import fraig
from tests.conftest import build_random_aig, edges_equivalent


def _equivalent_across_managers(old_aig, old_edge, result, inputs):
    """Compare an old-manager edge against its fraiged counterpart."""
    # Transfer the new-manager root back into the old manager using the
    # inverse of the input map, then use the BDD oracle.
    inverse = {new: 2 * old for old, new in result.node_map.items()}
    back = transfer(result.aig, result.edges[0], old_aig, inverse)
    return edges_equivalent(
        old_aig, old_edge, back, [e >> 1 for e in inputs]
    )


class TestFraig:
    def test_function_preserved(self):
        aig, inputs, root = build_random_aig(
            num_inputs=5, num_gates=40, seed=2
        )
        result = fraig(aig, [root])
        assert _equivalent_across_managers(aig, root, result, inputs)

    def test_cofactor_pair_preserved(self):
        aig, inputs, root = adder_sum_parity(5)
        var = inputs[0] >> 1
        pair = [cofactor(aig, root, var, value) for value in (False, True)]
        result = fraig(aig, pair)
        inverse = {new: 2 * old for old, new in result.node_map.items()}
        for old_edge, new_edge in zip(pair, result.edges):
            back = transfer(result.aig, new_edge, aig, inverse)
            assert edges_equivalent(
                aig, old_edge, back, [e >> 1 for e in inputs]
            )

    def test_redundant_logic_disappears(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = or_(aig, aig.and_(a, b), aig.and_(a, c))
        g = aig.and_(a, or_(aig, b, c))     # same function, other shape
        both = xor(aig, f, g)               # constant FALSE
        root = or_(aig, f, aig.and_(both, c))
        result = fraig(aig, [root])
        # root == f; everything reachable only through `both` must be gone.
        assert result.size <= cone_size(aig, f)

    def test_size_never_grows(self):
        for seed in range(8):
            aig, _, root = build_random_aig(
                num_inputs=6, num_gates=60, seed=seed
            )
            before = cone_size(aig, root)
            result = fraig(aig, [root])
            assert result.size <= before
            assert result.stats.get("size_after") <= result.stats.get(
                "size_before"
            )

    def test_multiple_roots_share_logic(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        g = edge_not(aig.and_(edge_not(a), edge_not(b)))
        result = fraig(aig, [f, g])
        assert len(result.edges) == 2
        assert result.aig.num_inputs == 2

    def test_keep_all_inputs(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)  # c unused
        slim = fraig(aig, [f])
        fat = fraig(aig, [f], keep_all_inputs=True)
        assert slim.aig.num_inputs == 2
        assert fat.aig.num_inputs == 3

    def test_node_map_covers_live_inputs(self):
        aig, inputs, root = build_random_aig(
            num_inputs=5, num_gates=30, seed=9
        )
        result = fraig(aig, [root])
        for old_node, new_node in result.node_map.items():
            assert aig.is_input(old_node)
            assert result.aig.is_input(new_node)
            assert aig.input_name(old_node) == result.aig.input_name(new_node)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_fraig_preserves_function(self, seed):
        aig, inputs, root = build_random_aig(
            num_inputs=4, num_gates=25, seed=seed
        )
        result = fraig(aig, [root])
        assert _equivalent_across_managers(aig, root, result, inputs)
