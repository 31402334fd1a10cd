"""Tests for bit-parallel simulation and truth tables."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import or_, xor
from repro.aig.simulate import (
    eval_edge,
    random_input_words,
    simulate,
    simulate_nodes,
    truth_table,
)
from repro.errors import AigError
from tests.conftest import build_random_aig


class TestEval:
    def test_and_gate(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        an, bn = a >> 1, b >> 1
        assert eval_edge(aig, f, {an: True, bn: True})
        assert not eval_edge(aig, f, {an: True, bn: False})

    def test_complement_edge(self):
        aig = Aig()
        a = aig.add_input()
        assert eval_edge(aig, edge_not(a), {a >> 1: False})

    def test_constants(self):
        aig = Aig()
        assert eval_edge(aig, TRUE, {})
        assert not eval_edge(aig, FALSE, {})

    def test_missing_inputs_default_false(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = or_(aig, a, b)
        assert not eval_edge(aig, f, {})


class TestSimulate:
    def test_matches_eval_on_words(self):
        aig, inputs, root = build_random_aig(5, 30, seed=11)
        patterns = random_input_words(aig, words=2, seed=3)
        out = simulate(aig, patterns, [root], 2)[root]
        # Bit 17 of word 0 and bit 17 of word 1 against scalar evaluation.
        for bit in (17, 64 + 17):
            assignment = {
                node: bool(value >> bit & 1)
                for node, value in patterns.items()
            }
            assert bool(out >> bit & 1) == eval_edge(aig, root, assignment)

    def test_complement_output(self):
        aig = Aig()
        a = aig.add_input()
        ones = 0xFFFFFFFFFFFFFFFF
        out = simulate(aig, {a >> 1: ones}, [a, edge_not(a)], 1)
        assert out[a] == ones
        assert out[edge_not(a)] == 0

    def test_simulate_nodes_covers_cone(self):
        aig, inputs, root = build_random_aig(4, 15, seed=12)
        patterns = random_input_words(aig, words=1, seed=1)
        values = simulate_nodes(aig, patterns, [root], 1)
        for node in aig.cone([root]):
            assert node in values


class TestTruthTable:
    def test_known_function(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        assert truth_table(aig, f, [a >> 1, b >> 1]) == 0b1000

    def test_input_order_matters(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, edge_not(b))
        forward = truth_table(aig, f, [a >> 1, b >> 1])
        backward = truth_table(aig, f, [b >> 1, a >> 1])
        assert forward == 0b0010
        assert backward == 0b0100

    def test_matches_exhaustive_eval(self):
        aig, inputs, root = build_random_aig(4, 20, seed=13)
        nodes = [e >> 1 for e in inputs]
        mask = truth_table(aig, root, nodes)
        for row, values in enumerate(itertools.product([False, True], repeat=4)):
            # row bit k corresponds to input k value.
            assignment = {nodes[k]: bool((row >> k) & 1) for k in range(4)}
            assert bool((mask >> row) & 1) == eval_edge(aig, root, assignment)

    def test_wide_tables_span_words(self):
        # 7 inputs = 128 rows = 2 simulation words.
        aig = Aig()
        xs = aig.add_inputs(7)
        acc = FALSE
        for x in xs:
            acc = xor(aig, acc, x)
        mask = truth_table(aig, acc, [x >> 1 for x in xs])
        for row in (0, 1, 127):
            expected = bin(row).count("1") % 2 == 1
            assert bool((mask >> row) & 1) == expected

    def test_too_many_inputs_rejected(self):
        aig = Aig()
        xs = aig.add_inputs(17)
        with pytest.raises(AigError):
            truth_table(aig, xs[0], [x >> 1 for x in xs])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_simulation_consistency_property(seed):
    """64 parallel patterns agree with 64 scalar evaluations."""
    aig, inputs, root = build_random_aig(3, 12, seed=seed)
    patterns = random_input_words(aig, words=1, seed=seed)
    out = simulate(aig, patterns, [root], 1)[root]
    for bit in range(0, 64, 17):
        assignment = {
            node: bool(value >> bit & 1) for node, value in patterns.items()
        }
        assert bool(out >> bit & 1) == eval_edge(aig, root, assignment)
