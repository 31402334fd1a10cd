"""Tests for the netlist model, generators and the text format."""

import random

import pytest

from repro.aig.graph import TRUE, edge_not
from repro.circuits import generators as G
from repro.circuits.combinational import COMBINATIONAL_FAMILIES
from repro.circuits.netlist import Netlist
from repro.circuits.parse import parse_netlist, serialize_netlist
from repro.errors import NetlistError


def counter_value(netlist, state):
    return sum(
        int(state[node]) << k for k, node in enumerate(netlist.latch_nodes)
    )


class TestNetlistModel:
    def test_toggler(self):
        n = Netlist("t")
        t = n.add_latch("t", init=False)
        n.set_next(t, edge_not(t))
        n.set_property(TRUE)
        n.validate()
        states = n.run_trace([{}] * 4)
        assert [s[t >> 1] for s in states] == [False, True, False, True, False]

    def test_missing_next_rejected(self):
        n = Netlist()
        n.add_latch("x")
        with pytest.raises(NetlistError):
            n.validate()

    def test_negative_latch_edge_rejected(self):
        n = Netlist()
        x = n.add_latch("x")
        with pytest.raises(NetlistError):
            n.set_next(edge_not(x), x)

    def test_set_next_on_input_rejected(self):
        n = Netlist()
        i = n.add_input()
        with pytest.raises(NetlistError):
            n.set_next(i, i)

    def test_property_accessors(self):
        n = Netlist()
        with pytest.raises(NetlistError):
            _ = n.property_edge
        n.set_property(TRUE)
        assert n.has_property
        assert n.property_edge == TRUE

    def test_init_state_edge(self):
        n = Netlist()
        a = n.add_latch("a", init=True)
        b = n.add_latch("b", init=False)
        n.set_next(a, a)
        n.set_next(b, b)
        from repro.aig.simulate import eval_edge

        init = n.init_state_edge()
        assert eval_edge(n.aig, init, {a >> 1: True, b >> 1: False})
        assert not eval_edge(n.aig, init, {a >> 1: True, b >> 1: True})

    def test_init_assignment_bitmask(self):
        n = Netlist()
        latches = n.add_latches(4, init=0b0101)
        values = [n.init_assignment()[e >> 1] for e in latches]
        assert values == [True, False, True, False]

    def test_clone_preserves_behavior(self):
        original = G.mod_counter(4, 11)
        clone, node_map = original.clone()
        trace_a = original.run_trace([{}] * 13)
        trace_b = clone.run_trace([{}] * 13)
        values_a = [counter_value(original, s) for s in trace_a]
        values_b = [counter_value(clone, s) for s in trace_b]
        assert values_a == values_b

    def test_clone_drops_dead_logic(self):
        net = G.mod_counter(3, 5)
        # Junk nodes not referenced by anything:
        for _ in range(10):
            net.aig.and_(2 * net.latch_nodes[0], 2 * net.latch_nodes[1])
        junk_count = net.aig.num_ands
        clone, _ = net.clone()
        assert clone.aig.num_ands < junk_count


class TestGenerators:
    def test_mod_counter_counts(self):
        n = G.mod_counter(4, 12)
        states = n.run_trace([{}] * 14)
        assert [counter_value(n, s) for s in states] == list(range(12)) + [0, 1, 2]

    def test_mod_counter_safe_invariant(self):
        n = G.mod_counter(4, 12)
        for state in n.run_trace([{}] * 25):
            assert n.property_holds(state)

    def test_mod_counter_bug_depth(self):
        n = G.mod_counter(4, 12, safe=False)
        states = n.run_trace([{}] * 11)
        assert all(n.property_holds(s) for s in states[:-1])
        assert not n.property_holds(states[-1])

    def test_mod_counter_bad_modulus_rejected(self):
        with pytest.raises(NetlistError):
            G.mod_counter(3, 100)

    def test_mod_counter_with_enable_holds(self):
        n = G.mod_counter(3, 5, with_enable=True)
        rng = random.Random(0)
        en = n.input_nodes[0]
        seq = [{en: rng.random() < 0.7} for _ in range(20)]
        for state in n.run_trace(seq):
            assert n.property_holds(state)

    def test_ring_counter_one_hot(self):
        n = G.ring_counter(6)
        for state in n.run_trace([{}] * 13):
            assert sum(state.values()) == 1
            assert n.property_holds(state)

    def test_ring_counter_bug_depth(self):
        n = G.ring_counter(6, safe=False, target_bit=3)
        states = n.run_trace([{}] * 3)
        assert not n.property_holds(states[3])

    def test_ring_counter_width_validation(self):
        with pytest.raises(NetlistError):
            G.ring_counter(1)

    def test_shift_register_invariant(self):
        n = G.shift_register(6)
        rng = random.Random(7)
        serial = n.input_nodes[0]
        seq = [{serial: rng.random() < 0.5} for _ in range(20)]
        for state in n.run_trace(seq):
            assert n.property_holds(state)

    def test_gray_counter_one_bit_change(self):
        n = G.gray_counter(4)
        for state in n.run_trace([{}] * 40):
            assert n.property_holds(state)

    def test_arbiter_mutual_exclusion(self):
        n = G.arbiter(4)
        rng = random.Random(3)
        seq = [
            {node: rng.random() < 0.6 for node in n.input_nodes}
            for _ in range(15)
        ]
        states = n.run_trace(seq)
        for state, step_inputs in zip(states, seq):
            assert n.property_holds(state, step_inputs)

    def test_arbiter_buggy_collision(self):
        n = G.arbiter(3, safe=False)
        all_request = {node: True for node in n.input_nodes}
        assert not n.property_holds(n.init_assignment(), all_request)

    def test_fifo_guarded_never_overflows(self):
        n = G.fifo_level(3, safe=True)
        push, pop = n.input_nodes
        rng = random.Random(1)
        seq = [
            {push: rng.random() < 0.8, pop: rng.random() < 0.2}
            for _ in range(40)
        ]
        for state in n.run_trace(seq):
            assert n.property_holds(state)

    def test_fifo_unguarded_overflows(self):
        n = G.fifo_level(3, safe=False)
        push, pop = n.input_nodes
        seq = [{push: True, pop: False}] * 7
        states = n.run_trace(seq)
        assert not n.property_holds(states[-1])

    def test_traffic_light_exclusion(self):
        n = G.traffic_light()
        for state in n.run_trace([{}] * 20):
            assert n.property_holds(state)

    def test_lfsr_never_zero(self):
        n = G.lfsr(6)
        for state in n.run_trace([{}] * 80):
            assert any(state.values())
            assert n.property_holds(state)

    def test_lfsr_tap_validation(self):
        with pytest.raises(NetlistError):
            G.lfsr(4, taps=(9,))

    def test_bug_at_depth_exact(self):
        for depth in (1, 3, 7, 12):
            n = G.bug_at_depth(depth)
            states = n.run_trace([{}] * (depth + 2))
            for k, state in enumerate(states):
                assert n.property_holds(state) == (k < depth), (depth, k)

    def test_bug_at_depth_validation(self):
        with pytest.raises(NetlistError):
            G.bug_at_depth(0)
        with pytest.raises(NetlistError):
            G.bug_at_depth(100, width=3)

    def test_families_registry(self):
        assert "mod_counter" in G.FAMILIES
        assert callable(G.FAMILIES["arbiter"])


class TestCombinationalFamilies:
    def test_all_families_build(self):
        for name, build in COMBINATIONAL_FAMILIES.items():
            if name == "random_logic":
                aig, inputs, root = build(5, 20, 0)
            elif name == "mux_tree":
                aig, inputs, root = build(2)
            elif name == "equality_slices":
                aig, inputs, root = build(3, 2)
            else:
                aig, inputs, root = build(4)
            assert aig.num_inputs == len(inputs) or name == "mux_tree"

    def test_mux_of_variants_cofactors(self):
        from repro.aig.ops import cofactor
        from repro.circuits.combinational import mux_of_variants
        from tests.conftest import edges_equivalent

        aig, inputs, root = mux_of_variants(4, similar=True)
        x = inputs[0] >> 1
        cof0 = cofactor(aig, root, x, False)
        cof1 = cofactor(aig, root, x, True)
        input_nodes = [e >> 1 for e in inputs]
        # Similar variants: the cofactors are functionally identical but
        # structurally distinct (the whole point of the T3 workload).
        assert cof0 != cof1
        assert edges_equivalent(aig, cof0, cof1, input_nodes)

    def test_mux_of_variants_dissimilar(self):
        from repro.aig.ops import cofactor
        from repro.circuits.combinational import mux_of_variants
        from tests.conftest import edges_equivalent

        aig, inputs, root = mux_of_variants(4, similar=False)
        x = inputs[0] >> 1
        cof0 = cofactor(aig, root, x, False)
        cof1 = cofactor(aig, root, x, True)
        input_nodes = [e >> 1 for e in inputs]
        assert not edges_equivalent(aig, cof0, cof1, input_nodes)

    def test_adder_carry_semantics(self):
        from repro.aig.simulate import eval_edge
        from repro.circuits.combinational import ripple_adder

        aig, inputs, carry = ripple_adder(4)
        half = len(inputs) // 2
        rng = random.Random(5)
        for _ in range(20):
            a_val = rng.randrange(16)
            b_val = rng.randrange(16)
            assignment = {}
            for k in range(4):
                assignment[inputs[k] >> 1] = bool((a_val >> k) & 1)
                assignment[inputs[half + k] >> 1] = bool((b_val >> k) & 1)
            assert eval_edge(aig, carry, assignment) == (a_val + b_val >= 16)

    def test_comparator_semantics(self):
        from repro.aig.simulate import eval_edge
        from repro.circuits.combinational import comparator

        aig, inputs, less = comparator(3)
        rng = random.Random(6)
        for _ in range(20):
            a_val = rng.randrange(8)
            b_val = rng.randrange(8)
            assignment = {}
            for k in range(3):
                assignment[inputs[k] >> 1] = bool((a_val >> k) & 1)
                assignment[inputs[3 + k] >> 1] = bool((b_val >> k) & 1)
            assert eval_edge(aig, less, assignment) == (a_val < b_val)

    def test_majority_semantics(self):
        from repro.aig.simulate import eval_edge
        from repro.circuits.combinational import majority

        aig, inputs, out = majority(5)
        rng = random.Random(8)
        for _ in range(20):
            values = [rng.random() < 0.5 for _ in inputs]
            assignment = {e >> 1: v for e, v in zip(inputs, values)}
            assert eval_edge(aig, out, assignment) == (sum(values) >= 3)

    def test_mux_tree_selects(self):
        from repro.aig.simulate import eval_edge
        from repro.circuits.combinational import mux_tree

        aig, inputs, out = mux_tree(2)
        selects, data = inputs[:2], inputs[2:]
        for sel_val in range(4):
            for active in range(4):
                assignment = {
                    selects[k] >> 1: bool((sel_val >> k) & 1) for k in range(2)
                }
                assignment.update(
                    {d >> 1: (i == active) for i, d in enumerate(data)}
                )
                assert eval_edge(aig, out, assignment) == (sel_val == active)


class TestTextFormat:
    def test_roundtrip_all_families(self):
        nets = [
            G.mod_counter(3, 6),
            G.ring_counter(4),
            G.arbiter(3),
            G.traffic_light(),
            G.fifo_level(2),
        ]
        for net in nets:
            text = serialize_netlist(net)
            parsed = parse_netlist(text)
            assert parsed.num_latches == net.num_latches
            assert parsed.num_inputs == net.num_inputs
            trace_a = net.run_trace([{}] * 8)
            trace_b = parsed.run_trace([{}] * 8)
            for sa, sb in zip(trace_a, trace_b):
                assert list(sa.values()) == list(sb.values())

    def test_parse_handwritten(self):
        text = """
        netlist demo
        input go            # free input
        latch st 0
        and g0 go !st
        next st g0
        property !st
        """
        net = parse_netlist(text)
        assert net.num_latches == 1
        assert net.num_inputs == 1

    def test_parse_unknown_signal_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist("netlist x\nand g0 a b\n")

    def test_parse_missing_header_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist("input a\n")

    def test_parse_unknown_keyword_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist("netlist x\nwire a\n")

    def test_parse_empty_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist("")

    def test_constants_usable(self):
        net = parse_netlist(
            "netlist c\nlatch x 0\nnext x 1\nproperty 1\n"
        )
        states = net.run_trace([{}] * 2)
        assert states[1][net.latch_nodes[0]] is True
