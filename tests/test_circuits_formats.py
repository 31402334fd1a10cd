"""Tests for the .bench and BLIF readers/writers and the circuit library.

Round-trips are checked semantically: parse(serialize(n)) must agree with
``n`` on exhaustive or random simulation, not merely re-parse.
"""

import pytest

from repro.aig.simulate import truth_table
from repro.circuits.bench_format import parse_bench, serialize_bench
from repro.circuits.blif import parse_blif, serialize_blif
from repro.circuits.generators import arbiter, mod_counter
from repro.circuits.library import (
    c17,
    catalogue,
    handshake,
    s27,
    s27_with_property,
)
from repro.circuits.netlist import Netlist
from repro.circuits.parse import parse_netlist
from repro.errors import NetlistError
from repro.mc.reach_aig import BackwardReachability
from repro.mc.reach_bdd import bdd_backward_reachability
from repro.mc.result import Status


def output_truth_tables(netlist: Netlist) -> dict[str, int]:
    order = netlist.input_nodes + netlist.latch_nodes
    return {
        name: truth_table(netlist.aig, edge, order)
        for name, edge in netlist.outputs.items()
    }


def next_state_tables(netlist: Netlist) -> dict[str, int]:
    order = netlist.input_nodes + netlist.latch_nodes
    return {
        latch.name: truth_table(netlist.aig, latch.next_edge, order)
        for latch in netlist.latches
    }


def sequential_trace_signature(netlist: Netlist, steps: int = 16) -> list:
    """Deterministic input stimulus -> output/state value sequence."""
    import random

    rng = random.Random(42)
    stimulus = [
        {node: bool(rng.randint(0, 1)) for node in netlist.input_nodes}
        for _ in range(steps)
    ]
    states = netlist.run_trace(stimulus)
    return [sorted(state.items()) for state in states]


class TestNetParser:
    @pytest.mark.parametrize("init", ["z", "7"])
    def test_bad_latch_init_rejected_with_line(self, init):
        text = f"netlist x\ninput a\nlatch s {init}\nnext s a\n"
        with pytest.raises(NetlistError, match="line 3"):
            parse_netlist(text)

    def test_latch_init_values(self):
        netlist = parse_netlist(
            "netlist x\nlatch p 0\nlatch q 1\nlatch r\n"
            "next p p\nnext q q\nnext r r\n"
        )
        assert [latch.init for latch in netlist.latches] == [
            False, True, False,
        ]


class TestBenchParser:
    def test_c17_structure(self):
        netlist = c17()
        assert netlist.num_inputs == 5
        assert netlist.num_latches == 0
        assert set(netlist.outputs) == {"G22", "G23"}

    def test_c17_known_vectors(self):
        netlist = c17()
        nodes = {netlist.aig.input_name(n): n for n in netlist.aig.inputs}
        from repro.aig.simulate import eval_edge

        # All inputs 0: G10=G11=1, G16=NAND(0,1)=1, G22=NAND(1,1)=0.
        assignment = {n: False for n in nodes.values()}
        assert eval_edge(netlist.aig, netlist.outputs["G22"], assignment) is False
        # G1=G3=1 others 0: G10=0 -> G22=1.
        assignment[nodes["G1"]] = True
        assignment[nodes["G3"]] = True
        assert eval_edge(netlist.aig, netlist.outputs["G22"], assignment) is True

    def test_s27_structure(self):
        netlist = s27()
        assert netlist.num_inputs == 4
        assert netlist.num_latches == 3
        assert {latch.name for latch in netlist.latches} == {"G5", "G6", "G7"}
        assert all(latch.init is False for latch in netlist.latches)

    def test_forward_references_resolve(self):
        text = """
        INPUT(a)
        OUTPUT(f)
        f = AND(g, a)
        g = NOT(a)
        """
        netlist = parse_bench(text)
        assert netlist.outputs["f"] == 0  # a AND NOT a == FALSE

    def test_multi_operand_gates(self):
        text = """
        INPUT(a)
        INPUT(b)
        INPUT(c)
        OUTPUT(f)
        f = OR(a, b, c)
        """
        netlist = parse_bench(text)
        table = output_truth_tables(netlist)["f"]
        assert table == 0b11111110

    def test_xor_xnor(self):
        text = """
        INPUT(a)
        INPUT(b)
        OUTPUT(x)
        OUTPUT(n)
        x = XOR(a, b)
        n = XNOR(a, b)
        """
        tables = output_truth_tables(parse_bench(text))
        assert tables["x"] == 0b0110
        assert tables["n"] == 0b1001

    def test_combinational_cycle_rejected(self):
        text = """
        INPUT(a)
        OUTPUT(f)
        f = AND(g, a)
        g = NOT(f)
        """
        with pytest.raises(NetlistError):
            parse_bench(text)

    def test_undefined_signal_rejected(self):
        with pytest.raises(NetlistError):
            parse_bench("INPUT(a)\nOUTPUT(f)\nf = AND(a, ghost)\n")

    def test_duplicate_definition_rejected(self):
        text = "INPUT(a)\nf = NOT(a)\nf = BUFF(a)\n"
        with pytest.raises(NetlistError):
            parse_bench(text)

    def test_unsupported_gate_rejected(self):
        with pytest.raises(NetlistError):
            parse_bench("INPUT(a)\nf = MAJ(a, a, a)\n")

    def test_bench_roundtrip_combinational(self):
        original = c17()
        recovered = parse_bench(serialize_bench(original), name="c17")
        assert output_truth_tables(original) == output_truth_tables(recovered)

    def test_bench_roundtrip_sequential(self):
        original = s27()
        recovered = parse_bench(serialize_bench(original), name="s27")
        assert sequential_trace_signature(
            original
        ) == sequential_trace_signature(recovered)

    def test_bench_roundtrip_generated(self):
        original = mod_counter(4, 11)
        original.set_output("wrap", original.property_edge)
        recovered = parse_bench(serialize_bench(original))
        assert next_state_tables(original) == next_state_tables(recovered)


class TestBlifParser:
    def test_simple_cover(self):
        text = """
        .model tiny
        .inputs a b
        .outputs f
        .names a b f
        11 1
        .end
        """
        netlist = parse_blif(text)
        assert output_truth_tables(netlist)["f"] == 0b1000

    def test_dont_care_column(self):
        text = """
        .model dc
        .inputs a b
        .outputs f
        .names a b f
        1- 1
        -1 1
        .end
        """
        netlist = parse_blif(text)
        assert output_truth_tables(netlist)["f"] == 0b1110  # OR

    def test_offset_cover(self):
        text = """
        .model offset
        .inputs a b
        .outputs f
        .names a b f
        11 0
        .end
        """
        netlist = parse_blif(text)
        assert output_truth_tables(netlist)["f"] == 0b0111  # NAND

    def test_constant_covers(self):
        text = """
        .model consts
        .inputs a
        .outputs one zero
        .names one
        1
        .names zero
        .end
        """
        netlist = parse_blif(text)
        assert netlist.outputs["one"] == 1
        assert netlist.outputs["zero"] == 0

    def test_latch_with_init(self):
        text = """
        .model seq
        .inputs d
        .outputs q
        .latch d q 1
        .end
        """
        netlist = parse_blif(text)
        assert netlist.latches[0].init is True

    def test_mixed_cover_rejected(self):
        text = """
        .model bad
        .inputs a b
        .outputs f
        .names a b f
        11 1
        00 0
        .end
        """
        with pytest.raises(NetlistError):
            parse_blif(text)

    def test_cube_outside_names_rejected(self):
        with pytest.raises(NetlistError):
            parse_blif(".model x\n.inputs a\n11 1\n.end\n")

    def test_unsupported_construct_rejected(self):
        with pytest.raises(NetlistError):
            parse_blif(".model x\n.subckt foo a=b\n.end\n")

    def test_blif_roundtrip_combinational(self):
        original = c17()
        recovered = parse_blif(serialize_blif(original))
        assert output_truth_tables(original) == output_truth_tables(recovered)

    def test_blif_roundtrip_sequential(self):
        original = s27()
        recovered = parse_blif(serialize_blif(original))
        assert sequential_trace_signature(
            original
        ) == sequential_trace_signature(recovered)
        assert next_state_tables(original) == next_state_tables(recovered)

    def test_cross_format_roundtrip(self):
        """bench -> netlist -> blif -> netlist keeps the functions."""
        original = s27()
        via_blif = parse_blif(serialize_blif(original))
        assert next_state_tables(original) == next_state_tables(via_blif)


class TestLibrary:
    def test_catalogue_names(self):
        assert set(catalogue()) == {
            "c17", "s27", "s27_with_property", "handshake",
            "handshake_buggy", "mul_miter2", "mul_miter2_buggy",
        }

    def test_s27_property_is_safe_on_both_engines(self):
        for engine in (
            lambda n: BackwardReachability(n).run(),
            bdd_backward_reachability,
        ):
            result = engine(s27_with_property())
            assert result.status is Status.PROVED

    def test_handshake_safe_and_buggy(self):
        assert bdd_backward_reachability(
            handshake(True)
        ).status is Status.PROVED
        failed = bdd_backward_reachability(handshake(False))
        assert failed.status is Status.FAILED
        assert failed.trace.validate(handshake(False))

    def test_aig_engine_agrees_on_handshake(self):
        result = BackwardReachability(handshake(True)).run()
        assert result.status is Status.PROVED
        result = BackwardReachability(handshake(False)).run()
        assert result.status is Status.FAILED
