"""Tests for the stuck-at-fault ATPG subpackage.

Every engine is cross-checked: fault simulation against explicit
injection + evaluation, PODEM against SAT-based generation, redundancy
removal against BDD equivalence oracles, and the merge-as-ATPG bridge
against the sweeping engines' equivalence checker.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.graph import Aig, edge_not
from repro.aig.ops import and_all, ite, or_, xor
from repro.aig.simulate import eval_edge, random_input_words
from repro.atpg.equivalence import check_equal_via_atpg
from repro.atpg.faults import (
    OUTPUT,
    Fault,
    collapse_faults,
    collapse_ratio,
    full_fault_list,
)
from repro.atpg.fsim import FaultSimulator, fault_coverage
from repro.atpg.inject import fault_free_value, inject_fault
from repro.atpg.podem import PodemGenerator, PodemVerdict
from repro.atpg.redundancy import find_redundant_faults, remove_redundancies
from repro.atpg.satgen import SatTestGenerator, generate_test_sat
from repro.errors import AigError
from repro.sweep.satsweep import prove_edges_equivalent
from tests.conftest import build_random_aig, edges_equivalent


def single_and():
    aig = Aig()
    a, b = aig.add_inputs(2)
    return aig, a, b, aig.and_(a, b)


def redundant_circuit():
    """f = (a AND b) OR (a AND b AND c): the c-branch is redundant."""
    aig = Aig()
    a, b, c = aig.add_inputs(3)
    ab = aig.and_(a, b)
    abc = aig.and_(ab, c)
    return aig, (a, b, c), or_(aig, ab, abc)


class TestFaultModel:
    def test_full_list_size(self):
        aig, a, b, f = single_and()
        faults = full_fault_list(aig, [f])
        # 3 nodes * 2 output faults + 1 AND * 4 pin faults.
        assert len(faults) == 10

    def test_collapse_single_and(self):
        aig, a, b, f = single_and()
        collapsed = collapse_faults(aig, full_fault_list(aig, [f]))
        assert len(collapsed) == 7
        # Representative output s-a-0 kept, pin s-a-0 gone.
        assert Fault(f >> 1, OUTPUT, False) in collapsed
        assert Fault(f >> 1, 0, False) not in collapsed
        # Output s-a-1 dominated by the pin s-a-1 faults.
        assert Fault(f >> 1, OUTPUT, True) not in collapsed
        assert Fault(f >> 1, 0, True) in collapsed

    def test_collapse_ratio_reported(self):
        aig, _, root = build_random_aig(num_inputs=4, num_gates=20, seed=1)
        full, collapsed = collapse_ratio(aig, [root])
        assert 0 < collapsed < full

    def test_invalid_pin_rejected(self):
        aig, a, b, f = single_and()
        with pytest.raises(AigError):
            collapse_faults(aig, [Fault(f >> 1, 2, True)])

    def test_pin_fault_on_input_rejected(self):
        aig, a, b, f = single_and()
        with pytest.raises(AigError):
            collapse_faults(aig, [Fault(a >> 1, 0, True)])

    def test_describe_uses_input_names(self):
        aig = Aig()
        x = aig.add_input("clk")
        fault = Fault(x >> 1, OUTPUT, True)
        assert fault.describe(aig) == "clk/out s-a-1"


class TestInjection:
    def test_output_fault_forces_constant(self):
        aig, a, b, f = single_and()
        (faulty,) = inject_fault(aig, [f], Fault(f >> 1, OUTPUT, True))
        assert faulty == 1  # constant TRUE

    def test_pin_fault_simplifies_gate(self):
        aig, a, b, f = single_and()
        (faulty,) = inject_fault(aig, [f], Fault(f >> 1, 0, True))
        assert faulty == b  # a-pin tied to 1 leaves just b

    def test_input_output_fault(self):
        aig, a, b, f = single_and()
        (faulty,) = inject_fault(aig, [f], Fault(a >> 1, OUTPUT, False))
        assert faulty == 0  # a tied to 0 kills the AND

    def test_injection_preserves_unrelated_roots(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)
        g = aig.and_(b, c)
        faulty = inject_fault(aig, [f, g], Fault(f >> 1, OUTPUT, True))
        assert faulty[1] == g  # g's cone untouched

    def test_fault_free_value_of_pin(self):
        aig, a, b, f = single_and()
        assert fault_free_value(aig, Fault(f >> 1, 0, True)) == a
        assert fault_free_value(aig, Fault(f >> 1, OUTPUT, True)) == f

    @pytest.mark.parametrize("seed", range(10))
    def test_injected_function_differs_or_equals_semantically(self, seed):
        rng = random.Random(seed)
        aig, inputs, root = build_random_aig(
            num_inputs=4, num_gates=15, seed=seed
        )
        faults = collapse_faults(aig, full_fault_list(aig, [root]))
        fault = rng.choice(faults)
        (faulty,) = inject_fault(aig, [root], fault)
        # The faulty circuit must equal the original with the site pinned.
        input_nodes = [e >> 1 for e in inputs]
        for bits in range(16):
            assignment = {
                n: bool((bits >> k) & 1)
                for k, n in enumerate(input_nodes)
            }
            got = eval_edge(aig, faulty, assignment)
            want = _faulty_eval(aig, root, fault, assignment)
            assert got == want


def _faulty_eval(aig, root, fault, assignment):
    """Reference faulty evaluation: recompute with the site overridden."""
    values = {0: False}
    for node in aig.cone([root]):
        if aig.is_input(node):
            value = assignment.get(node, False)
        else:
            f0, f1 = aig.fanins(node)
            v0 = values[f0 >> 1] ^ bool(f0 & 1)
            v1 = values[f1 >> 1] ^ bool(f1 & 1)
            if fault.node == node and fault.pin == 0:
                v0 = fault.stuck_at
            if fault.node == node and fault.pin == 1:
                v1 = fault.stuck_at
            value = v0 and v1
        if fault.node == node and fault.pin == OUTPUT:
            value = fault.stuck_at
        values[node] = value
    return values[root >> 1] ^ bool(root & 1)


class TestFaultSimulation:
    def test_all_and_faults_detectable(self):
        aig, a, b, f = single_and()
        coverage, sim = fault_coverage(aig, [f], words=4, rounds=2)
        assert coverage == 1.0
        assert not sim.remaining

    def test_detected_patterns_actually_detect(self):
        aig, inputs, root = build_random_aig(
            num_inputs=5, num_gates=25, seed=3
        )
        sim = FaultSimulator(aig, [root])
        patterns = random_input_words(aig, words=4, seed=9)
        detected = sim.simulate_patterns(patterns, 4)
        for fault in detected:
            pattern = sim.detected[fault]
            good = eval_edge(aig, root, pattern)
            bad = _faulty_eval(aig, root, fault, pattern)
            assert good != bad

    def test_redundant_fault_never_detected(self):
        aig, (a, b, c), root = redundant_circuit()
        sim = FaultSimulator(aig, [root], collapse=False)
        sim.run_random(words=8, rounds=4)
        # c's branch is unobservable: faults there must survive.
        surviving_nodes = {fault.node for fault in sim.remaining}
        assert c >> 1 in surviving_nodes

    def test_coverage_monotone_in_rounds(self):
        aig, _, root = build_random_aig(num_inputs=6, num_gates=40, seed=7)
        one, _ = fault_coverage(aig, [root], words=1, rounds=1)
        many, _ = fault_coverage(aig, [root], words=4, rounds=4)
        assert many >= one

    def test_empty_fault_list_full_coverage(self):
        aig, a, b, f = single_and()
        sim = FaultSimulator(aig, [f], faults=[])
        assert sim.coverage == 1.0


class TestPodem:
    def test_finds_test_for_and_output_fault(self):
        aig, a, b, f = single_and()
        generator = PodemGenerator(aig, [f])
        result = generator.generate(Fault(f >> 1, OUTPUT, False))
        assert result.found
        assert result.pattern == {a >> 1: True, b >> 1: True}

    def test_finds_test_for_pin_fault(self):
        aig, a, b, f = single_and()
        generator = PodemGenerator(aig, [f])
        result = generator.generate(Fault(f >> 1, 0, True))
        assert result.found
        # Activation: a = 0; propagation: b = 1.
        assert result.pattern == {a >> 1: False, b >> 1: True}

    def test_proves_redundancy(self):
        aig, (a, b, c), root = redundant_circuit()
        generator = PodemGenerator(aig, [root])
        # The AND gate combining (a AND b) with c feeds an OR whose other
        # branch is (a AND b) itself, so its output s-a-0 is untestable.
        abc_node = None
        for node in aig.cone([root]):
            if not aig.is_and(node):
                continue
            f0, f1 = aig.fanins(node)
            if (c >> 1) in (f0 >> 1, f1 >> 1):
                abc_node = node
        assert abc_node is not None
        result = generator.generate(Fault(abc_node, OUTPUT, False))
        assert result.verdict is PodemVerdict.REDUNDANT

    def test_fault_outside_cone_is_redundant(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, a)  # only a in the cone (f == a)
        dangling = aig.and_(b, b)
        generator = PodemGenerator(aig, [f])
        result = generator.generate(Fault(b >> 1, OUTPUT, True))
        assert result.verdict is PodemVerdict.REDUNDANT

    @pytest.mark.parametrize("seed", range(10))
    def test_podem_patterns_verified_by_simulation(self, seed):
        aig, _, root = build_random_aig(
            num_inputs=5, num_gates=20, seed=100 + seed
        )
        faults = collapse_faults(aig, full_fault_list(aig, [root]))
        generator = PodemGenerator(aig, [root])
        for fault in faults[:12]:
            result = generator.generate(fault)
            if result.found:
                good = eval_edge(aig, root, result.pattern)
                bad = _faulty_eval(aig, root, fault, result.pattern)
                assert good != bad


class TestSatAtpg:
    def test_sat_matches_podem_verdicts(self):
        aig, (a, b, c), root = redundant_circuit()
        faults = collapse_faults(aig, full_fault_list(aig, [root]))
        podem = PodemGenerator(aig, [root])
        sat = SatTestGenerator(aig, [root])
        for fault in faults:
            podem_result = podem.generate(fault)
            testable, pattern = sat.generate(fault)
            assert (podem_result.verdict is PodemVerdict.TEST_FOUND) == bool(
                testable
            )
            if testable:
                good = eval_edge(aig, root, pattern)
                bad = _faulty_eval(aig, root, fault, pattern)
                assert good != bad

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_sat_and_podem_agree(self, seed):
        rng = random.Random(seed)
        aig, _, root = build_random_aig(
            num_inputs=4, num_gates=12, seed=seed
        )
        faults = collapse_faults(aig, full_fault_list(aig, [root]))
        if not faults:  # root collapsed to a constant
            return
        fault = rng.choice(faults)
        podem = PodemGenerator(aig, [root]).generate(fault)
        testable, _ = generate_test_sat(aig, [root], fault)
        assert (podem.verdict is PodemVerdict.TEST_FOUND) == bool(testable)

    def test_structurally_irrelevant_fault(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = a  # root does not depend on b at all
        testable, _ = generate_test_sat(aig, [f], Fault(b >> 1, OUTPUT, True))
        assert testable is False


class TestRedundancyRemoval:
    def test_redundant_branch_removed(self):
        aig, (a, b, c), root = redundant_circuit()
        (new_root,), stats = remove_redundancies(aig, [root])
        assert stats.get("ties_applied") >= 1
        assert stats.get("size_after") <= stats.get("size_before")
        assert edges_equivalent(
            aig, root, new_root, [a >> 1, b >> 1, c >> 1]
        )
        # c must have left the support entirely.
        from repro.aig.ops import support

        assert (c >> 1) not in support(aig, new_root)

    def test_irredundant_circuit_untouched(self):
        aig, a, b, f = single_and()
        (new_root,), stats = remove_redundancies(aig, [f])
        assert new_root == f
        assert stats.get("ties_applied", 0) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_removal_preserves_function(self, seed):
        aig, inputs, root = build_random_aig(
            num_inputs=4, num_gates=18, seed=200 + seed
        )
        (new_root,), _ = remove_redundancies(aig, [root])
        assert edges_equivalent(
            aig, root, new_root, [e >> 1 for e in inputs]
        )

    def test_find_redundant_subset_of_collapsed(self):
        aig, (a, b, c), root = redundant_circuit()
        redundant = find_redundant_faults(aig, [root])
        collapsed = set(
            collapse_faults(aig, full_fault_list(aig, [root]))
        )
        assert redundant
        assert set(redundant) <= collapsed


class TestEquivalenceBridge:
    def test_equal_edges_proved_by_fault_redundancy(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        lhs = aig.and_(a, aig.and_(b, c))
        rhs = aig.and_(aig.and_(a, b), c)
        for engine in ("sat", "podem"):
            verdict, cex = check_equal_via_atpg(aig, lhs, rhs, engine=engine)
            assert verdict is True
            assert cex is None

    def test_unequal_edges_yield_distinguishing_test(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        g = or_(aig, a, b)
        for engine in ("sat", "podem"):
            verdict, cex = check_equal_via_atpg(aig, f, g, engine=engine)
            assert verdict is False
            assert eval_edge(aig, f, cex) != eval_edge(aig, g, cex)

    def test_complement_pair(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        verdict, cex = check_equal_via_atpg(aig, f, edge_not(f))
        assert verdict is False
        assert cex is not None

    @pytest.mark.parametrize("seed", range(10))
    def test_bridge_agrees_with_sweeping_equivalence(self, seed):
        rng = random.Random(300 + seed)
        aig, _, root = build_random_aig(
            num_inputs=4, num_gates=15, seed=seed
        )
        cone = [2 * n for n in aig.cone([root]) if aig.is_and(n)]
        other = rng.choice(cone) ^ rng.randint(0, 1) if cone else root
        atpg_verdict, _ = check_equal_via_atpg(aig, root, other)
        sweep_verdict, _ = prove_edges_equivalent(aig, root, other)
        assert atpg_verdict == sweep_verdict
