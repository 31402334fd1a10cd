"""Tests for circuit-based quantifier elimination — the paper's core.

Correctness oracle throughout: existential quantification computed on
canonical BDDs must agree with every preset of the circuit-based engine.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.analysis import cone_size
from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import and_all, or_, support, xor
from repro.bdd.from_aig import aig_to_bdd
from repro.bdd.manager import BddManager
from repro.circuits.combinational import (
    adder_sum_parity,
    comparator,
    equality_with_constant_slices,
    mux_tree,
    parity,
    random_logic,
    ripple_adder,
)
from repro.core import quantify as quantify_module
from repro.core.merge import merge_cofactors
from repro.core.partial import PartialQuantifier
from repro.core.quantify import (
    QuantifyOptions,
    quantify_exists,
    quantify_forall,
)
from repro.errors import AigError
from tests.conftest import build_random_aig

PRESETS = ("shannon", "hash", "bdd", "sat", "full")

# The T1 ablation families: builder and number of quantified inputs.
T1_FAMILIES = {
    "comparator8": (lambda: comparator(8), 5),
    "adder_parity6": (lambda: adder_sum_parity(6), 4),
    "random_12x120": (lambda: random_logic(12, 120, seed=7), 5),
    "slices_4x3": (lambda: equality_with_constant_slices(4, 3), 4),
}


def quantify_t1_family(family, preset):
    build, num_vars = T1_FAMILIES[family]
    aig, inputs, root = build()
    variables = [e >> 1 for e in inputs[:num_vars]]
    outcome = quantify_exists(
        aig, root, variables, QuantifyOptions.preset(preset)
    )
    return aig, outcome


def bdd_reference_exists(aig, root, input_edges, quantified_nodes):
    manager = BddManager()
    var_map = {}
    for index, edge in enumerate(input_edges):
        manager.new_var()
        var_map[edge >> 1] = index
    bdd = aig_to_bdd(aig, root, manager, var_map)
    return manager, var_map, manager.exists(
        bdd, [var_map[n] for n in quantified_nodes]
    )


def assert_quantification_correct(aig, root, input_edges, quantified, preset):
    manager, var_map, reference = bdd_reference_exists(
        aig, root, input_edges, quantified
    )
    outcome = quantify_exists(
        aig, root, quantified, QuantifyOptions.preset(preset)
    )
    got = aig_to_bdd(aig, outcome.edge, manager, var_map)
    assert got == reference, preset
    return outcome


class TestCorrectnessAcrossPresets:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_random_logic(self, preset):
        aig, inputs, root = random_logic(6, 25, seed=41)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:3]], preset
        )

    @pytest.mark.parametrize("preset", PRESETS)
    def test_comparator(self, preset):
        aig, inputs, root = comparator(4)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:3]], preset
        )

    @pytest.mark.parametrize("preset", PRESETS)
    def test_parity(self, preset):
        aig, inputs, root = parity(6)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:2]], preset
        )

    def test_adder(self):
        aig, inputs, root = ripple_adder(4)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:4]], "full"
        )

    def test_mux_tree(self):
        aig, inputs, root = mux_tree(2)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:2]], "full"
        )

    def test_slices(self):
        aig, inputs, root = equality_with_constant_slices(3, 2)
        assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:2]], "full"
        )


class TestAlgebraicIdentities:
    def test_quantified_vars_leave_support(self):
        aig, inputs, root = build_random_aig(5, 30, seed=42)
        target = inputs[1] >> 1
        outcome = quantify_exists(aig, root, [target])
        assert target not in support(aig, outcome.edge)

    def test_exists_of_independent_var_is_noop(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)
        outcome = quantify_exists(aig, f, [c >> 1])
        assert outcome.edge == f
        assert outcome.quantified == []

    def test_exists_or_distribution(self):
        # exists x (f OR g) == (exists x f) OR (exists x g)
        aig, inputs, f = build_random_aig(4, 15, seed=43)
        _, _, g_root = build_random_aig(4, 15, seed=44)
        # Rebuild g inside the same manager over the same inputs.
        import random as _random

        rng = _random.Random(44)
        nodes = list(inputs)
        for _ in range(15):
            x = rng.choice(nodes) ^ rng.randint(0, 1)
            y = rng.choice(nodes) ^ rng.randint(0, 1)
            nodes.append(aig.and_(x, y))
        g = nodes[-1] ^ rng.randint(0, 1)
        var = inputs[0] >> 1
        combined = quantify_exists(aig, or_(aig, f, g), [var]).edge
        separate = or_(
            aig,
            quantify_exists(aig, f, [var]).edge,
            quantify_exists(aig, g, [var]).edge,
        )
        from tests.conftest import edges_equivalent

        assert edges_equivalent(
            aig, combined, separate, [e >> 1 for e in inputs]
        )

    def test_forall_duality(self):
        aig, inputs, root = build_random_aig(4, 20, seed=45)
        var = inputs[2] >> 1
        forall = quantify_forall(aig, root, [var]).edge
        exists_not = edge_not(
            quantify_exists(aig, edge_not(root), [var]).edge
        )
        from tests.conftest import edges_equivalent

        assert edges_equivalent(
            aig, forall, exists_not, [e >> 1 for e in inputs]
        )

    def test_quantify_constant(self):
        aig = Aig()
        a = aig.add_input()
        assert quantify_exists(aig, TRUE, [a >> 1]).edge == TRUE
        assert quantify_exists(aig, FALSE, [a >> 1]).edge == FALSE

    def test_quantify_all_vars_gives_constant(self):
        aig, inputs, root = build_random_aig(4, 20, seed=46)
        outcome = quantify_exists(aig, root, [e >> 1 for e in inputs])
        assert outcome.edge in (TRUE, FALSE)
        # exists-all is TRUE iff the function is satisfiable.
        from repro.aig.simulate import truth_table

        satisfiable = truth_table(aig, root, [e >> 1 for e in inputs]) != 0
        assert (outcome.edge == TRUE) == satisfiable

    def test_unknown_preset_rejected(self):
        with pytest.raises(AigError):
            QuantifyOptions.preset("magic")

    def test_stats_reported(self):
        aig, inputs, root = build_random_aig(5, 25, seed=47)
        outcome = quantify_exists(aig, root, [inputs[0] >> 1])
        assert "final_size" in outcome.stats
        assert outcome.stats.get("vars_quantified") >= 0


class TestMergePhase:
    def test_merge_orders_equivalent_results(self):
        aig, inputs, root = equality_with_constant_slices(3, 2)
        var = inputs[0] >> 1
        from repro.aig.ops import cofactor

        cof0 = cofactor(aig, root, var, False)
        cof1 = cofactor(aig, root, var, True)
        for order in ("backward", "forward"):
            c0, c1, stats = merge_cofactors(aig, cof0, cof1, order=order)
            from tests.conftest import edges_equivalent

            nodes = [e >> 1 for e in inputs]
            assert edges_equivalent(aig, c0, cof0, nodes)
            assert edges_equivalent(aig, c1, cof1, nodes)

    def test_invalid_order_rejected(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        with pytest.raises(AigError):
            merge_cofactors(aig, a, b, order="sideways")

    def test_backward_cheaper_on_similar_cofactors(self):
        # The T3 shape claim in miniature: similar cofactors need fewer
        # SAT checks backward than forward.
        aig, inputs, root = equality_with_constant_slices(4, 3)
        var = inputs[0] >> 1
        from repro.aig.ops import cofactor

        cof0 = cofactor(aig, root, var, False)
        cof1 = cofactor(aig, root, var, True)
        _, _, backward_stats = merge_cofactors(
            aig, cof0, cof1, use_bdd_sweep=False, order="backward"
        )
        _, _, forward_stats = merge_cofactors(
            aig, cof0, cof1, use_bdd_sweep=False, order="forward"
        )
        assert backward_stats.get("merge_sat_checks") <= forward_stats.get(
            "merge_sat_checks"
        )


class TestPresets:
    def test_four_settings(self):
        assert [f.name for f in dataclasses.fields(QuantifyOptions)] == [
            "bdd_sweep", "sat_merge", "optimize", "schedule"
        ]

    @pytest.mark.parametrize("family", list(T1_FAMILIES))
    def test_shannon_and_hash_identical(self, family):
        # The manager always hashes, so the two rungs are one program.
        aig_s, shannon = quantify_t1_family(family, "shannon")
        aig_h, hashed = quantify_t1_family(family, "hash")
        assert shannon.edge == hashed.edge
        assert aig_s.num_nodes == aig_h.num_nodes

    @pytest.mark.parametrize(
        "family", ["comparator8", "adder_parity6", "random_12x120"]
    )
    def test_merge_sat_checks_add_up(self, family):
        # Under "sat" every SAT check is a merge check, and the per-merge
        # counts must add up over the quantification, not keep the max.
        _, outcome = quantify_t1_family(family, "sat")
        assert outcome.stats.get("sat_checks") > 1
        assert outcome.stats.get("merge_sat_checks") == outcome.stats.get(
            "sat_checks"
        )


class TestSizeContainment:
    def test_full_no_worse_than_shannon_on_families(self):
        for build, args in (
            (comparator, (5,)),
            (ripple_adder, (5,)),
            (equality_with_constant_slices, (3, 3)),
        ):
            aig_s, inputs_s, root_s = build(*args)
            shannon = quantify_exists(
                aig_s, root_s,
                [e >> 1 for e in inputs_s[:4]],
                QuantifyOptions.preset("shannon"),
            )
            aig_f, inputs_f, root_f = build(*args)
            full = quantify_exists(
                aig_f, root_f,
                [e >> 1 for e in inputs_f[:4]],
                QuantifyOptions.preset("full"),
            )
            assert aig_f.cone_and_count(full.edge) <= aig_s.cone_and_count(
                shannon.edge
            )


class TestOptimizationOncePerCall:
    """The don't-care phase runs on the pair that becomes the result."""

    @pytest.fixture
    def optimize_calls(self, monkeypatch):
        calls = []
        optimize = quantify_module.optimize_disjunction

        def counting(aig, f0, f1, **kwargs):
            result = optimize(aig, f0, f1, **kwargs)
            calls.append((f0, f1, result[0]))
            return result

        monkeypatch.setattr(quantify_module, "optimize_disjunction", counting)
        return calls

    @pytest.mark.parametrize("family", list(T1_FAMILIES))
    def test_at_most_once_per_quantification(self, family, optimize_calls):
        _, outcome = quantify_t1_family(family, "full")
        assert len(outcome.quantified) > 1
        assert len(optimize_calls) <= 1
        if optimize_calls:
            assert optimize_calls[0][2] == outcome.edge

    def test_multi_variable_call_optimizes_once(self, optimize_calls):
        _, outcome = quantify_t1_family("comparator8", "full")
        assert len(outcome.quantified) == 5
        assert len(optimize_calls) == 1

    def test_single_variable_call_optimizes(self, optimize_calls):
        aig, inputs, root = comparator(8)
        outcome = quantify_exists(aig, root, [inputs[0] >> 1])
        assert outcome.quantified == [inputs[0] >> 1]
        assert len(optimize_calls) == 1
        assert optimize_calls[0][2] == outcome.edge

    def test_partial_quantifier_optimizes_every_differing_pair(
        self, optimize_calls, monkeypatch
    ):
        # PartialQuantifier runs quantify_exists once per variable, so
        # each variable whose merged cofactors differ is optimized.
        differing = []
        merge = quantify_module.merge_cofactors

        def recording(*args, **kwargs):
            result = merge(*args, **kwargs)
            differing.append(result[0] != result[1])
            return result

        monkeypatch.setattr(quantify_module, "merge_cofactors", recording)
        aig, inputs, root = comparator(8)
        variables = [e >> 1 for e in inputs[:5]]
        outcome = PartialQuantifier(aig, growth_factor=100.0).quantify(
            root, variables
        )
        assert outcome.quantified == variables
        assert sum(differing) > 1
        assert len(optimize_calls) == sum(differing)

    def test_off_when_preset_disables_it(self, optimize_calls):
        quantify_t1_family("comparator8", "sat")
        assert optimize_calls == []

    def test_last_pair_optimized_when_variables_leave_support(
        self, optimize_calls
    ):
        # One of the three variables drops out of the support after the
        # second: the loop ends early, and the pair it stopped on is still
        # optimized, which shrinks its disjunction.
        aig, inputs, root = random_logic(8, 60, seed=31)
        variables = [e >> 1 for e in inputs[:3]]
        outcome = assert_quantification_correct(
            aig, root, inputs, variables, "full"
        )
        assert len(outcome.quantified) < len(variables)
        assert len(optimize_calls) == 1
        f0, f1, optimized = optimize_calls[0]
        assert optimized == outcome.edge
        assert outcome.size < cone_size(aig, or_(aig, f0, f1))

    def test_independent_variable_cofactors_the_pair(self, optimize_calls):
        # exists a . c & (a | b) = c & (c & b | c) structurally, in which
        # b is not semantically present: the pair is cofactored at b = 0
        # and optimized, and b leaves the support.
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        root = aig.and_(c, or_(aig, a, b))
        outcome = quantify_exists(
            aig, root, [a >> 1, b >> 1], QuantifyOptions(schedule="static")
        )
        assert outcome.stats.get("independent_vars") == 1
        assert outcome.edge == c
        assert len(optimize_calls) == 1
        assert optimize_calls[0][2] == outcome.edge


class TestScheduler:
    @pytest.fixture
    def consulted(self, monkeypatch):
        """Candidate lists the scheduler is asked to choose from."""
        calls = []
        get_scheduler = quantify_module.get_scheduler

        def spying(name):
            scheduler = get_scheduler(name)

            def spy(aig, edge, candidates):
                calls.append(list(candidates))
                return scheduler(aig, edge, candidates)

            return spy

        monkeypatch.setattr(quantify_module, "get_scheduler", spying)
        return calls

    @pytest.mark.parametrize("family", list(T1_FAMILIES))
    def test_never_consulted_with_one_candidate(self, family, consulted):
        _, outcome = quantify_t1_family(family, "full")
        assert consulted
        assert all(len(candidates) > 1 for candidates in consulted)
        assert len(consulted) <= len(outcome.quantified)

    def test_single_variable_skips_the_scheduler(self, consulted):
        aig, inputs, root = comparator(8)
        outcome = quantify_exists(aig, root, [inputs[0] >> 1])
        assert outcome.quantified == [inputs[0] >> 1]
        assert consulted == []

    def test_static_keeps_caller_order(self):
        aig, inputs, root = comparator(8)
        variables = [e >> 1 for e in reversed(inputs[:5])]
        outcome = quantify_exists(
            aig, root, variables, QuantifyOptions(schedule="static")
        )
        assert outcome.quantified == variables


class TestFullPresetSizes:
    """``full`` final sizes, pinned as upper bounds: no larger than this."""

    @pytest.mark.parametrize(
        "family,bound",
        [
            ("comparator8", 23),
            ("adder_parity6", 0),
            ("random_12x120", 2),
            ("slices_4x3", 0),
        ],
    )
    def test_t1_family(self, family, bound):
        _, outcome = quantify_t1_family(family, "full")
        assert outcome.size <= bound

    def test_comparator10_seven_variables(self):
        aig, inputs, root = comparator(10)
        outcome = assert_quantification_correct(
            aig, root, inputs, [e >> 1 for e in inputs[:7]], "full"
        )
        assert outcome.size <= 27


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_quantified=st.integers(min_value=1, max_value=3),
    preset=st.sampled_from(["shannon", "hash", "full"]),
)
def test_quantification_matches_bdd_property(seed, num_quantified, preset):
    aig, inputs, root = build_random_aig(4, 18, seed=seed)
    quantified = [e >> 1 for e in inputs[:num_quantified]]
    assert_quantification_correct(aig, root, inputs, quantified, preset)
