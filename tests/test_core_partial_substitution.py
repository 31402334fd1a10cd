"""Tests for partial quantification (Section 4) and in-lining (Section 3)."""

import pytest

from repro.aig.graph import TRUE, Aig, edge_not
from repro.aig.ops import compose, or_, support
from repro.circuits import generators as G
from repro.circuits.combinational import parity
from repro.core.images import ImageComputer
from repro.core.partial import PartialQuantifier
from repro.core.quantify import QuantifyOptions, quantify_exists
from repro.core.substitution import (
    preimage_by_substitution,
    preimage_relational,
)
from tests.conftest import build_random_aig, edges_equivalent


class TestPartialQuantifier:
    def test_everything_cheap_quantifies_fully(self):
        aig, inputs, root = build_random_aig(4, 15, seed=801)
        quantifier = PartialQuantifier(aig, growth_factor=1000.0)
        outcome = quantifier.quantify(root, [e >> 1 for e in inputs[:2]])
        assert not outcome.aborted
        for node in (e >> 1 for e in inputs[:2]):
            assert node not in support(aig, outcome.edge)

    def test_strict_budget_aborts(self):
        # Parity cofactors never share structure and DCs do not help, so a
        # sub-1.0 growth factor must abort (size cannot shrink).
        aig, inputs, root = parity(8)
        quantifier = PartialQuantifier(
            aig,
            options=QuantifyOptions.preset("hash"),
            growth_factor=0.3,
        )
        outcome = quantifier.quantify(root, [e >> 1 for e in inputs[:3]])
        assert outcome.aborted

    def test_aborted_vars_still_in_support(self):
        aig, inputs, root = parity(8)
        quantifier = PartialQuantifier(
            aig,
            options=QuantifyOptions.preset("hash"),
            growth_factor=0.3,
        )
        outcome = quantifier.quantify(root, [e >> 1 for e in inputs[:3]])
        for node in outcome.aborted:
            assert node in support(aig, outcome.edge)

    def test_partial_result_is_sound_overapproximation_free(self):
        # The accepted quantifications must agree with a full quantifier
        # on the same accepted variable set.
        aig, inputs, root = build_random_aig(5, 25, seed=802)
        quantifier = PartialQuantifier(aig, growth_factor=1.4)
        variables = [e >> 1 for e in inputs[:3]]
        outcome = quantifier.quantify(root, variables)
        reference = quantify_exists(aig, root, outcome.quantified)
        assert edges_equivalent(
            aig, outcome.edge, reference.edge, [e >> 1 for e in inputs]
        )

    def test_invalid_growth_factor_rejected(self):
        aig = Aig()
        with pytest.raises(ValueError):
            PartialQuantifier(aig, growth_factor=0)

    def test_out_of_support_vars_count_as_quantified(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)
        quantifier = PartialQuantifier(aig)
        outcome = quantifier.quantify(f, [c >> 1])
        assert c >> 1 in outcome.quantified

    def test_caller_order_and_duplicates_dropped(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)
        quantifier = PartialQuantifier(aig, growth_factor=1000.0)
        variables = [b >> 1, c >> 1, a >> 1, b >> 1]
        outcome = quantifier.quantify(f, variables)
        assert outcome.quantified == [b >> 1, c >> 1, a >> 1]
        assert outcome.edge == TRUE
        assert outcome.stats.get("accepted") == 2


class TestInlining:
    def test_inlining_matches_relational_quantification(self):
        """The Section 3 rule: compose == build relation + quantify x'."""
        net = G.mod_counter(3, 6)
        aig = net.aig
        bad = edge_not(net.property_edge)
        next_fns = net.next_functions()
        inlined = preimage_by_substitution(aig, bad, next_fns)
        # Relational: fresh placeholders, S(x') AND (x' == delta), then
        # quantify the placeholders.
        placeholders = {
            node: aig.add_input(f"ph{node}") >> 1 for node in net.latch_nodes
        }
        relational = preimage_relational(aig, bad, next_fns, placeholders)
        quantified = quantify_exists(
            aig, relational, list(placeholders.values())
        )
        all_nodes = net.latch_nodes + net.input_nodes
        assert edges_equivalent(aig, inlined, quantified.edge, all_nodes)

    def test_inlining_needs_no_placeholder_vars(self):
        net = G.ring_counter(4)
        aig = net.aig
        bad = edge_not(net.property_edge)
        inputs_before = aig.num_inputs
        preimage_by_substitution(aig, bad, net.next_functions())
        assert aig.num_inputs == inputs_before

    def test_substitution_only_touches_present_vars(self):
        aig = Aig()
        a, b, x = aig.add_inputs(3)
        state_set = aig.and_(a, b)
        result = preimage_by_substitution(aig, state_set, {a >> 1: x})
        assert support(aig, result) == {b >> 1, x >> 1}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: G.bug_at_depth(12),
            lambda: G.mod_counter(4, 12, with_enable=True),
        ],
        ids=["bug12", "mod_counter_en"],
    )
    def test_unfiltered_map_gives_identical_edges(self, build):
        # The rebuild visits the state set's cone only, so the full
        # next-state map gives the very edges a support-filtered one does
        # and makes no node the filtered one would not.
        net = build()
        aig = net.aig
        next_fns = net.next_functions()
        images = ImageComputer(net)
        frontier = reached = images.bad_states().edge
        for _ in range(6):
            for state_set in (frontier, reached):
                present = support(aig, state_set)
                filtered = {
                    node: fn for node, fn in next_fns.items()
                    if node in present
                }
                inlined = preimage_by_substitution(aig, state_set, next_fns)
                nodes = aig.num_nodes
                assert compose(aig, state_set, filtered) == inlined
                assert aig.num_nodes == nodes
            image = images.preimage(frontier).edge
            frontier = aig.and_(image, edge_not(reached))
            reached = or_(aig, reached, image)

    def test_relational_placeholder_validation(self):
        net = G.mod_counter(2, 3)
        aig = net.aig
        bad = edge_not(net.property_edge)
        gate = aig.and_(2 * net.latch_nodes[0], 2 * net.latch_nodes[1])
        from repro.errors import AigError

        with pytest.raises(AigError):
            preimage_relational(
                aig, bad, net.next_functions(),
                {net.latch_nodes[0]: gate >> 1},
            )
