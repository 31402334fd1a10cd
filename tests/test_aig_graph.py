"""Unit tests for the AIG manager: hashing, simplification, cones."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.graph import FALSE, TRUE, Aig, edge_is_complement, edge_node, edge_not
from repro.aig.simulate import truth_table
from repro.errors import AigError
from tests.conftest import build_random_aig


class TestConstants:
    def test_false_true_edges(self):
        assert FALSE == 0
        assert TRUE == 1
        assert edge_not(FALSE) == TRUE

    def test_edge_helpers(self):
        assert edge_node(7) == 3
        assert edge_is_complement(7)
        assert not edge_is_complement(6)


class TestSimplification:
    def setup_method(self):
        self.aig = Aig()
        self.a = self.aig.add_input("a")
        self.b = self.aig.add_input("b")

    def test_and_with_false(self):
        assert self.aig.and_(self.a, FALSE) == FALSE
        assert self.aig.and_(FALSE, self.a) == FALSE

    def test_and_with_true(self):
        assert self.aig.and_(self.a, TRUE) == self.a
        assert self.aig.and_(TRUE, self.b) == self.b

    def test_idempotence(self):
        assert self.aig.and_(self.a, self.a) == self.a

    def test_contradiction(self):
        assert self.aig.and_(self.a, edge_not(self.a)) == FALSE

    def test_structural_hashing_commutes(self):
        assert self.aig.and_(self.a, self.b) == self.aig.and_(self.b, self.a)

    def test_hashing_distinguishes_polarity(self):
        plain = self.aig.and_(self.a, self.b)
        mixed = self.aig.and_(edge_not(self.a), self.b)
        assert plain != mixed

    def test_no_duplicate_nodes(self):
        before = self.aig.num_ands
        self.aig.and_(self.a, self.b)
        mid = self.aig.num_ands
        self.aig.and_(self.b, self.a)
        assert self.aig.num_ands == mid == before + 1


class TestStructure:
    def test_input_classification(self):
        aig = Aig()
        a = aig.add_input()
        g = aig.and_(a, edge_not(a))  # folds to constant
        f = aig.and_(a, aig.add_input())
        assert aig.is_input(a >> 1)
        assert aig.is_and(f >> 1)
        assert aig.is_const(0)
        assert not aig.is_input(0)

    def test_fanins(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, edge_not(b))
        f0, f1 = aig.fanins(f >> 1)
        assert {f0, f1} == {a, edge_not(b)}

    def test_fanins_of_input_rejected(self):
        aig = Aig()
        a = aig.add_input()
        with pytest.raises(AigError):
            aig.fanins(a >> 1)

    def test_levels(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)
        g = aig.and_(f, c)
        assert aig.level(a >> 1) == 0
        assert aig.level(f >> 1) == 1
        assert aig.level(g >> 1) == 2

    def test_counts(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        aig.and_(a, b)
        assert aig.num_inputs == 2
        assert aig.num_ands == 1
        assert aig.num_nodes == 4  # const + 2 inputs + 1 and

    def test_input_names(self):
        aig = Aig()
        a = aig.add_input("clk")
        anon = aig.add_input()
        assert aig.input_name(a >> 1) == "clk"
        assert aig.name_of(anon >> 1) is None

    def test_foreign_edge_rejected(self):
        aig = Aig()
        aig.add_input()
        with pytest.raises(AigError):
            aig.and_(999, 2)

    def test_negative_input_count_rejected(self):
        with pytest.raises(AigError):
            Aig().add_inputs(-1)


class TestCone:
    def test_cone_topological(self):
        aig, inputs, root = build_random_aig(5, 30, seed=1)
        order = aig.cone([root])
        position = {node: i for i, node in enumerate(order)}
        for node in order:
            if aig.is_and(node):
                f0, f1 = aig.fanins(node)
                for fanin in (f0 >> 1, f1 >> 1):
                    if fanin != 0:
                        assert position[fanin] < position[node]

    def test_cone_excludes_unreachable(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)
        aig.and_(b, c)  # not in f's cone
        cone = aig.cone([f])
        assert (c >> 1) not in cone

    def test_cone_of_constant_empty(self):
        aig = Aig()
        assert aig.cone([FALSE]) == []
        assert aig.cone([TRUE]) == []

    def test_cone_and_count(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(aig.and_(a, b), c)
        assert aig.cone_and_count(f) == 2
        assert aig.cone_and_count(a) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_cone_below_known_nodes_is_the_full_walk_minus_them(self, seed):
        aig, inputs, root = build_random_aig(5, 30, seed=seed)
        rng = random.Random(seed)
        nodes = list(inputs) + [root]
        for _ in range(20):  # a second cone sharing the first one's logic
            nodes.append(
                aig.and_(
                    rng.choice(nodes) ^ rng.randint(0, 1),
                    rng.choice(nodes) ^ rng.randint(0, 1),
                )
            )
        other = nodes[-1]
        known = set(aig.cone([root, inputs[0]]))   # closed under fanins
        full = aig.cone([other])
        assert aig.cone([other], known) == [n for n in full if n not in known]


class TestExtract:
    def test_extract_preserves_function(self):
        aig, inputs, root = build_random_aig(4, 25, seed=7)
        input_nodes = [e >> 1 for e in inputs]
        before = truth_table(aig, root, input_nodes)
        compact, (new_root,), node_map = aig.extract(
            [root], keep_all_inputs=True
        )
        after = truth_table(compact, new_root, compact.inputs)
        assert before == after

    def test_extract_drops_dead_logic(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)
        for _ in range(5):
            c = aig.and_(c, f)  # build junk that f does not depend on
        compact, _, _ = aig.extract([f])
        assert compact.num_ands == 1

    def test_extract_keep_all_inputs_alignment(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, c)  # b unused
        compact, _, _ = aig.extract([f], keep_all_inputs=True)
        assert compact.num_inputs == 3

    def test_extract_without_keeping_inputs(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, c)
        compact, _, _ = aig.extract([f])
        assert compact.num_inputs == 2

    def test_extract_constant_edge(self):
        aig = Aig()
        aig.add_input()
        compact, (e,), _ = aig.extract([TRUE])
        assert e == TRUE


class TestRebuild:
    def test_identity_rebuild_is_stable(self):
        aig, inputs, root = build_random_aig(4, 20, seed=3)
        assert aig.rebuild(root, {}) == root

    def test_rebuild_with_constant_leaf(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = aig.and_(a, b)
        assert aig.rebuild(f, {a >> 1: TRUE}) == b
        assert aig.rebuild(f, {a >> 1: FALSE}) == FALSE

    def test_rebuild_complement_root(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        f = edge_not(aig.and_(a, b))
        assert aig.rebuild(f, {a >> 1: TRUE}) == edge_not(b)

    def test_rebuild_cache_shared(self):
        aig, inputs, root = build_random_aig(4, 20, seed=9)
        cache: dict[int, int] = {}
        first = aig.rebuild(root, {}, cache)
        second = aig.rebuild(edge_not(root), {}, cache)
        assert second == edge_not(first)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_aig_hash_consing_is_canonical_per_structure(seed):
    # Building the same structure twice in one manager creates no new nodes.
    aig, inputs, root = build_random_aig(4, 15, seed=seed)
    count = aig.num_ands
    aig2, inputs2, root2 = build_random_aig(4, 15, seed=seed)
    # Re-running the same construction inside the first manager:
    import random as _random

    rng = _random.Random(seed)
    nodes = list(inputs)
    for _ in range(15):
        a = rng.choice(nodes) ^ rng.randint(0, 1)
        b = rng.choice(nodes) ^ rng.randint(0, 1)
        nodes.append(aig.and_(a, b))
    assert aig.num_ands == count
