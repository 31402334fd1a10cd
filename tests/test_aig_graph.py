"""Unit tests for the AIG manager: hashing, simplification, cones."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig import graph
from repro.aig.analysis import cone_size, cone_size_many
from repro.aig.graph import FALSE, TRUE, Aig, edge_is_complement, edge_node, edge_not
from repro.aig.ops import support, support_many
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

    def test_cone_size(self):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(aig.and_(a, b), c)
        assert cone_size(aig, f) == 2
        assert cone_size(aig, a) == 0

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


def reference_cone(aig, edges, known=()):
    """The plain depth-first walk the memoized ``Aig.cone`` must match."""
    seen, order = set(), []
    stack = [(edge >> 1, False) for edge in edges]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen or node == 0 or node in known:
            continue
        seen.add(node)
        stack.append((node, True))
        if aig.is_and(node):
            f0, f1 = aig.fanins(node)
            stack.append((f0 >> 1, False))
            stack.append((f1 >> 1, False))
    return order


def grow(aig, rng, count):
    """Add ``count`` random ANDs over the manager's nodes; their edges."""
    added = []
    for _ in range(count):
        a = 2 * rng.randrange(aig.num_nodes) ^ rng.randint(0, 1)
        b = 2 * rng.randrange(aig.num_nodes) ^ rng.randint(0, 1)
        added.append(aig.and_(a, b))
    return added


def all_edges(aig):
    return [2 * node ^ bit for node in aig.nodes() for bit in (0, 1)]


class TestConeMemo:
    @pytest.mark.parametrize("seed", range(5))
    def test_single_roots_match_the_walk(self, seed):
        aig, _, _ = build_random_aig(5, 40, seed=seed)
        for _ in range(2):      # a miss, then a hit
            for edge in all_edges(aig):
                assert aig.cone([edge]) == reference_cone(aig, [edge])
        assert aig.cone([FALSE]) == aig.cone([TRUE]) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_several_roots_match_the_walk(self, seed):
        aig, _, _ = build_random_aig(5, 40, seed=seed)
        rng = random.Random(seed)
        edges = all_edges(aig)
        for trial in range(60):
            roots = [rng.choice(edges) for _ in range(rng.randint(2, 6))]
            roots += rng.sample(roots, rng.randint(0, 2))   # duplicates
            rng.shuffle(roots)
            if trial % 3 == 0:
                roots.append(rng.choice((FALSE, TRUE)))
            if trial % 2:       # every root memoized: concatenation
                for root in roots:
                    aig.cone([root])
            assert aig.cone(roots) == reference_cone(aig, roots)

    @pytest.mark.parametrize("seed", range(5))
    def test_known_walks_match_the_walk(self, seed):
        aig, inputs, root = build_random_aig(5, 40, seed=seed)
        rng = random.Random(seed)
        for edge in all_edges(aig):
            aig.cone([edge])
        for _ in range(20):
            below = [rng.choice(all_edges(aig)) for _ in range(2)]
            known = dict.fromkeys(reference_cone(aig, below))
            roots = [root, rng.choice(all_edges(aig))]
            assert aig.cone(roots, known) == reference_cone(aig, roots, known)
            assert aig.cone([root], known) == reference_cone(
                aig, [root], known
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_cones_stay_exact_as_the_manager_grows(self, seed):
        aig, _, _ = build_random_aig(5, 20, seed=seed)
        rng = random.Random(seed)
        for _ in range(4):
            cached = all_edges(aig)
            for edge in cached:
                aig.cone([edge])
            fresh = grow(aig, rng, 15)
            for edge in cached + fresh:
                assert aig.cone([edge]) == reference_cone(aig, [edge])
            roots = rng.sample(cached, 3) + fresh[-2:]
            assert aig.cone(roots) == reference_cone(aig, roots)

    @pytest.mark.parametrize("seed", range(3))
    def test_budget_overrun_clears_the_memo(self, seed, monkeypatch):
        monkeypatch.setattr(graph, "CONE_MEMO_NODE_LIMIT", 25)
        aig, _, _ = build_random_aig(6, 60, seed=seed)
        rng = random.Random(seed)
        edges = all_edges(aig)
        for _ in range(3):
            for edge in edges:
                assert aig.cone([edge]) == reference_cone(aig, [edge])
                stored = sum(len(e.order) for e in aig._cones.values())
                assert stored == aig._cone_nodes
                assert stored <= 25 or len(aig._cones) == 1
            roots = rng.sample(edges, 4)
            assert aig.cone(roots) == reference_cone(aig, roots)

    def test_returned_lists_are_the_callers_own(self):
        aig, _, root = build_random_aig(5, 30, seed=3)
        expected = reference_cone(aig, [root])
        first = aig.cone([root])
        first.clear()
        assert aig.cone([root]) == expected
        second = aig.cone([root])
        second.reverse()
        assert aig.cone([root, root]) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_sizes_and_supports_read_from_the_memo(self, seed):
        aig, _, _ = build_random_aig(6, 40, seed=seed)
        rng = random.Random(seed)
        edges = all_edges(aig)

        def ands(nodes):
            return sum(1 for node in nodes if aig.is_and(node))

        def inputs(nodes):
            return {node for node in nodes if aig.is_input(node)}

        for _ in range(2):
            for edge in edges:
                walk = reference_cone(aig, [edge])
                assert cone_size(aig, edge) == ands(walk)
                assert support(aig, edge) == inputs(walk)
            for _ in range(20):
                roots = rng.sample(edges, rng.randint(1, 4))
                walk = reference_cone(aig, roots)
                assert cone_size_many(aig, roots) == ands(walk)
                assert support_many(aig, roots) == inputs(walk)


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

    @pytest.mark.parametrize("seed", range(12))
    def test_random_roots_keep_their_functions(self, seed):
        # Several roots, some complemented, extracted into one manager;
        # node_map carries each input to its counterpart, in order.
        rng = random.Random(seed)
        aig, inputs, root = build_random_aig(5, 30, seed=seed)
        gates = list(aig.and_nodes())
        roots = [root] + [
            2 * rng.choice(gates) + rng.randint(0, 1) for _ in range(3)
        ]
        keep = seed % 2 == 1
        compact, new_roots, node_map = aig.extract(
            roots, keep_all_inputs=keep
        )
        old_order = [e >> 1 for e in inputs if keep or e >> 1 in node_map]
        new_order = [node_map[node] >> 1 for node in old_order]
        assert all(node_map[node] & 1 == 0 for node in old_order)
        assert sorted(new_order) == sorted(compact.inputs)
        if keep:
            assert new_order == compact.inputs
        for old, new in zip(roots, new_roots):
            assert truth_table(compact, new, new_order) == truth_table(
                aig, old, old_order
            )

    def test_extract_keeps_input_names(self):
        aig = Aig()
        a = aig.add_input("clock")
        b = aig.add_input("reset")
        compact, _, node_map = aig.extract([aig.and_(a, b)])
        assert compact.name_of(node_map[a >> 1] >> 1) == "clock"
        assert compact.name_of(node_map[b >> 1] >> 1) == "reset"

    def test_extract_complemented_root(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        compact, (f,), _ = aig.extract([edge_not(aig.and_(a, b))])
        assert f & 1
        assert truth_table(compact, f, compact.inputs) == 0b0111

    def test_extract_constant_roots_next_to_logic(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        compact, edges, _ = aig.extract([FALSE, aig.and_(a, b), TRUE])
        assert edges[0] == FALSE and edges[2] == TRUE
        assert compact.num_ands == 1
        assert truth_table(compact, edges[1], compact.inputs) == 0b1000


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
