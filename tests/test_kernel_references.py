"""The quantification kernels against copies of their earlier versions.

``Aig.rebuild`` (behind ``cofactor`` and ``compose``),
``SatSweeper.merge_pair_backward`` with ``fit_solver``,
``BddSweepTable.sweep``, ``bdd_to_aig``, ``aig_to_bdd`` and the
backward traversal's initial-state test (``BackwardReachability._hit``)
read the managers' arrays directly, skip ``and_`` calls whose answer is
the node itself and share caches across calls.  Each must still create
the same nodes in the same order, make the same checks and count the
same stats as the plain versions kept below as references.  Every test
runs the kernel in one manager and the reference in a twin built from
the same seed, then compares results, stats, caches and the twins'
``_fanin0``/``_fanin1`` arrays (a BDD manager's ``_var``/``_low``/
``_high`` arrays and cache counters), so node numbering cannot drift.
"""

from __future__ import annotations

import random

import pytest

from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import cofactor, compose, ite
from repro.aig.simulate import eval_edge, word_mask
from repro.bdd.from_aig import aig_to_bdd, bdd_to_aig
from repro.bdd.manager import BDD_FALSE, BDD_TRUE, BddManager
from repro.circuits import generators as G
from repro.errors import AigError, BddError, BddLimitExceeded
from repro.mc.reach_aig import BackwardReachability
from repro.sweep import bddsweep
from repro.sweep.bddsweep import BddSweepTable, bdd_sweep
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag
from tests.conftest import build_random_aig


# ---------------------------------------------------------------------- #
# References: the kernels as they were before they read the arrays
# ---------------------------------------------------------------------- #


def reference_rebuild(aig, edge, leaf_map, cache=None):
    aig._check_edge(edge)
    if cache is None:
        cache = {}
    root = edge >> 1
    stack = [root]
    fanin0, fanin1 = aig._fanin0, aig._fanin1
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        if node in leaf_map:
            cache[node] = leaf_map[node]
            stack.pop()
            continue
        if not aig.is_and(node):
            cache[node] = 2 * node
            stack.pop()
            continue
        f0, f1 = fanin0[node], fanin1[node]
        n0, n1 = f0 >> 1, f1 >> 1
        pending = False
        if n0 not in cache:
            stack.append(n0)
            pending = True
        if n1 not in cache:
            stack.append(n1)
            pending = True
        if pending:
            continue
        stack.pop()
        a = cache[n0] ^ (f0 & 1)
        b = cache[n1] ^ (f1 & 1)
        cache[node] = aig.and_(a, b)
    return cache[root] ^ (edge & 1)


def reference_merge_pair_backward(sweeper, a, b):
    aig = sweeper.aig
    # fit_solver, with the multi-root cone list it used to build.
    sweeper._live_nodes = len(aig.cone([a, b]))
    if sweeper.mapper.num_nodes > 2 * sweeper._live_nodes:
        sweeper._fresh_solver()
    signatures = sweeper.signature_table([a, b])
    signatures.freeze()
    shared = set(aig.cone([a]))
    merge_map = {}
    visited_pairs = set()
    worklist = [(a, b)]
    while worklist:
        edge_a, edge_b = worklist.pop()
        node_a, node_b = edge_a >> 1, edge_b >> 1
        if node_b in shared or node_b in merge_map:
            continue
        pair = (node_a, node_b)
        if pair in visited_pairs:
            continue
        visited_pairs.add(pair)
        sweeper.stats.incr("backward_pairs")
        if node_b == 0 or aig.is_input(node_b):
            continue
        sig_a = signatures.edge_signature(edge_a)
        difference = sig_a ^ signatures.edge_signature(edge_b)
        compatible_equal = difference == 0
        compatible_compl = difference == word_mask(signatures.words)
        if compatible_equal or compatible_compl:
            target = edge_a if compatible_equal else edge_not(edge_a)
            verdict = sweeper.check_equal(target, edge_b)
            if verdict:
                merge_map[node_b] = target ^ (edge_b & 1)
                sweeper.stats.incr("backward_merges")
                continue
        if aig.is_and(node_a) and aig.is_and(node_b):
            a0, a1 = aig.fanins(node_a)
            b0, b1 = aig.fanins(node_b)
            for fa in (a0, a1):
                for fb in (b0, b1):
                    worklist.append((fa, fb))
    signatures.thaw()
    if not merge_map:
        return b, merge_map
    return reference_rebuild(aig, b, merge_map), merge_map


def reference_table_sweep(table, roots, stats):
    fresh, table.fresh = table.fresh, False
    aig, manager = table.aig, table.manager
    node_bdd, rebuilt = table.node_bdd, table.rebuilt
    rebuilt_support = table.rebuilt_support
    representative = table.representative
    for node in aig.cone(roots, known=node_bdd):
        if aig.is_input(node):
            mask = 1 << manager.num_vars
            bdd = table._fresh_var(node)
            node_bdd[node] = bdd
            rebuilt[node] = 2 * node
            rebuilt_support[node] = mask
            table._represent(bdd, 2 * node, mask, fresh, stats)
            continue
        f0, f1 = aig.fanins(node)
        default = aig.and_(
            rebuilt[f0 >> 1] ^ (f0 & 1),
            rebuilt[f1 >> 1] ^ (f1 & 1),
        )
        if default in (FALSE, TRUE):
            rebuilt[node] = default
            rebuilt_support[node] = 0
            node_bdd[node] = BDD_FALSE if default == FALSE else BDD_TRUE
            stats.incr("constant_folds")
            continue
        mask = rebuilt_support[f0 >> 1] | rebuilt_support[f1 >> 1]
        b0 = node_bdd[f0 >> 1]
        b1 = node_bdd[f1 >> 1]
        try:
            if f0 & 1:
                b0 = manager.not_(b0)
            if f1 & 1:
                b1 = manager.not_(b1)
            bdd = manager.and_(b0, b1)
        except BddLimitExceeded:
            if not fresh:
                raise
            stats.incr("cut_points")
            bdd = table._fresh_var(node)
        node_bdd[node] = bdd
        known = representative.get(bdd)
        if known is not None:
            existing, known_mask = known
            if not known_mask & ~mask:
                if existing != default:
                    stats.incr("bdd_merges")
                rebuilt[node] = existing
                rebuilt_support[node] = known_mask
                continue
            stats.incr("support_guarded")
        rebuilt[node] = default
        rebuilt_support[node] = mask
        table._represent(bdd, default, mask, fresh, stats)
    return [rebuilt[e >> 1] ^ (e & 1) for e in roots]


def reference_bdd_sweep(aig, roots, table):
    stats = StatsBag()
    try:
        new_roots = reference_table_sweep(table, roots, stats)
    except BddLimitExceeded:
        table.reset()
        stats = StatsBag()
        stats.incr("bdd_recycles")
        new_roots = reference_table_sweep(table, roots, stats)
    stats.set("bdd_nodes", table.manager.num_nodes)
    return new_roots, table.rebuilt, stats


def reference_bdd_to_aig(manager, bdd_node, aig, var_edges):
    """The one-call decoder; returns its edge and its whole cache."""
    cache = {BDD_FALSE: FALSE, BDD_TRUE: TRUE}
    order = []
    seen = set()
    stack = [(bdd_node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node <= 1 or node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        stack.append((manager.low_of(node), False))
        stack.append((manager.high_of(node), False))
    for node in order:
        var = manager.var_of(node)
        if var not in var_edges:
            raise BddError(f"BDD variable {var} missing from var_edges")
        low = cache[manager.low_of(node)]
        high = cache[manager.high_of(node)]
        cache[node] = ite(aig, var_edges[var], high, low)
    return cache[bdd_node], cache


def reference_aig_to_bdd(aig, edge, manager, var_map, node_cache=None):
    """The encoder through the manager's accessor methods."""
    if node_cache is None:
        node_cache = {}
    node_cache.setdefault(0, BDD_FALSE)
    for node in aig.cone([edge], known=node_cache):
        if aig.is_input(node):
            if node not in var_map:
                raise BddError(f"AIG input {node} missing from var_map")
            node_cache[node] = manager.var_node(var_map[node])
        else:
            f0, f1 = aig.fanins(node)
            b0 = node_cache[f0 >> 1]
            if f0 & 1:
                b0 = manager.not_(b0)
            b1 = node_cache[f1 >> 1]
            if f1 & 1:
                b1 = manager.not_(b1)
            node_cache[node] = manager.and_(b0, b1)
    result = node_cache[edge >> 1]
    return manager.not_(result) if edge & 1 else result


def reference_hit(traversal, frontier):
    """The initial state if a fresh evaluation of ``frontier`` holds."""
    init = traversal.model.init_assignment()
    return init if eval_edge(traversal.model.aig, frontier, init) else None


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #


def twins(num_inputs, num_gates, seed):
    """Two identical random managers: (aig, inputs, nodes) each."""
    built = []
    for _ in range(2):
        rng = random.Random(seed)
        aig = Aig()
        inputs = aig.add_inputs(num_inputs)
        edges = list(inputs)
        for _ in range(num_gates):
            a = rng.choice(edges) ^ rng.randint(0, 1)
            b = rng.choice(edges) ^ rng.randint(0, 1)
            edges.append(aig.and_(a, b))
        built.append((aig, inputs, edges))
    return built


def assert_same_nodes(left, right):
    assert left._fanin0 == right._fanin0
    assert left._fanin1 == right._fanin1


def assert_same_sweepers(sweeper, ref_sweeper):
    """Same stats, solver bound, encoding order and signatures."""
    assert sweeper.stats.as_dict() == ref_sweeper.stats.as_dict()
    assert sweeper._live_nodes == ref_sweeper._live_nodes
    assert sweeper.mapper._node_var == ref_sweeper.mapper._node_var
    assert sweeper.signatures.words == ref_sweeper.signatures.words
    assert sweeper.signatures._sigs == ref_sweeper.signatures._sigs


SEEDS = range(12)


# ---------------------------------------------------------------------- #
# Aig.rebuild
# ---------------------------------------------------------------------- #


class TestRebuildMatchesReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cofactors_with_input_leaves(self, seed):
        (aig, inputs, edges), (ref, _, _) = twins(6, 60, seed)
        rng = random.Random(seed)
        for _ in range(10):
            root = rng.choice(edges[6:]) ^ rng.randint(0, 1)
            var = rng.choice(inputs) >> 1
            value = rng.random() < 0.5
            leaf = {var: TRUE if value else FALSE}
            cache, ref_cache = {}, {}
            got = cofactor(aig, root, var, value, cache)
            want = reference_rebuild(ref, root, leaf, ref_cache)
            assert got == want
            assert cache == ref_cache
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_compositions_with_edge_leaves(self, seed):
        (aig, inputs, edges), (ref, _, _) = twins(5, 50, seed)
        rng = random.Random(seed)
        for _ in range(6):
            substitution = {
                var >> 1: rng.choice(edges) ^ rng.randint(0, 1)
                for var in rng.sample(inputs, 3)
            }
            root = rng.choice(edges[5:]) ^ rng.randint(0, 1)
            got = compose(aig, root, substitution)
            want = reference_rebuild(ref, root, dict(substitution))
            assert got == want
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_and_node_leaves_keep_the_stack_walk(self, seed):
        (aig, inputs, edges), (ref, _, _) = twins(5, 50, seed)
        rng = random.Random(seed)
        for _ in range(6):
            ands = [edge >> 1 for edge in edges[5:] if aig.is_and(edge >> 1)]
            leaf_map = {
                node: rng.choice(edges) ^ rng.randint(0, 1)
                for node in rng.sample(ands, min(3, len(ands)))
            }
            leaf_map[rng.choice(inputs) >> 1] = rng.choice((FALSE, TRUE))
            root = rng.choice(edges[5:]) ^ rng.randint(0, 1)
            cache, ref_cache = {}, {}
            assert aig.rebuild(root, leaf_map, cache) == reference_rebuild(
                ref, root, leaf_map, ref_cache
            )
            assert cache == ref_cache
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cache_shared_across_calls(self, seed):
        (aig, inputs, edges), (ref, _, _) = twins(6, 70, seed)
        rng = random.Random(seed)
        var = rng.choice(inputs) >> 1
        cache, ref_cache = {}, {}
        for _ in range(8):
            root = rng.choice(edges[6:]) ^ rng.randint(0, 1)
            got = cofactor(aig, root, var, True, cache)
            want = reference_rebuild(ref, root, {var: TRUE}, ref_cache)
            assert got == want
            assert cache == ref_cache
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("root", [FALSE, TRUE])
    @pytest.mark.parametrize("leaf_map", [{}, {0: TRUE}])
    def test_constant_roots(self, root, leaf_map):
        (aig, inputs, _), (ref, _, _) = twins(3, 10, 0)
        cache, ref_cache = {}, {}
        got = aig.rebuild(root, leaf_map, cache)
        assert got == reference_rebuild(ref, root, leaf_map, ref_cache)
        assert cache == ref_cache
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_complemented_roots_and_identity(self, seed):
        (aig, inputs, edges), (ref, _, _) = twins(4, 30, seed)
        for root in edges[4:]:
            for edge in (root, root ^ 1):
                assert aig.rebuild(edge, {}) == edge
                assert reference_rebuild(ref, edge, {}) == edge
        assert_same_nodes(aig, ref)

    def test_memoized_order_and_known_walk_agree(self):
        # A memoized cone serves an empty cache, the walk below cached
        # nodes a warm one: the same nodes come out either way.
        (aig, inputs, edges), (ref, _, _) = twins(5, 60, 3)
        root = edges[-1]
        aig.cone([root])    # memoize the root's cone first
        var = inputs[0] >> 1
        assert cofactor(aig, root, var, False) == reference_rebuild(
            ref, root, {var: FALSE}
        )
        cache = {}
        cofactor(aig, edges[-2], var, False, cache)
        ref_cache = {}
        reference_rebuild(ref, edges[-2], {var: FALSE}, ref_cache)
        got = cofactor(aig, root, var, False, cache)
        assert got == reference_rebuild(ref, root, {var: FALSE}, ref_cache)
        assert cache == ref_cache
        assert_same_nodes(aig, ref)


class TestKernelErrorPaths:
    @pytest.mark.parametrize("bad", [-1, -2, "foreign"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_and_rejects_bad_edges_in_either_operand(self, bad, side):
        aig = Aig()
        a, b = aig.add_inputs(2)
        good = aig.and_(a, b)
        if bad == "foreign":
            bad = 2 * aig.num_nodes      # one past the last node
        nodes = aig.num_nodes
        operands = (bad, good) if side == 0 else (good, bad)
        with pytest.raises(AigError, match=f"edge {bad} does not belong"):
            aig.and_(*operands)
        assert aig.num_nodes == nodes

    def test_and_names_the_first_bad_operand(self):
        aig = Aig()
        aig.add_inputs(2)
        with pytest.raises(AigError, match="edge -3 does not"):
            aig.and_(-3, 99)

    def test_and_accepts_the_last_node(self):
        aig = Aig()
        a, b = aig.add_inputs(2)
        last = 2 * (aig.num_nodes - 1) + 1
        assert aig.and_(last, a) != FALSE

    @pytest.mark.parametrize("complement", [0, 1])
    def test_rebuild_of_a_cached_root_returns_the_cached_edge(
        self, complement
    ):
        aig = Aig()
        a, b, c = aig.add_inputs(3)
        f = aig.and_(a, b)
        cache = {f >> 1: c}
        nodes = aig.num_nodes
        assert aig.rebuild(f ^ complement, {a >> 1: FALSE}, cache) == (
            c ^ complement
        )
        assert cache == {f >> 1: c}
        assert aig.num_nodes == nodes

    def test_rebuild_rejects_a_foreign_root(self):
        aig = Aig()
        aig.add_inputs(2)
        with pytest.raises(AigError):
            aig.rebuild(2 * aig.num_nodes, {})

    def test_rebuild_ignores_leaves_outside_the_manager(self):
        (aig, inputs, edges), (ref, _, _) = twins(4, 30, 5)
        leaf_map = {inputs[0] >> 1: TRUE, 10 ** 6: FALSE}
        assert aig.rebuild(edges[-1], leaf_map) == reference_rebuild(
            ref, edges[-1], leaf_map
        )
        assert_same_nodes(aig, ref)


# ---------------------------------------------------------------------- #
# SatSweeper.merge_pair_backward and fit_solver
# ---------------------------------------------------------------------- #


class TestBackwardMergeMatchesReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_cofactor_pairs(self, seed):
        (aig, inputs, edges), (ref, _, _) = twins(7, 90, seed)
        sweeper, ref_sweeper = SatSweeper(aig), SatSweeper(ref)
        rng = random.Random(seed)
        # Several pairs on one sweeper: the signature table, its learned
        # patterns and the solver carry over from pair to pair.
        for _ in range(6):
            root = rng.choice(edges[7:]) ^ rng.randint(0, 1)
            var = rng.choice(inputs) >> 1
            cof0 = cofactor(aig, root, var, False)
            cof1 = cofactor(aig, root, var, True)
            assert (cof0, cof1) == (
                reference_rebuild(ref, root, {var: FALSE}),
                reference_rebuild(ref, root, {var: TRUE}),
            )
            got = sweeper.merge_pair_backward(cof0, cof1)
            want = reference_merge_pair_backward(ref_sweeper, cof0, cof1)
            assert got == want
            assert_same_sweepers(sweeper, ref_sweeper)
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pairs_that_merge(self, seed):
        # (x & y & z) | w against (x & (y & z)) | v over inputs x, y, z:
        # the roots differ, the two conjunctions are equal but not
        # shared, so the walk merges below the root and stops there.
        (aig, inputs, edges), (ref, _, _) = twins(5, 40, seed)
        sweeper, ref_sweeper = SatSweeper(aig), SatSweeper(ref)
        rng = random.Random(seed)

        def pair(manager, x, y, z, w, v):
            left = manager.and_(manager.and_(x, y), z)
            right = manager.and_(x, manager.and_(y, z))
            return (
                edge_not(manager.and_(edge_not(left), edge_not(w))),
                edge_not(manager.and_(edge_not(right), edge_not(v))),
            )

        for _ in range(5):
            picks = rng.sample(inputs, 3) + [
                rng.choice(edges) ^ rng.randint(0, 1) for _ in range(2)
            ]
            a, b = pair(aig, *picks)
            assert (a, b) == pair(ref, *picks)
            got = sweeper.merge_pair_backward(a, b)
            want = reference_merge_pair_backward(ref_sweeper, a, b)
            assert got == want
            assert_same_sweepers(sweeper, ref_sweeper)
        assert sweeper.stats.get("backward_merges") > 0
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("seed", range(24))
    def test_merge_targets_follow_the_pair_order(self, seed):
        # a = P & Q with P, Q equal but unshared; b = R & v with R equal
        # to both.  Which of P and Q the walk merges R into, and so the
        # rebuilt b, depends on the order the fanin pairs are popped.
        (aig, inputs, edges), (ref, _, _) = twins(6, 30, seed)
        rng = random.Random(seed)
        x, y, z = rng.sample(inputs, 3)
        v = rng.choice(edges[6:]) ^ rng.randint(0, 1)
        swap = rng.random() < 0.5

        def pair(manager):
            p = manager.and_(manager.and_(x, y), z)
            q = manager.and_(x, manager.and_(y, z))
            r = manager.and_(manager.and_(x, z), y)
            return manager.and_(p, q), (
                manager.and_(v, r) if swap else manager.and_(r, v)
            )

        a, b = pair(aig)
        assert (a, b) == pair(ref)
        got = SatSweeper(aig), SatSweeper(ref)
        assert got[0].merge_pair_backward(a, b) == (
            reference_merge_pair_backward(got[1], a, b)
        )
        assert_same_sweepers(*got)
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("seed", range(16))
    def test_checks_follow_the_pair_order(self, seed):
        # a = P & Q against b = R | S, with S equal to P and R to Q but
        # unshared: two fanin pairs check and merge, and the order of
        # those checks fixes the solver's variable numbering.  Random
        # creation orders put the merging pairs on either diagonal of
        # the four fanin pairs.
        (aig, inputs, _), (ref, _, _) = twins(6, 0, seed)
        rng = random.Random(seed)
        x, y, z, u, w, t = rng.sample(inputs, 6)
        builders = [
            lambda m: m.and_(m.and_(x, y), z),      # P
            lambda m: m.and_(m.and_(u, w), t),      # Q
            lambda m: m.and_(u, m.and_(w, t)),      # R
            lambda m: m.and_(x, m.and_(y, z)),      # S
        ]
        order = rng.sample(range(4), 4)

        def pair(manager):
            made = {index: builders[index](manager) for index in order}
            p, q, r, s = (made[index] for index in range(4))
            return manager.and_(p, q), edge_not(
                manager.and_(edge_not(r), edge_not(s))
            )

        a, b = pair(aig)
        assert (a, b) == pair(ref)
        got = SatSweeper(aig), SatSweeper(ref)
        assert got[0].merge_pair_backward(a, b) == (
            reference_merge_pair_backward(got[1], a, b)
        )
        assert_same_sweepers(*got)
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_solver_counts_the_union_of_root_cones(self, seed):
        aig, _, root = build_random_aig(6, 50, seed)
        edges = [root, root ^ 1, FALSE, TRUE] + [
            2 * node for node in range(1, aig.num_nodes, 7)
        ]
        sweeper = SatSweeper(aig)
        for count in range(len(edges) + 1):
            sweeper.fit_solver(edges[:count])
            assert sweeper._live_nodes == len(aig.cone(edges[:count]))


# ---------------------------------------------------------------------- #
# BddSweepTable.sweep
# ---------------------------------------------------------------------- #


def _sweep_state(table):
    return (
        table.node_bdd, table.rebuilt, table.rebuilt_support,
        table.representative, table.var_of_input, table.fresh,
        table.manager.num_nodes,
    )


class TestBddSweepMatchesReference:
    @pytest.mark.parametrize("limit", [2000, 40, 12])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_successive_sweeps_and_recycles(self, seed, limit, monkeypatch):
        # Small budgets force cut points in fresh tables and recycles of
        # tables that hold earlier sweeps.
        monkeypatch.setattr(bddsweep, "BDD_NODE_LIMIT", limit)
        (aig, inputs, edges), (ref, _, _) = twins(6, 80, seed)
        table, ref_table = BddSweepTable(aig), BddSweepTable(ref)
        rng = random.Random(seed)
        for _ in range(6):
            root = rng.choice(edges[6:]) ^ rng.randint(0, 1)
            var = rng.choice(inputs) >> 1
            roots = [cofactor(aig, root, var, False),
                     cofactor(aig, root, var, True)]
            ref_roots = [reference_rebuild(ref, root, {var: FALSE}),
                         reference_rebuild(ref, root, {var: TRUE})]
            assert roots == ref_roots
            new_roots, rebuilt, stats = bdd_sweep(aig, roots, table=table)
            want_roots, want_rebuilt, want_stats = reference_bdd_sweep(
                ref, ref_roots, ref_table
            )
            assert new_roots == want_roots
            assert rebuilt == want_rebuilt
            assert stats.as_dict() == want_stats.as_dict()
            assert _sweep_state(table) == _sweep_state(ref_table)
        assert_same_nodes(aig, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fresh_table_per_sweep(self, seed):
        (aig, inputs, edges), (ref, _, _) = twins(6, 80, seed)
        rng = random.Random(seed)
        for _ in range(4):
            roots = [rng.choice(edges[6:]) ^ rng.randint(0, 1)
                     for _ in range(3)]
            got = bdd_sweep(aig, roots)
            want = reference_bdd_sweep(ref, roots, BddSweepTable(ref))
            assert got[0] == want[0] and got[1] == want[1]
            assert got[2].as_dict() == want[2].as_dict()
        assert_same_nodes(aig, ref)


# ---------------------------------------------------------------------- #
# bdd_to_aig
# ---------------------------------------------------------------------- #


class TestBddToAigMatchesReference:
    @staticmethod
    def _bdds(seed, count):
        """BDDs of random AIG functions over five variables."""
        source, inputs, edges = twins(5, 60, seed)[0]
        manager = BddManager()
        for _ in inputs:
            manager.new_var()
        var_map = {edge >> 1: index for index, edge in enumerate(inputs)}
        cache: dict[int, int] = {}
        rng = random.Random(seed)
        roots = [rng.choice(edges) ^ rng.randint(0, 1) for _ in range(count)]
        bdds = [aig_to_bdd(source, r, manager, var_map, cache) for r in roots]
        return manager, bdds + [BDD_FALSE, BDD_TRUE]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shared", [False, True])
    def test_decodes_match(self, seed, shared):
        manager, bdds = self._bdds(seed, 8)
        (aig, inputs, _), (ref, _, _) = twins(5, 0, seed)
        var_edges = dict(enumerate(inputs))
        cache = {} if shared else None
        union: dict[int, int] = {}
        for bdd in bdds:
            got = bdd_to_aig(manager, bdd, aig, var_edges, cache)
            want, ref_cache = reference_bdd_to_aig(
                manager, bdd, ref, var_edges
            )
            assert got == want
            union.update(ref_cache)
            if shared:
                assert cache == union
        assert_same_nodes(aig, ref)

    def test_cached_nodes_need_no_variable(self):
        manager, bdds = self._bdds(1, 3)
        aig = Aig()
        inputs = aig.add_inputs(5)
        cache: dict[int, int] = {}
        first = bdd_to_aig(manager, bdds[0], aig, dict(enumerate(inputs)),
                           cache)
        # A decoded node is served from the cache, without var_edges.
        assert bdd_to_aig(manager, bdds[0], aig, {}, cache) == first
        if bdds[1] not in cache:
            with pytest.raises(BddError):
                bdd_to_aig(manager, bdds[1], aig, {}, cache)


# ---------------------------------------------------------------------- #
# aig_to_bdd
# ---------------------------------------------------------------------- #


def _bdd_state(manager):
    return (
        manager._var, manager._low, manager._high, manager.cache_summary()
    )


def _twin_bdd_managers(num_vars, max_nodes=None):
    managers = []
    for _ in range(2):
        manager = BddManager(max_nodes=max_nodes)
        for _ in range(num_vars):
            manager.new_var()
        managers.append(manager)
    return managers


class TestAigToBddMatchesReference:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shared", [False, True])
    def test_encodes_match(self, seed, shared):
        (aig, inputs, edges), _ = twins(6, 80, seed)
        manager, ref_manager = _twin_bdd_managers(6)
        var_map = {edge >> 1: index for index, edge in enumerate(inputs)}
        cache = {} if shared else None
        ref_cache = {} if shared else None
        rng = random.Random(seed)
        roots = [rng.choice(edges) ^ rng.randint(0, 1) for _ in range(10)]
        for root in roots + [FALSE, TRUE]:
            got = aig_to_bdd(aig, root, manager, var_map, cache)
            want = reference_aig_to_bdd(
                aig, root, ref_manager, var_map, ref_cache
            )
            assert got == want
            assert cache == ref_cache
        assert _bdd_state(manager) == _bdd_state(ref_manager)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_budget_overruns_stop_at_the_same_node(self, seed):
        (aig, inputs, edges), _ = twins(6, 80, seed)
        manager, ref_manager = _twin_bdd_managers(6, max_nodes=30)
        var_map = {edge >> 1: index for index, edge in enumerate(inputs)}
        cache: dict[int, int] = {}
        ref_cache: dict[int, int] = {}
        rng = random.Random(seed)
        for _ in range(6):
            root = rng.choice(edges) ^ rng.randint(0, 1)
            try:
                got = aig_to_bdd(aig, root, manager, var_map, cache)
            except BddLimitExceeded:
                got = "overrun"
            try:
                want = reference_aig_to_bdd(
                    aig, root, ref_manager, var_map, ref_cache
                )
            except BddLimitExceeded:
                want = "overrun"
            assert got == want
            assert cache == ref_cache
        assert _bdd_state(manager) == _bdd_state(ref_manager)


# ---------------------------------------------------------------------- #
# BackwardReachability._hit
# ---------------------------------------------------------------------- #


HIT_DESIGNS = {
    "mod_counter_enable": lambda: G.mod_counter(
        5, 20, safe=False, with_enable=True
    ),
    "one_hot": lambda: G.one_hot_fsm(6, safe=False),
    "arbiter": lambda: G.arbiter(4),
    "johnson": lambda: G.johnson_counter(6),
}


class TestInitialStateHitMatchesReference:
    @pytest.mark.parametrize("design", HIT_DESIGNS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_state_sets(self, design, seed):
        netlist = HIT_DESIGNS[design]()
        traversal = BackwardReachability(netlist)
        twin = BackwardReachability(netlist)
        built = []
        for run in (traversal, twin):
            rng = random.Random(seed)
            aig = run.model.aig
            # Latches, one input (absent from the initial state: false)
            # and ANDs over them, so later sets share earlier cones.
            edges = [2 * node for node in run.model.latch_nodes]
            edges += [2 * node for node in run.model.input_nodes[:1]]
            for _ in range(60):
                a = rng.choice(edges) ^ rng.randint(0, 1)
                b = rng.choice(edges) ^ rng.randint(0, 1)
                edges.append(aig.and_(a, b))
            order = edges + [FALSE, TRUE]
            rng.shuffle(order)
            built.append(order)
        assert built[0] == built[1]
        for frontier in built[0]:
            assert traversal._hit(frontier) == reference_hit(twin, frontier)
        assert_same_nodes(traversal.model.aig, twin.model.aig)

    @pytest.mark.parametrize("design", HIT_DESIGNS)
    def test_whole_runs_match(self, design, monkeypatch):
        netlist = HIT_DESIGNS[design]()
        traversal = BackwardReachability(netlist)
        result = traversal.run()
        twin = BackwardReachability(netlist)
        monkeypatch.setattr(
            twin, "_hit", lambda frontier: reference_hit(twin, frontier)
        )
        want = twin.run()
        assert result.status is want.status
        assert result.iterations == want.iterations
        assert result.stats.as_dict() == want.stats.as_dict()
        if want.trace is not None:
            assert result.trace.states == want.trace.states
            assert result.trace.inputs == want.trace.inputs
        assert_same_nodes(traversal.model.aig, twin.model.aig)
