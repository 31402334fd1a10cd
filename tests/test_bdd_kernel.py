"""Kernel-level tests for the rewritten BDD manager.

Covers the fused ``and_exists`` operator, cube-directed multi-variable
quantification, the ITE terminal simplifications, the tagged/bounded
operation caches, and the deep-chain recursion guard.  Randomized checks
use a fixed seed so failures reproduce.
"""

import itertools
import random

from repro.bdd.manager import BDD_FALSE, BDD_TRUE, BddManager

SEED = 20050307
NUM_VARS = 6


def random_bdd(mgr, rng, depth=12):
    """A random function over the manager's variables (op-DAG walk)."""
    pool = [mgr.var_node(i) for i in range(mgr.num_vars)]
    for _ in range(depth):
        op = rng.choice(("and", "or", "xor", "not", "ite"))
        a, b, c = (rng.choice(pool) for _ in range(3))
        if op == "and":
            pool.append(mgr.and_(a, b))
        elif op == "or":
            pool.append(mgr.or_(a, b))
        elif op == "xor":
            pool.append(mgr.xor(a, b))
        elif op == "not":
            pool.append(mgr.not_(a))
        else:
            pool.append(mgr.ite(a, b, c))
    return pool[-1]


class TestAndExists:
    """and_exists(f, g, V) must equal exists(f AND g, V) — always."""

    def test_randomized_equivalence(self):
        rng = random.Random(SEED)
        mgr = BddManager()
        for _ in range(NUM_VARS):
            mgr.new_var()
        for _ in range(60):
            f = random_bdd(mgr, rng)
            g = random_bdd(mgr, rng)
            variables = [
                v for v in range(NUM_VARS) if rng.random() < 0.5
            ]
            fused = mgr.and_exists(f, g, variables)
            reference = mgr.exists(mgr.and_(f, g), variables)
            assert fused == reference

    def test_terminal_cases(self):
        mgr = BddManager()
        x, y = mgr.new_var(), mgr.new_var()
        f = mgr.and_(x, y)
        assert mgr.and_exists(BDD_FALSE, f, [0]) == BDD_FALSE
        assert mgr.and_exists(f, BDD_FALSE, [0]) == BDD_FALSE
        assert mgr.and_exists(f, BDD_TRUE, [1]) == x
        assert mgr.and_exists(f, f, [1]) == x
        # Empty cube degrades to plain conjunction.
        assert mgr.and_exists(x, y, []) == mgr.and_(x, y)

    def test_complement_conjuncts_are_false(self):
        mgr = BddManager()
        x, y = mgr.new_var(), mgr.new_var()
        f = mgr.xor(x, y)
        assert mgr.and_exists(f, mgr.not_(f), [0, 1]) == BDD_FALSE

    def test_prebuilt_cube_variant(self):
        mgr = BddManager()
        x, y, z = mgr.new_var(), mgr.new_var(), mgr.new_var()
        cube = mgr.cube_pos([1, 2])
        f = mgr.and_(x, mgr.or_(y, z))
        assert mgr.and_exists_cube(f, BDD_TRUE, cube) == x
        assert mgr.exists_cube(f, cube) == x


class TestCubeQuantification:
    def test_exists_matches_per_variable_reference(self):
        """One cube-directed recursion == the old one-var-at-a-time loop."""
        rng = random.Random(SEED + 1)
        mgr = BddManager()
        for _ in range(NUM_VARS):
            mgr.new_var()
        for _ in range(40):
            f = random_bdd(mgr, rng)
            variables = [v for v in range(NUM_VARS) if rng.random() < 0.4]
            reference = f
            for var in sorted(variables, reverse=True):
                reference = mgr.or_(
                    mgr.restrict(reference, var, False),
                    mgr.restrict(reference, var, True),
                )
            assert mgr.exists(f, variables) == reference

    def test_cube_pos_is_a_positive_cube(self):
        mgr = BddManager()
        for _ in range(4):
            mgr.new_var()
        cube = mgr.cube_pos([0, 2, 3])
        assert mgr.evaluate(cube, {0: True, 1: False, 2: True, 3: True})
        assert not mgr.evaluate(cube, {0: True, 1: True, 2: False, 3: True})

    def test_forall_duality_still_holds(self):
        mgr = BddManager()
        x, y, z = mgr.new_var(), mgr.new_var(), mgr.new_var()
        f = mgr.ite(x, y, mgr.not_(z))
        lhs = mgr.forall(f, [0, 2])
        rhs = mgr.not_(mgr.exists(mgr.not_(f), [0, 2]))
        assert lhs == rhs


class TestIteSimplifications:
    def setup_method(self):
        self.mgr = BddManager()
        self.x = self.mgr.new_var()
        self.y = self.mgr.new_var()
        self.z = self.mgr.new_var()

    def test_g_equals_f_collapses_to_or(self):
        f = self.mgr.and_(self.x, self.y)
        assert self.mgr.ite(f, f, self.z) == self.mgr.or_(f, self.z)

    def test_h_equals_f_collapses_to_and(self):
        f = self.mgr.or_(self.x, self.y)
        assert self.mgr.ite(f, self.z, f) == self.mgr.and_(f, self.z)

    def test_complement_then_branch(self):
        f = self.mgr.xor(self.x, self.y)
        not_f = self.mgr.not_(f)
        assert self.mgr.ite(f, not_f, self.z) == self.mgr.and_(not_f, self.z)

    def test_complement_else_branch(self):
        f = self.mgr.xor(self.x, self.y)
        not_f = self.mgr.not_(f)
        assert self.mgr.ite(f, self.z, not_f) == self.mgr.or_(not_f, self.z)

    def test_negation_via_ite(self):
        f = self.mgr.and_(self.x, self.z)
        assert self.mgr.ite(f, BDD_FALSE, BDD_TRUE) == self.mgr.not_(f)

    def test_two_operand_forms_share_tagged_caches(self):
        """Simplified ITE calls must not populate the ITE cache at all."""
        f = self.mgr.and_(self.x, self.y)
        baseline = self.mgr.cache_stats()["ite"]["entries"]
        self.mgr.ite(f, f, self.z)           # or-form
        self.mgr.ite(f, self.z, f)           # and-form
        self.mgr.ite(f, self.z, BDD_FALSE)   # and-form
        self.mgr.ite(f, BDD_TRUE, self.z)    # or-form
        assert self.mgr.cache_stats()["ite"]["entries"] == baseline

    def test_exhaustive_against_semantics(self):
        rng = random.Random(SEED + 2)
        mgr = BddManager()
        for _ in range(3):
            mgr.new_var()
        for _ in range(50):
            f, g, h = (random_bdd(mgr, rng, depth=5) for _ in range(3))
            result = mgr.ite(f, g, h)
            for values in itertools.product([False, True], repeat=3):
                assignment = dict(enumerate(values))
                expected = (
                    mgr.evaluate(g, assignment)
                    if mgr.evaluate(f, assignment)
                    else mgr.evaluate(h, assignment)
                )
                assert mgr.evaluate(result, assignment) == expected


class TestCacheDiscipline:
    def test_cache_stats_shape(self):
        mgr = BddManager()
        x, y = mgr.new_var(), mgr.new_var()
        mgr.and_(x, y)
        mgr.and_(x, y)
        stats = mgr.cache_stats()
        assert stats["and"]["hits"] >= 1
        assert stats["and"]["misses"] >= 1
        assert stats["and"]["entries"] >= 1
        summary = mgr.cache_summary()
        assert summary["cache_hits"] >= 1
        assert 0.0 < summary["cache_hit_rate"] <= 1.0

    def test_clear_caches_keeps_nodes_valid(self):
        mgr = BddManager()
        x, y = mgr.new_var(), mgr.new_var()
        f = mgr.and_(x, y)
        mgr.clear_caches()
        assert mgr.cache_summary()["cache_entries"] == 0
        assert mgr.and_(x, y) == f   # unique table untouched: same node

    def test_bounded_caches_reset(self):
        rng = random.Random(SEED + 3)
        mgr = BddManager(max_cache_entries=8)
        for _ in range(6):
            mgr.new_var()
        for _ in range(30):
            random_bdd(mgr, rng)
        stats = mgr.cache_stats()
        for op_stats in stats.values():
            assert op_stats["entries"] <= 8
        assert mgr.cache_summary()["cache_resets"] > 0

    def test_trim_caches(self):
        mgr = BddManager()
        rng = random.Random(SEED + 4)
        for _ in range(6):
            mgr.new_var()
        for _ in range(10):
            random_bdd(mgr, rng)
        assert mgr.trim_caches() == 0        # no bound configured: no-op
        cleared = mgr.trim_caches(bound=0)   # explicit bound clears non-empty
        assert cleared > 0
        assert mgr.cache_summary()["cache_entries"] == 0

    def test_trim_fires_between_steps_below_hard_bound(self):
        """The between-steps trim must act below the _cache_put bound."""
        rng = random.Random(SEED + 5)
        mgr = BddManager(max_cache_entries=80)
        for _ in range(8):
            mgr.new_var()
        for _ in range(60):
            random_bdd(mgr, rng)
        stats = mgr.cache_stats()
        assert any(s["entries"] > 20 for s in stats.values())
        assert mgr.trim_caches() > 0         # defaults to hard bound / 4
        stats = mgr.cache_stats()
        assert all(s["entries"] <= 20 for s in stats.values())


class TestDeepChains:
    """Deep chain circuits must not hit Python's recursion limit."""

    def test_deep_conjunction_chain(self):
        mgr = BddManager()
        width = 2500
        variables = [mgr.new_var() for _ in range(width)]
        # Bottom-up conjunction keeps construction linear; the recursions
        # below still descend the full 2500-variable chain.
        acc = BDD_TRUE
        for var in reversed(variables):
            acc = mgr.and_(var, acc)
        assert mgr.size(acc) == width
        # Quantify out every other variable in one cube-directed pass.
        remaining = mgr.exists(acc, list(range(0, width, 2)))
        assert mgr.size(remaining) == width // 2
        assert mgr.not_(mgr.not_(acc)) == acc

    def test_deep_fused_relational_product(self):
        mgr = BddManager()
        width = 1500
        for _ in range(width):
            mgr.new_var()
        f = mgr.cube_pos(range(width // 2))
        g = mgr.cube_pos(range(width // 2, width))
        image = mgr.and_exists(f, g, list(range(width // 2)))
        assert image == g


class TestRename:
    def test_order_preserving_rename_is_exact(self):
        mgr = BddManager()
        x, y = mgr.new_var(), mgr.new_var()
        z, w = mgr.new_var(), mgr.new_var()
        f = mgr.and_(x, mgr.not_(y))
        renamed = mgr.rename(f, {0: 2, 1: 3})
        assert renamed == mgr.and_(z, mgr.not_(w))

    def test_order_reversing_rename_falls_back(self):
        mgr = BddManager()
        x, y = mgr.new_var(), mgr.new_var()
        f = mgr.and_(x, mgr.not_(y))
        swapped = mgr.rename(f, {0: 1, 1: 0})
        assert swapped == mgr.and_(y, mgr.not_(x))
