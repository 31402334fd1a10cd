"""Tests for the ROBDD manager: canonicity, algebra, quantification."""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BDD_FALSE, BDD_TRUE, BddManager
from repro.errors import BddError, BddLimitExceeded


def exhaustive(manager, node, num_vars):
    """Truth table of a BDD as a set of satisfying tuples."""
    rows = set()
    for values in itertools.product([False, True], repeat=num_vars):
        if manager.evaluate(node, dict(enumerate(values))):
            rows.add(values)
    return rows


class TestBasics:
    def test_terminals(self):
        mgr = BddManager()
        assert not mgr.evaluate(BDD_FALSE, {})
        assert mgr.evaluate(BDD_TRUE, {})

    def test_variable_node(self):
        mgr = BddManager()
        x = mgr.new_var("x")
        assert mgr.evaluate(x, {0: True})
        assert not mgr.evaluate(x, {0: False})

    def test_var_node_lookup(self):
        mgr = BddManager()
        x = mgr.new_var()
        assert mgr.var_node(0) == x
        with pytest.raises(BddError):
            mgr.var_node(5)

    def test_var_of_terminal_rejected(self):
        mgr = BddManager()
        with pytest.raises(BddError):
            mgr.var_of(BDD_TRUE)

    def test_canonicity(self):
        # Same function built two ways yields the same node id.
        mgr = BddManager()
        x, y = mgr.new_var(), mgr.new_var()
        via_and = mgr.and_(x, y)
        via_ite = mgr.ite(x, y, BDD_FALSE)
        de_morgan = mgr.not_(mgr.or_(mgr.not_(x), mgr.not_(y)))
        assert via_and == via_ite == de_morgan

    def test_double_negation(self):
        mgr = BddManager()
        x = mgr.new_var()
        assert mgr.not_(mgr.not_(x)) == x


class TestAlgebra:
    def setup_method(self):
        self.mgr = BddManager()
        self.x = self.mgr.new_var()
        self.y = self.mgr.new_var()
        self.z = self.mgr.new_var()

    def check(self, node, reference):
        for values in itertools.product([False, True], repeat=3):
            got = self.mgr.evaluate(node, dict(enumerate(values)))
            assert got == reference(*values)

    def test_and(self):
        self.check(self.mgr.and_(self.x, self.y), lambda x, y, z: x and y)

    def test_or(self):
        self.check(self.mgr.or_(self.x, self.z), lambda x, y, z: x or z)

    def test_xor(self):
        self.check(self.mgr.xor(self.x, self.y), lambda x, y, z: x != y)

    def test_xnor(self):
        self.check(self.mgr.xnor(self.x, self.y), lambda x, y, z: x == y)

    def test_implies(self):
        self.check(
            self.mgr.implies(self.x, self.y), lambda x, y, z: (not x) or y
        )

    def test_ite(self):
        self.check(
            self.mgr.ite(self.x, self.y, self.z),
            lambda x, y, z: y if x else z,
        )

    def test_and_all_short_circuit(self):
        assert self.mgr.and_all([self.x, BDD_FALSE, self.y]) == BDD_FALSE

    def test_or_all_short_circuit(self):
        assert self.mgr.or_all([self.x, BDD_TRUE]) == BDD_TRUE


class TestQuantificationAndCompose:
    def setup_method(self):
        self.mgr = BddManager()
        self.x = self.mgr.new_var()
        self.y = self.mgr.new_var()
        self.z = self.mgr.new_var()

    def test_exists(self):
        f = self.mgr.and_(self.x, self.y)
        assert self.mgr.exists(f, [1]) == self.x

    def test_exists_multiple(self):
        f = self.mgr.and_(self.mgr.and_(self.x, self.y), self.z)
        assert self.mgr.exists(f, [0, 2]) == self.y

    def test_exists_unsat_stays_false(self):
        assert self.mgr.exists(BDD_FALSE, [0, 1]) == BDD_FALSE

    def test_forall(self):
        f = self.mgr.or_(self.x, self.y)
        # forall y . x OR y  ==  x
        assert self.mgr.forall(f, [1]) == self.x

    def test_exists_forall_duality(self):
        f = self.mgr.ite(self.x, self.y, self.mgr.not_(self.z))
        lhs = self.mgr.forall(f, [0])
        rhs = self.mgr.not_(self.mgr.exists(self.mgr.not_(f), [0]))
        assert lhs == rhs

    def test_restrict(self):
        f = self.mgr.ite(self.x, self.y, self.z)
        assert self.mgr.restrict(f, 0, True) == self.y
        assert self.mgr.restrict(f, 0, False) == self.z

    def test_compose_substitutes_function(self):
        f = self.mgr.and_(self.x, self.y)
        g = self.mgr.compose(f, {0: self.mgr.or_(self.y, self.z)})
        expected = exhaustive(
            self.mgr, self.mgr.and_(self.mgr.or_(self.y, self.z), self.y), 3
        )
        assert exhaustive(self.mgr, g, 3) == expected

    def test_compose_is_simultaneous(self):
        f = self.mgr.and_(self.x, self.mgr.not_(self.y))
        swapped = self.mgr.compose(f, {0: self.y, 1: self.x})
        expected = exhaustive(
            self.mgr, self.mgr.and_(self.y, self.mgr.not_(self.x)), 3
        )
        assert exhaustive(self.mgr, swapped, 3) == expected

    def test_rename(self):
        f = self.mgr.and_(self.x, self.y)
        renamed = self.mgr.rename(f, {0: 2})
        expected = exhaustive(self.mgr, self.mgr.and_(self.z, self.y), 3)
        assert exhaustive(self.mgr, renamed, 3) == expected


class TestCountsAndCubes:
    def test_sat_count(self):
        mgr = BddManager()
        x, y, z = mgr.new_var(), mgr.new_var(), mgr.new_var()
        f = mgr.or_(mgr.and_(x, y), mgr.and_(mgr.not_(x), z))
        expected = sum(
            1
            for vals in itertools.product([False, True], repeat=3)
            if (vals[0] and vals[1]) or ((not vals[0]) and vals[2])
        )
        assert mgr.sat_count(f, 3) == expected

    def test_sat_count_terminals(self):
        mgr = BddManager()
        mgr.new_var(), mgr.new_var()
        assert mgr.sat_count(BDD_TRUE, 2) == 4
        assert mgr.sat_count(BDD_FALSE, 2) == 0

    def test_sat_count_variable(self):
        mgr = BddManager()
        x = mgr.new_var()
        mgr.new_var()
        mgr.new_var()
        assert mgr.sat_count(x, 3) == 4

    def test_pick_cube_satisfies(self):
        mgr = BddManager()
        x, y = mgr.new_var(), mgr.new_var()
        f = mgr.xor(x, y)
        cube = mgr.pick_cube(f)
        assert cube is not None
        assert mgr.evaluate(f, cube)

    def test_pick_cube_of_false(self):
        assert BddManager().pick_cube(BDD_FALSE) is None

    def test_cube_builder(self):
        mgr = BddManager()
        mgr.new_var(), mgr.new_var(), mgr.new_var()
        cube = mgr.cube({0: True, 2: False})
        assert mgr.evaluate(cube, {0: True, 1: False, 2: False})
        assert not mgr.evaluate(cube, {0: True, 1: False, 2: True})

    def test_support(self):
        mgr = BddManager()
        x, y, z = mgr.new_var(), mgr.new_var(), mgr.new_var()
        f = mgr.and_(x, z)
        assert mgr.support(f) == {0, 2}

    def test_size(self):
        mgr = BddManager()
        x, y = mgr.new_var(), mgr.new_var()
        f = mgr.and_(x, y)
        assert mgr.size(f) == 2
        assert mgr.size(BDD_TRUE) == 0


class TestNodeLimit:
    def test_limit_enforced(self):
        mgr = BddManager(max_nodes=8)
        variables = []
        with pytest.raises(BddLimitExceeded):
            for _ in range(10):
                variables.append(mgr.new_var())
                if len(variables) >= 2:
                    mgr.xor(variables[-1], variables[-2])

    def test_no_limit_by_default(self):
        mgr = BddManager()
        acc = BDD_FALSE
        for _ in range(10):
            acc = mgr.xor(acc, mgr.new_var())
        assert mgr.num_nodes > 10


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["and", "or", "xor", "not"]),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_bdd_matches_python_semantics_property(ops):
    """Random op DAGs over 3 variables match direct Python evaluation."""
    mgr = BddManager()
    xs = [mgr.new_var() for _ in range(3)]
    pool = list(xs)
    fns = [lambda v, i=i: v[i] for i in range(3)]
    for op, i, j in ops:
        a = pool[i % len(pool)]
        fa = fns[i % len(fns)]
        b = pool[j % len(pool)]
        fb = fns[j % len(fns)]
        if op == "and":
            pool.append(mgr.and_(a, b))
            fns.append(lambda v, fa=fa, fb=fb: fa(v) and fb(v))
        elif op == "or":
            pool.append(mgr.or_(a, b))
            fns.append(lambda v, fa=fa, fb=fb: fa(v) or fb(v))
        elif op == "xor":
            pool.append(mgr.xor(a, b))
            fns.append(lambda v, fa=fa, fb=fb: fa(v) != fb(v))
        else:
            pool.append(mgr.not_(a))
            fns.append(lambda v, fa=fa: not fa(v))
    root, fn = pool[-1], fns[-1]
    for values in itertools.product([False, True], repeat=3):
        assert mgr.evaluate(root, dict(enumerate(values))) == fn(values)


def test_walks_leave_no_cycle_holding_the_manager():
    # A traversal makes thousands of these calls per run; a cycle through
    # each walk's closure would keep every finished manager in memory
    # until the cyclic collector ran.
    gc.disable()
    try:
        mgr = BddManager()
        x, y, z = (mgr.new_var(name) for name in "xyz")
        f = mgr.or_(mgr.and_(x, y), z)
        mgr.restrict(f, 0, True)
        mgr.compose(f, {0: z})
        mgr.rename(f, {0: 1, 1: 2, 2: 0})     # not order-preserving
        mgr.rename(mgr.and_(x, y), {0: 1, 1: 2})  # relabeled in one pass
        # The same paths with a memo kept across calls with one map.
        mgr.new_var("w")
        memo: dict[int, int] = {}
        mgr.rename(mgr.and_(x, y), {0: 1, 1: 2}, memo)   # relabeled
        mgr.rename(mgr.and_(y, z), {0: 1, 1: 2}, memo)   # relabeled
        mgr.rename(f, {2: 3}, {})       # falls back, relabels over support
        mgr.rename(f, {1: 0}, {})       # falls back, composes
        mgr.sat_count(f)
        freed = weakref.ref(mgr)
        del mgr
        assert freed() is None
    finally:
        gc.enable()
