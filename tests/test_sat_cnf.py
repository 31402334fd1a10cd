"""Unit tests for the CNF container."""

import pytest

from repro.errors import SatError
from repro.sat import CNF


class TestConstruction:
    def test_empty(self):
        f = CNF()
        assert f.num_vars == 0
        assert f.num_clauses == 0
        assert len(f) == 0

    def test_new_var_sequential(self):
        f = CNF()
        assert f.new_var() == 1
        assert f.new_var() == 2
        assert f.num_vars == 2

    def test_new_vars_bulk(self):
        f = CNF()
        assert f.new_vars(3) == [1, 2, 3]

    def test_new_vars_negative_rejected(self):
        with pytest.raises(SatError):
            CNF().new_vars(-1)

    def test_negative_num_vars_rejected(self):
        with pytest.raises(SatError):
            CNF(-1)

    def test_add_clause_grows_vars(self):
        f = CNF()
        f.add_clause([3, -5])
        assert f.num_vars == 5

    def test_zero_literal_rejected(self):
        with pytest.raises(SatError):
            CNF().add_clause([1, 0])

    def test_extend(self):
        f = CNF()
        f.extend([[1, 2], [-1]])
        assert f.num_clauses == 2

    def test_copy_is_independent(self):
        f = CNF()
        f.add_clause([1])
        g = f.copy()
        g.add_clause([2])
        assert f.num_clauses == 1
        assert g.num_clauses == 2

    def test_iteration_yields_tuples(self):
        f = CNF()
        f.add_clause([1, -2])
        assert list(f) == [(1, -2)]


class TestEvaluate:
    def test_satisfied(self):
        f = CNF(2)
        f.add_clause([1, 2])
        assert f.evaluate([True, False])

    def test_falsified(self):
        f = CNF(2)
        f.add_clause([1, 2])
        assert not f.evaluate([False, False])

    def test_empty_formula_is_true(self):
        assert CNF(1).evaluate([False])

    def test_short_assignment_rejected(self):
        f = CNF(3)
        f.add_clause([3])
        with pytest.raises(SatError):
            f.evaluate([True])

    def test_negative_literal_semantics(self):
        f = CNF(1)
        f.add_clause([-1])
        assert f.evaluate([False])
        assert not f.evaluate([True])
