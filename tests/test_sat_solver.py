"""Unit and property tests for the CDCL solver.

The CDCL engine is cross-checked against brute-force enumeration and the
reference DPLL solver on random formulas, and exercised on structured
instances (pigeonhole, parity chains) that stress conflict analysis.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SatError
from repro.sat import CNF, DpllSolver, Solver, SolveResult
from repro.sat.dpll import brute_force_models


def random_cnf(rng, max_vars=8, max_clauses=32):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    f = CNF(n)
    for _ in range(m):
        width = min(rng.randint(1, 3), n)
        variables = rng.sample(range(1, n + 1), width)
        f.add_clause(rng.choice([v, -v]) for v in variables)
    return f


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert Solver().solve() is SolveResult.SAT

    def test_unit_clause(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve() is SolveResult.SAT
        assert s.value(a)

    def test_contradicting_units(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        assert not s.add_clause([-a])
        assert s.solve() is SolveResult.UNSAT

    def test_tautology_ignored(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a, -a])
        assert s.solve() is SolveResult.SAT

    def test_duplicate_literals_collapse(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a, a, a])
        assert s.solve() is SolveResult.SAT
        assert s.value(a)

    def test_model_satisfies_formula(self):
        f = CNF()
        f.extend([[1, 2, 3], [-1, -2], [-2, -3], [2]])
        s = Solver(f)
        assert s.solve() is SolveResult.SAT
        assert f.evaluate(s.model)

    def test_value_out_of_range(self):
        s = Solver()
        s.new_var()
        s.add_clause([1])
        s.solve()
        with pytest.raises(SatError):
            s.value(7)

    def test_model_unavailable_after_unsat(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        s.add_clause([-a])
        s.solve()
        with pytest.raises(SatError):
            _ = s.model

    def test_lit_true_helper(self):
        s = Solver()
        a = s.new_var()
        s.add_clause([-a])
        assert s.solve() is SolveResult.SAT
        assert s.lit_true(-a)
        assert not s.lit_true(a)

    def test_solve_result_truthiness(self):
        assert bool(SolveResult.SAT)
        assert not bool(SolveResult.UNSAT)
        assert not bool(SolveResult.UNKNOWN)

    def test_add_clause_rejected_mid_search(self):
        # Clauses are only legal at level 0; the public API always returns
        # there, so this can only be triggered through private state.
        s = Solver()
        s.new_var()
        s._trail_lim.append(0)
        with pytest.raises(SatError):
            s.add_clause([1])
        s._trail_lim.clear()

    def test_stats_populated(self):
        f = CNF()
        f.extend([[1, 2], [-1, 2], [1, -2], [-1, -2, 3]])
        s = Solver(f)
        s.solve()
        stats = s.stats()
        assert stats["solve_calls"] == 1
        assert stats["vars"] == 3


class TestAssumptions:
    def make(self):
        s = Solver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, c])
        return s, a, b, c

    def test_sat_under_assumptions(self):
        s, a, b, c = self.make()
        assert s.solve([-b]) is SolveResult.SAT
        assert s.value(a) and s.value(c)

    def test_unsat_under_assumptions_db_untouched(self):
        s, a, b, c = self.make()
        assert s.solve([a, -c]) is SolveResult.UNSAT
        assert s.solve() is SolveResult.SAT

    def test_core_subset(self):
        s, a, b, c = self.make()
        s.solve([a, -c, b])
        core = set(s.core)
        assert core <= {a, -c, b}
        assert core  # non-empty

    def test_core_is_unsat_again(self):
        # Re-solving with just the core must still be UNSAT.
        s, a, b, c = self.make()
        s.solve([b, a, -c])
        core = list(s.core)
        assert s.solve(core) is SolveResult.UNSAT

    def test_assumption_on_fresh_var(self):
        s = Solver()
        assert s.solve([5]) is SolveResult.SAT
        assert s.value(5)

    def test_many_sequential_checks_share_learning(self):
        # The factorized-checks workflow from the paper: one database,
        # many assumption probes.
        s = Solver()
        variables = [s.new_var() for _ in range(6)]
        for x, y in zip(variables, variables[1:]):
            s.add_clause([-x, y])  # chain of implications
        for var in variables[1:]:
            assert s.solve([variables[0], -var]) is SolveResult.UNSAT
        assert s.solve([variables[0]]) is SolveResult.SAT
        assert all(s.value(v) for v in variables)


class TestStructuredInstances:
    def pigeonhole(self, holes):
        """PHP(holes+1, holes): UNSAT, classic resolution-hard family."""
        f = CNF()
        pigeons = holes + 1
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[p, h] = f.new_var()
        for p in range(pigeons):
            f.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    f.add_clause([-var[p1, h], -var[p2, h]])
        return f

    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        assert Solver(self.pigeonhole(holes)).solve() is SolveResult.UNSAT

    def test_parity_chain_sat(self):
        # x1 xor x2 xor ... xor xn = 1 encoded via chain variables.
        f = CNF()
        n = 10
        xs = f.new_vars(n)
        acc = xs[0]
        for x in xs[1:]:
            nxt = f.new_var()
            # nxt = acc xor x
            f.add_clause([-nxt, acc, x])
            f.add_clause([-nxt, -acc, -x])
            f.add_clause([nxt, -acc, x])
            f.add_clause([nxt, acc, -x])
            acc = nxt
        f.add_clause([acc])
        s = Solver(f)
        assert s.solve() is SolveResult.SAT
        assert sum(s.value(x) for x in xs) % 2 == 1

    def test_conflict_budget_unknown(self):
        f = self.pigeonhole(6)
        s = Solver(f)
        assert s.solve(conflict_budget=5) is SolveResult.UNKNOWN

    def test_budget_then_full_solve(self):
        f = self.pigeonhole(4)
        s = Solver(f)
        first = s.solve(conflict_budget=3)
        assert first in (SolveResult.UNKNOWN, SolveResult.UNSAT)
        assert s.solve() is SolveResult.UNSAT


class TestCoreAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_assumption_cores(self, seed):
        # UNSAT under assumptions: the core is a subset of them that no
        # model satisfies; SAT: there is no core.
        rng = random.Random(seed)
        for _ in range(40):
            f = random_cnf(rng, max_vars=8, max_clauses=8)
            models = brute_force_models(f)
            picked = rng.sample(
                range(1, f.num_vars + 1), rng.randint(1, f.num_vars)
            )
            assumptions = [rng.choice([v, -v]) for v in picked]
            s = Solver(f)
            result = s.solve(assumptions)

            def satisfied(lits, model):
                return all(model[abs(lit) - 1] == (lit > 0) for lit in lits)

            expected = any(satisfied(assumptions, m) for m in models)
            assert (result is SolveResult.SAT) == expected
            if expected:
                assert s.core is None
                continue
            core = s.core
            assert set(core) <= set(assumptions)
            assert not any(satisfied(core, m) for m in models)
            assert Solver(f).solve(list(core)) is SolveResult.UNSAT


class TestRandomAgainstOracles:
    def test_against_brute_force(self):
        rng = random.Random(42)
        for _ in range(150):
            f = random_cnf(rng)
            expected = bool(brute_force_models(f))
            s = Solver(f)
            result = s.solve()
            assert (result is SolveResult.SAT) == expected
            if expected:
                assert f.evaluate(s.model)

    def test_against_dpll(self):
        rng = random.Random(7)
        for _ in range(100):
            f = random_cnf(rng, max_vars=10, max_clauses=40)
            assert (Solver(f).solve() is SolveResult.SAT) == DpllSolver(f).solve()

    def test_incremental_equals_monolithic(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_cnf(rng, max_vars=7, max_clauses=25)
            s = Solver()
            verdicts = []
            for clause in f:
                s.add_clause(clause)
                verdicts.append(s.solve() is SolveResult.SAT)
            # Monotone: once UNSAT, stays UNSAT.
            if False in verdicts:
                first_false = verdicts.index(False)
                assert all(not v for v in verdicts[first_false:])
            # Final verdict matches a fresh solve.
            assert verdicts[-1] == (Solver(f).solve() is SolveResult.SAT)


@st.composite
def cnf_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    clause = st.lists(
        st.integers(min_value=1, max_value=n).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=3,
    )
    clauses = draw(st.lists(clause, max_size=15))
    f = CNF(n)
    for c in clauses:
        f.add_clause(c)
    return f


@settings(max_examples=60, deadline=None)
@given(cnf_strategy())
def test_cdcl_matches_brute_force_property(f):
    expected = bool(brute_force_models(f))
    s = Solver(f)
    assert (s.solve() is SolveResult.SAT) == expected
    if expected:
        assert f.evaluate(s.model)


@settings(max_examples=40, deadline=None)
@given(cnf_strategy(), st.lists(st.integers(min_value=1, max_value=6), max_size=3))
def test_assumptions_equal_added_units_property(f, assume_vars):
    assumptions = [v if v % 2 else -v for v in assume_vars]
    s = Solver(f)
    under_assumptions = s.solve(assumptions) is SolveResult.SAT
    g = f.copy()
    for lit in assumptions:
        g.add_clause([lit])
    monolithic = Solver(g).solve() is SolveResult.SAT
    assert under_assumptions == monolithic


class TestPhaseSaving:
    """Phase saving re-uses the polarity of the last unwound assignment
    on the next branch."""

    def test_saved_phases_steer_the_next_model(self):
        # One satisfiable clause over two free variables: the first
        # solve (under assumptions) assigns both true, and the free
        # re-solve re-finds that model instead of the solver's
        # false-first default.
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve(assumptions=[a, b]) is SolveResult.SAT
        assert s.solve() is SolveResult.SAT
        assert s.value(a) and s.value(b)


class TestRemovableClauses:
    """The activation-literal lifecycle behind PDR's lemma databases."""

    def test_clause_inactive_without_assumption(self):
        s = Solver()
        a = s.new_var()
        act = s.add_removable_clause([-a])
        s.add_clause([a])
        assert s.solve() is SolveResult.SAT          # clause dormant
        assert s.solve(assumptions=[act]) is SolveResult.UNSAT
        assert act in (s.core or ())

    def test_retire_disables_permanently(self):
        s = Solver()
        a = s.new_var()
        act = s.add_removable_clause([-a])
        s.add_clause([a])
        assert s.solve(assumptions=[act]) is SolveResult.UNSAT
        s.retire_clause(act)
        # The activation literal is pinned false now; the clause can
        # never constrain anything again.
        assert s.solve() is SolveResult.SAT
        assert s.value(a)

    def test_many_active_lemmas_compose(self):
        s = Solver()
        xs = [s.new_var() for _ in range(6)]
        acts = [s.add_removable_clause([-x]) for x in xs]
        s.add_clause(xs)                              # at least one true
        assert s.solve(assumptions=acts) is SolveResult.UNSAT
        # Retiring any one lemma opens exactly that variable.
        s.retire_clause(acts[3])
        live = acts[:3] + acts[4:]
        assert s.solve(assumptions=live) is SolveResult.SAT
        assert s.value(xs[3])

    def test_falsified_removable_clause_reports_its_activation(self):
        # A removable clause whose body is already dead at level 0 must
        # not fail at add time; assuming it yields UNSAT with the
        # activation literal in the core.
        s = Solver()
        a = s.new_var()
        s.add_clause([a])
        act = s.add_removable_clause([-a])
        assert s.solve(assumptions=[act]) is SolveResult.UNSAT
        assert s.core == (act,)
        assert s.solve() is SolveResult.SAT


def _database(solver):
    """Everything add_clause / add_and_gate may touch, as plain values."""
    state = {
        "vars": solver.num_vars,
        "ok": solver.ok,
        "values": bytes(solver._values),
        "trail": list(solver._trail),
        "clauses": [
            solver._clause_lits(ci) for ci in range(len(solver._csize))
        ],
        "learnt": list(solver._learnt_flags),
        "lbd": list(solver._lbd),
        "watches": [list(w) for w in solver._watches],
        "heap": list(solver._heap),
        "pos": list(solver._heap_pos),
    }
    if solver.proof is not None:
        proof = solver.proof
        state["proof"] = (list(proof.literals), list(proof.chains))
    return state


def _gate_by_clauses(solver, a, b):
    out = solver.new_var()
    solver.add_clause([-out, a])
    solver.add_clause([-out, b])
    solver.add_clause([out, -a, -b])
    return out


class TestAndGate:
    """``add_and_gate`` is three ``add_clause`` calls, only cheaper."""

    def _twins(self, build, gates, **kwargs):
        direct, reference = Solver(**kwargs), Solver(**kwargs)
        build(direct)
        build(reference)
        for a, b in gates:
            assert direct.add_and_gate(a, b) == _gate_by_clauses(
                reference, a, b
            )
            assert _database(direct) == _database(reference)
        return direct, reference

    def test_direct_path_matches_add_clause(self):
        rng = random.Random(5)
        for _ in range(20):
            inputs = rng.randint(2, 6)
            gates = []
            nvars = inputs
            for _ in range(rng.randint(1, 25)):
                va, vb = rng.sample(range(1, nvars + 1), 2)
                gates.append(
                    (va * rng.choice((1, -1)), vb * rng.choice((1, -1)))
                )
                nvars += 1
            direct, reference = self._twins(
                lambda s: [s.new_var() for _ in range(inputs)], gates
            )
            for assumptions in ([], [nvars], [-nvars, 1]):
                verdict = reference.solve(assumptions)
                assert direct.solve(assumptions) is verdict
                assert direct.stats() == reference.stats()
                assert _database(direct) == _database(reference)

    def test_same_variable_fanins(self):
        # a AND a collapses to a binary clause; a AND NOT a is FALSE.
        self._twins(lambda s: s.new_var(), [(1, 1), (1, -1), (-1, 2)])

    def test_fanin_fixed_by_learned_unit(self):
        def build(s):
            x, y, z = s.new_var(), s.new_var(), s.new_var()
            s.add_clause([x, y])
            s.add_clause([x, -y])
            # Branching on x = false conflicts, so the solver learns the
            # unit x and keeps it at level 0.
            assert s.solve() is SolveResult.SAT
            assert s.conflicts == 1 and s._values[x - 1] == 1
            assert s._levels[x - 1] == 0 and s._values[z - 1] == 2

        self._twins(build, [(1, 3), (-3, -1), (3, 2)])

    def test_proof_mode_logs_the_same_axioms(self):
        direct, _ = self._twins(
            lambda s: [s.new_var() for _ in range(3)],
            [(1, -2), (4, 3), (-5, 1)],
            proof=True,
        )
        assert len(direct.proof) == 9

    def test_unsat_solver(self):
        def build(s):
            a = s.new_var()
            s.add_clause([a])
            assert not s.add_clause([-a])

        direct, _ = self._twins(build, [(1, 1), (-1, 2)])
        assert not direct.ok
        assert direct.solve() is SolveResult.UNSAT

    def test_literal_zero_rejected(self):
        s = Solver()
        s.new_var()
        with pytest.raises(SatError):
            s.add_and_gate(1, 0)


def _check_heap(solver):
    heap, pos = solver._heap, solver._heap_pos
    activity = solver._activity
    assert len(pos) == solver.num_vars
    for i, var in enumerate(heap):
        assert pos[var] == i
        if i:
            assert activity[heap[(i - 1) >> 1]] >= activity[var]
    assert sum(1 for p in pos if p != -1) == len(heap)
    for var in range(solver.num_vars):
        if solver._values[var] == 2:
            assert pos[var] != -1, f"unassigned variable {var} not in heap"


class TestBranchingHeap:
    """The inlined heap keeps MiniSat's invariants through the search."""

    def _watched(self, solver):
        # Check the heap after every backtrack, mid-search included.
        cancel = solver._cancel_until

        def checked_cancel(level):
            cancel(level)
            _check_heap(solver)

        solver._cancel_until = checked_cancel
        return solver

    def test_random_solve_backtrack_sequences(self):
        rng = random.Random(17)
        answers = set()
        for _ in range(40):
            f = random_cnf(rng, max_vars=14, max_clauses=55)
            s = self._watched(Solver(f))
            _check_heap(s)
            for _ in range(6):
                count = rng.randint(0, min(3, f.num_vars))
                assume = rng.sample(range(1, f.num_vars + 1), count)
                assumptions = [v * rng.choice((1, -1)) for v in assume]
                budget = rng.choice((None, 2))
                answers.add(s.solve(assumptions, conflict_budget=budget))
                _check_heap(s)
                if rng.random() < 0.3 and f.num_vars > 1:
                    s.add_clause(
                        v * rng.choice((1, -1))
                        for v in rng.sample(range(1, f.num_vars + 1), 2)
                    )
                    _check_heap(s)
                if not s.ok:
                    break
        assert {SolveResult.SAT, SolveResult.UNSAT} <= answers

    def test_all_assigned_sat_answer_refills_the_heap(self):
        s = self._watched(Solver())
        xs = [s.new_var() for _ in range(8)]
        for x, y in zip(xs, xs[1:]):
            s.add_clause([-x, y])
        picked = []
        pick = s._pick_branch_var

        def recording_pick():
            var = pick()
            picked.append((var, len(s._trail), list(s._heap)))
            return var

        s._pick_branch_var = recording_pick
        assert s.solve([xs[0]]) is SolveResult.SAT
        # The assumption implies every variable: the one pick sees a full
        # trail and empties the heap without a search.
        assert picked == [(-1, 8, [])]
        assert all(s.value(x) for x in xs)
        assert sorted(s._heap) == list(range(8))
        _check_heap(s)
        assert s.solve([-xs[-1]]) is SolveResult.SAT
        _check_heap(s)
