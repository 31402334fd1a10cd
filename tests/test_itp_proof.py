"""Proof logging, the independent resolution checker, and interpolants.

The layering under test: the CDCL solver records resolution chains
(``proof=True``), :class:`ResolutionProof` replays them without trusting
the solver, and McMillan extraction turns a checked refutation into an
AIG interpolant that the DPLL oracle validates differentially.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.graph import Aig
from repro.aig.ops import support
from repro.errors import ProofError
from repro.itp.interpolant import extract_interpolant, verify_interpolant
from repro.itp.proof import ResolutionProof
from repro.sat import CNF, DpllSolver, Solver, SolveResult


def random_cnf(rng, max_vars=8, max_clauses=32):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    f = CNF(n)
    for _ in range(m):
        width = min(rng.randint(1, 3), n)
        variables = rng.sample(range(1, n + 1), width)
        f.add_clause(rng.choice([v, -v]) for v in variables)
    return f


class TestProofLogging:
    def test_no_proof_by_default(self):
        solver = Solver()
        assert solver.proof is None
        with pytest.raises(ProofError):
            ResolutionProof.from_solver(solver)

    def test_trivial_refutation(self):
        solver = Solver(proof=True)
        a = solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve() is SolveResult.UNSAT
        proof = ResolutionProof.from_solver(solver)
        proof.check_refutation()
        assert proof.literals[proof.root] == ()

    def test_learned_chain_refutation(self):
        # Needs genuine conflict analysis, not just level-0 propagation.
        solver = Solver(proof=True)
        a, b, c = (solver.new_var() for _ in range(3))
        for clause in ([a, b], [a, -b], [-a, c], [-a, -c]):
            solver.add_clause(clause)
        assert solver.solve() is SolveResult.UNSAT
        proof = ResolutionProof.from_solver(solver)
        assert proof.check_refutation() >= 1

    def test_axioms_record_original_clauses(self):
        solver = Solver(proof=True)
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a])
        proof = ResolutionProof.from_solver(solver)
        axioms = [set(proof.literals[i]) for i in proof.axiom_ids()]
        assert {a, b} in axioms
        assert {-a} in axioms

    def test_level0_simplified_clause_is_derived(self):
        # [-a] forces a=0, so [a, b] is attached as the derived unit [b]
        # with a chain resolving the original axiom against the unit.
        solver = Solver(proof=True)
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a])
        solver.add_clause([a, b])
        proof = ResolutionProof.from_solver(solver)
        derived = [
            i for i in range(len(proof)) if proof.chains[i]
        ]
        assert any(set(proof.literals[i]) == {b} for i in derived)
        proof.check()

    def test_tautologies_are_skipped(self):
        solver = Solver(proof=True)
        a = solver.new_var()
        solver.add_clause([a, -a])
        proof = ResolutionProof.from_solver(solver)
        assert all(set(lits) != {a, -a} for lits in proof.literals)

    def test_assumption_core_clause_logged(self):
        solver = Solver(proof=True)
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([-a, b])
        solver.add_clause([-b, -c])
        assert solver.solve([a, c]) is SolveResult.UNSAT
        proof = ResolutionProof.from_solver(solver)
        proof.check()
        assert proof.final is not None
        assert set(proof.literals[proof.final]) == {
            -lit for lit in solver.core
        }
        # The database itself stays satisfiable: no refutation root.
        assert proof.root is None
        assert solver.solve() is SolveResult.SAT

    def test_complementary_assumptions_have_no_final_clause(self):
        # The one underivable final clause: assuming both a and NOT a
        # makes the "core clause" a tautology.
        solver = Solver(proof=True)
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve([a, -a]) is SolveResult.UNSAT
        proof = ResolutionProof.from_solver(solver)
        proof.check()
        assert proof.final is None
        assert set(solver.core) == {a, -a}

    def test_proof_grows_across_incremental_calls(self):
        rng = random.Random(3)
        solver = Solver(proof=True)
        reference = CNF()
        for _ in range(4):
            extra = random_cnf(rng, max_vars=6, max_clauses=10)
            for clause in extra:
                reference.add_clause(clause)
                solver.add_clause(clause)
            outcome = solver.solve()
            assert (outcome is SolveResult.SAT) == DpllSolver(
                reference
            ).solve()
            proof = ResolutionProof.from_solver(solver)
            proof.check()
            if outcome is SolveResult.UNSAT:
                proof.check_refutation()
                break

    def test_malformed_chain_rejected(self):
        proof = ResolutionProof(
            literals=((1, 2), (-1,), (1,)),
            chains=((), (), (0, 1)),
            root=None,
        )
        with pytest.raises(ProofError, match="replays to"):
            proof.check()

    def test_forward_reference_rejected(self):
        proof = ResolutionProof(
            literals=((1,), (2,)),
            chains=((), (1,)),
        )
        with pytest.raises(ProofError, match="precede"):
            proof.replay(1)

    def test_no_single_pivot_rejected(self):
        proof = ResolutionProof(
            literals=((1, 2), (-1, -2), ()),
            chains=((), (), (0, 1)),
            root=2,
        )
        with pytest.raises(ProofError, match="complementary"):
            proof.check_refutation()


class TestSolverCore:
    """Regression: the assumption unsat core is public API now."""

    def test_core_none_after_sat(self):
        solver = Solver(proof=False)
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.solve() is SolveResult.SAT
        assert solver.core is None

    def test_core_subset_refutes_alone(self):
        rng = random.Random(11)
        checked = 0
        while checked < 25:
            formula = random_cnf(rng, max_vars=8, max_clauses=20)
            solver = Solver(formula)
            if solver.solve() is not SolveResult.SAT:
                continue
            assumptions = [
                rng.choice([v, -v])
                for v in rng.sample(
                    range(1, formula.num_vars + 1),
                    min(formula.num_vars, 4),
                )
            ]
            if solver.solve(assumptions) is not SolveResult.UNSAT:
                continue
            core = solver.core
            assert core is not None
            assert set(core) <= set(assumptions)
            assert solver.solve(list(core)) is SolveResult.UNSAT
            checked += 1

    def test_core_empty_when_database_unsat(self):
        solver = Solver()
        a = solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve([a]) is SolveResult.UNSAT
        assert solver.core == ()

    def test_core_names_both_clashing_assumptions(self):
        solver = Solver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, -b])
        assert solver.solve([a, b]) is SolveResult.UNSAT
        assert set(solver.core) == {a, b}


class TestProofOverhead:
    """The satellite guard: proof=False must not pay for proof logging."""

    def _pigeonhole(self, holes):
        formula = CNF()
        pigeons, variables = holes + 1, {}
        for p in range(pigeons):
            for h in range(holes):
                variables[p, h] = formula.new_var()
        for p in range(pigeons):
            formula.add_clause(variables[p, h] for h in range(holes))
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    formula.add_clause(
                        [-variables[p1, h], -variables[p2, h]]
                    )
        return formula

    def test_disabled_logging_allocates_nothing(self):
        solver = Solver(self._pigeonhole(4))
        assert solver.solve() is SolveResult.UNSAT
        assert solver.proof is None
        assert solver._proof_clause_ids == []
        assert solver._proof_units == {}

    def test_search_identical_with_and_without_proof(self):
        # Logging must observe the search, never steer it: decision,
        # conflict, propagation and restart counts all match exactly.
        formula = self._pigeonhole(5)
        plain, logged = Solver(formula), Solver(formula, proof=True)
        assert plain.solve() is SolveResult.UNSAT
        assert logged.solve() is SolveResult.UNSAT
        plain_stats, logged_stats = plain.stats(), logged.stats()
        for key in ("conflicts", "decisions", "propagations", "restarts",
                    "learned_clauses", "db_reductions"):
            assert plain_stats[key] == logged_stats[key], key
        ResolutionProof.from_solver(logged).check_refutation()

    def test_disabled_is_not_slower_than_enabled(self):
        # A timing canary, deliberately generous: if the disabled path
        # ever does logging work, it converges toward the enabled time
        # and the structural assertions above catch the rest.
        formula = self._pigeonhole(6)

        def best_of(proof, repeats=3):
            times = []
            for _ in range(repeats):
                solver = Solver(formula, proof=proof)
                start = time.perf_counter()
                assert solver.solve() is SolveResult.UNSAT
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_of(False) <= best_of(True) * 1.5


# ---------------------------------------------------------------------- #
# Interpolants over random (A, B) partitions
# ---------------------------------------------------------------------- #


@st.composite
def ab_partition(draw):
    """A clause list plus a split point, biased toward unsatisfiable."""
    num_vars = draw(st.integers(min_value=2, max_value=6))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literal, min_size=1, max_size=3)
    clauses_a = draw(st.lists(clause, min_size=2, max_size=12))
    clauses_b = draw(st.lists(clause, min_size=2, max_size=12))
    return num_vars, clauses_a, clauses_b


@settings(max_examples=120, deadline=None)
@given(ab_partition())
def test_random_partition_proof_and_interpolant(partition):
    num_vars, clauses_a, clauses_b = partition
    solver = Solver(proof=True)
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses_a:
        solver.add_clause(clause)
    split = len(solver.proof)
    for clause in clauses_b:
        solver.add_clause(clause)
    if solver.solve() is not SolveResult.UNSAT:
        return
    proof = ResolutionProof.from_solver(solver)
    # The checker accepts every logged proof...
    proof.check_refutation()
    # ...and the interpolant passes the DPLL differential check.
    aig = Aig()
    var_edge = {
        v: aig.add_input(f"v{v}") for v in range(1, num_vars + 1)
    }
    interpolant = extract_interpolant(proof, split, aig, var_edge)
    cnf_a, cnf_b = proof.partition(split)
    cnf_a.num_vars = cnf_b.num_vars = num_vars
    assert verify_interpolant(aig, interpolant, cnf_a, cnf_b, var_edge)
    # McMillan guarantees the support stays within the shared variables.
    a_vars = {abs(l) for c in clauses_a for l in c}
    b_vars = {abs(l) for c in clauses_b for l in c}
    shared_nodes = {
        var_edge[v] >> 1 for v in a_vars & b_vars
    }
    assert support(aig, interpolant) <= shared_nodes


def test_interpolant_requires_refutation():
    solver = Solver(proof=True)
    a = solver.new_var()
    solver.add_clause([a])
    assert solver.solve() is SolveResult.SAT
    proof = ResolutionProof.from_solver(solver)
    with pytest.raises(ProofError, match="root"):
        extract_interpolant(proof, 1, Aig(), {})


def test_missing_shared_mapping_rejected():
    solver = Solver(proof=True)
    a = solver.new_var()
    solver.add_clause([a])
    solver.add_clause([-a])
    assert solver.solve() is SolveResult.UNSAT
    proof = ResolutionProof.from_solver(solver)
    with pytest.raises(ProofError, match="no AIG edge"):
        extract_interpolant(proof, 1, Aig(), {})
