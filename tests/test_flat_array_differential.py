"""Differential pins for the flat-array hot-loop kernels.

The array-backed CDCL propagation loop, the int-keyed BDD node table and
the levelized simulation plans are pure re-layouts: they must reproduce
the reference trajectories *bit for bit*, not merely the same verdicts.
These tests pin that contract three ways:

* **Self-differential determinism** (hypothesis): two independently
  constructed instances replaying the same random workload must agree on
  every scalar counter, every ProofLog node and every unique-table entry
  — any hidden iteration-order or id-assignment dependence shows up as a
  counter drift here.
* **Golden trajectory pins**: seeded workloads with their conflict /
  propagation / restart counts and BDD node / cache-hit counts recorded
  in-tree.  A future "optimisation" that silently re-rolls the search
  (different clause visit order, different cache keying) fails these
  even if it stays correct.
* **Plan-vs-direct equivalence** (hypothesis): the levelized cone-plan
  evaluator against a naive per-node dict walk on random AIGs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.graph import Aig
from repro.aig.ops import support, support_many
from repro.aig.simulate import cone_plan, simulate, simulate_nodes
from repro.bdd.manager import BddManager
from repro.sat.cnf import CNF
from repro.sat.solver import Solver, SolveResult


def _random_cnf(rng, max_vars=8, max_clauses=40):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    f = CNF(n)
    for _ in range(m):
        width = min(rng.randint(1, 3), n)
        variables = rng.sample(range(1, n + 1), width)
        f.add_clause(rng.choice([v, -v]) for v in variables)
    return f


def _solver_fingerprint(solver):
    fp = {
        "conflicts": solver.conflicts,
        "decisions": solver.decisions,
        "propagations": solver.propagations,
        "restarts": solver.restarts,
        "learned_clauses": solver.learned_clauses,
    }
    proof = solver.proof
    if proof is not None:
        fp["proof_literals"] = tuple(proof.literals)
        fp["proof_chains"] = tuple(proof.chains)
        fp["proof_root"] = proof.root
        fp["proof_final"] = proof.final
    return fp


@st.composite
def _cnf_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    clause = st.lists(
        st.integers(min_value=1, max_value=n).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=3,
    )
    clauses = draw(st.lists(clause, max_size=25))
    f = CNF(n)
    for c in clauses:
        f.add_clause(c)
    return f


class TestSolverDifferential:
    @settings(max_examples=60, deadline=None)
    @given(_cnf_strategy())
    def test_two_array_solvers_share_one_trajectory(self, f):
        """Fresh solvers on the same CNF: identical counters and proofs.

        The arena layout (clause base offsets, watch-vector order) is a
        function of ``add_clause`` order alone, so two builds of the
        same formula must propagate, conflict, restart and log the exact
        same resolution steps.
        """
        a = Solver(f, proof=True)
        b = Solver(f, proof=True)
        ra = a.solve()
        rb = b.solve()
        assert ra is rb
        assert _solver_fingerprint(a) == _solver_fingerprint(b)

    @settings(max_examples=30, deadline=None)
    @given(
        _cnf_strategy(),
        st.lists(st.integers(min_value=1, max_value=7), max_size=3),
    )
    def test_assumption_cores_are_deterministic(self, f, assume_vars):
        assumptions = [v if v % 2 else -v for v in assume_vars]
        a = Solver(f, proof=True)
        b = Solver(f, proof=True)
        ra = a.solve(assumptions)
        rb = b.solve(assumptions)
        assert ra is rb
        if ra is SolveResult.UNSAT:
            assert a.core == b.core
        assert _solver_fingerprint(a) == _solver_fingerprint(b)

    def test_golden_trajectory_counts(self):
        """Seeded workloads pinned to their recorded trajectories.

        These numbers were recorded from the flat-array solver; any
        change to clause arena order, watch scanning order or conflict
        analysis that re-rolls the search shows up here immediately.
        Update the goldens only for a *deliberate* trajectory change.
        """
        golden = []
        rng = random.Random(2026)
        for _ in range(6):
            # Phase-transition 3-SAT (m ~= 4.3 n): hard enough to force
            # real conflict analysis, restarts and clause learning.
            n = 30
            f = CNF(n)
            for _ in range(129):
                variables = rng.sample(range(1, n + 1), 3)
                f.add_clause(rng.choice([v, -v]) for v in variables)
            s = Solver(f, proof=True)
            verdict = s.solve()
            proof_len = len(s.proof) if s.proof is not None else 0
            golden.append(
                (
                    verdict is SolveResult.SAT,
                    s.conflicts,
                    s.propagations,
                    s.restarts,
                    s.learned_clauses,
                    proof_len,
                )
            )
        assert golden == [
            (False, 19, 186, 0, 15, 162),
            (True, 3, 51, 0, 3, 132),
            (True, 13, 130, 0, 12, 142),
            (True, 16, 190, 0, 16, 145),
            (False, 20, 178, 0, 16, 154),
            (True, 18, 199, 0, 18, 147),
        ]


def _replay_bdd_ops(ops):
    """Apply a random op sequence to a fresh manager; return manager
    and the pool of produced nodes."""
    mgr = BddManager()
    xs = [mgr.new_var() for _ in range(4)]
    pool = list(xs)
    for op, i, j in ops:
        a = pool[i % len(pool)]
        b = pool[j % len(pool)]
        if op == "and":
            pool.append(mgr.and_(a, b))
        elif op == "or":
            pool.append(mgr.or_(a, b))
        elif op == "xor":
            pool.append(mgr.xor(a, b))
        elif op == "not":
            pool.append(mgr.not_(a))
        elif op == "ite":
            pool.append(mgr.ite(a, b, pool[(i + j) % len(pool)]))
        elif op == "exists":
            pool.append(mgr.exists(a, [j % 4]))
        else:
            pool.append(mgr.and_exists(a, b, [i % 4]))
    return mgr, pool


_BDD_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["and", "or", "xor", "not", "ite", "exists", "and_exists"]
        ),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=20,
)


class TestBddDifferential:
    @settings(max_examples=50, deadline=None)
    @given(ops=_BDD_OPS)
    def test_two_managers_share_one_table(self, ops):
        """Same op sequence, two managers: identical node ids, node
        counts and per-operation cache hit/miss/entry/reset stats.

        The packed-int unique-table and cache keys must be a pure
        function of the op sequence — any dependence on dict iteration
        order or id recycling would desynchronise the two replays.
        """
        mgr_a, pool_a = _replay_bdd_ops(ops)
        mgr_b, pool_b = _replay_bdd_ops(ops)
        assert pool_a == pool_b
        assert mgr_a.num_nodes == mgr_b.num_nodes
        assert mgr_a.cache_stats() == mgr_b.cache_stats()
        assert mgr_a.cache_summary() == mgr_b.cache_summary()

    def test_golden_node_and_cache_counts(self):
        """Seeded apply/quantify sequence pinned to its recorded table.

        Node count pins the unique-table trajectory (reduction rules,
        allocation order); cache hits/misses pin the memoisation keys.
        Update only for a deliberate kernel change.
        """
        rng = random.Random(7)
        ops = [
            (
                rng.choice(
                    ["and", "or", "xor", "not", "ite", "exists",
                     "and_exists"]
                ),
                rng.randrange(10),
                rng.randrange(10),
            )
            for _ in range(40)
        ]
        mgr, _pool = _replay_bdd_ops(ops)
        summary = mgr.cache_summary()
        assert mgr.num_nodes == 32
        assert summary["cache_hits"] == 13
        assert summary["cache_misses"] == 34
        assert summary["cache_entries"] == 40


def _random_aig(rng, n_inputs=5, n_ands=25):
    aig = Aig()
    input_edges = [aig.add_input() for _ in range(n_inputs)]
    inputs = [edge >> 1 for edge in input_edges]
    edges = list(input_edges) + [0]
    for _ in range(n_ands):
        f0 = rng.choice(edges) ^ rng.randint(0, 1)
        f1 = rng.choice(edges) ^ rng.randint(0, 1)
        edges.append(aig.and_(f0, f1))
    return aig, inputs, edges


def _naive_simulate(aig, input_words, targets, words):
    """Reference per-node dict walk (the pre-plan implementation)."""
    ones = (1 << (64 * words)) - 1
    values = {0: 0}
    for node in aig.cone(targets):
        if aig.is_input(node):
            values[node] = input_words.get(node, 0)
            continue
        f0, f1 = aig.fanins(node)
        a = values[f0 >> 1]
        if f0 & 1:
            a = a ^ ones
        b = values[f1 >> 1]
        if f1 & 1:
            b = b ^ ones
        values[node] = a & b
    out = {}
    for edge in targets:
        v = values.get(edge >> 1, 0)
        out[edge] = v ^ ones if edge & 1 else v
    return out


class TestSimulationDifferential:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           words=st.integers(min_value=1, max_value=3))
    def test_plan_matches_naive_walk(self, seed, words):
        rng = random.Random(seed)
        aig, inputs, edges = _random_aig(rng)
        patterns = {node: rng.getrandbits(64 * words) for node in inputs}
        targets = rng.sample(edges, min(4, len(edges)))
        got = simulate(aig, patterns, targets, words)
        want = _naive_simulate(aig, patterns, targets, words)
        assert got == want

    def test_simulate_nodes_covers_whole_cone(self):
        rng = random.Random(3)
        aig, inputs, edges = _random_aig(rng)
        target = edges[-1]
        patterns = {node: rng.getrandbits(64) for node in inputs}
        by_node = simulate_nodes(aig, patterns, [target], 1)
        plan = cone_plan(aig, (target,))
        assert set(by_node) == set(plan.pos)
        assert by_node[0] == 0

    def test_support_matches_cone_walk(self):
        rng = random.Random(9)
        aig, _inputs, edges = _random_aig(rng)
        for edge in rng.sample(edges, 8):
            direct = {
                node for node in aig.cone([edge]) if aig.is_input(node)
            }
            assert support(aig, edge) == direct
        sample = rng.sample(edges, 5)
        direct_many = {
            node for node in aig.cone(sample) if aig.is_input(node)
        }
        assert support_many(aig, sample) == direct_many

    def test_plans_are_cached_and_bounded(self):
        rng = random.Random(1)
        aig, inputs, edges = _random_aig(rng)
        target = edges[-1]
        plan_a = cone_plan(aig, (target,))
        plan_b = cone_plan(aig, (target,))
        assert plan_a is plan_b
        # The complement edge shares the cone, hence the plan.
        assert cone_plan(aig, (target ^ 1,)) is plan_a
