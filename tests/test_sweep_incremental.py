"""Incremental sweeping state: signature table, sweep solver, reported stats.

The signature table grows with the manager instead of re-simulating every
cone it has seen, and the shared sweep solver is recycled once it outgrows
the cone of the operation at hand.  These tests pin the contracts that make
both safe: signatures always equal a from-scratch simulation, keys hold
still while the table is frozen, no sweeping solve runs on an oversized
solver, and a result's ``sat_checks`` counts each sweeper solve once.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.quantify as quantify
from repro.aig.simulate import simulate_nodes, word_mask
from repro.circuits import generators as G
from repro.core.optimize import optimize_disjunction
from repro.mc import verify
from repro.mc.result import Status
from repro.sat.solver import Solver
from repro.sweep.satsweep import SatSweeper
from repro.sweep.signatures import SignatureTable
from tests.conftest import build_random_aig

_OPS = (
    "and", "input", "refresh", "signature", "pattern", "freeze", "thaw",
    "patterns",
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    ops=st.lists(
        st.tuples(st.sampled_from(_OPS), st.integers(0, 2**32)),
        max_size=30,
    ),
)
def test_incremental_table_matches_from_scratch_simulation(seed, ops):
    aig, inputs, root = build_random_aig(3, 6, seed=seed)
    edges = list(inputs) + [root]
    table = SignatureTable(aig, [root], words=1, seed=seed)
    told = [root]      # edges whose cones the table has been told about
    frozen_keys: dict[int, tuple[bool, int]] | None = None
    for op, pick in ops:
        rng = random.Random(pick)
        if op == "and":
            edges.append(
                aig.and_(
                    rng.choice(edges) ^ rng.randint(0, 1),
                    rng.choice(edges) ^ rng.randint(0, 1),
                )
            )
        elif op == "input":
            edges.append(aig.add_input())
        elif op == "refresh":
            roots = rng.sample(edges, min(len(edges), rng.randint(1, 3)))
            table.refresh_roots(roots)
            told.extend(roots)
        elif op == "signature":
            edge = rng.choice(edges)
            table.node_signature(edge >> 1)
            told.append(edge)
        elif op == "pattern":
            # Patterns may mention inputs the table has not seen yet; a
            # batch of 64 fills a word, which flushes unless frozen.
            for _ in range(rng.choice((1, 7, 64, 70))):
                table.add_pattern(
                    {node: rng.random() < 0.5 for node in aig.inputs}
                )
        elif op == "freeze":
            table.freeze()
            frozen_keys = {
                node: table.signature_key(node)
                for node in aig.cone(told)
            }
        elif op == "thaw":
            table.thaw()
            frozen_keys = None
        else:
            roots = rng.sample(edges, min(len(edges), 2))
            patterns, width = table.patterns(roots)
            told.extend(roots)
            assert width >= table.words
        # The table's own input words at its committed width.
        patterns, _ = table.patterns([])
        mask = word_mask(table.words)
        committed = {node: value & mask for node, value in patterns.items()}
        expected = simulate_nodes(aig, committed, told, table.words)
        for node in aig.cone(told):
            assert table.node_signature(node) == expected[node], (op, node)
        if frozen_keys is not None:
            for node, key in frozen_keys.items():
                assert table.signature_key(node) == key, (op, node)


def _count_sweeper_solves(monkeypatch) -> list[int]:
    """Patch the sweeper checks; returns a one-item list counting solves."""
    solves = [0]
    inside = [0]
    for name in ("check_equal", "check_constant"):
        check = getattr(SatSweeper, name)

        def wrapped(self, *args, _check=check, **kwargs):
            inside[0] += 1
            try:
                return _check(self, *args, **kwargs)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(SatSweeper, name, wrapped)
    solve = Solver.solve

    def counted(self, *args, **kwargs):
        if inside[0]:
            solves[0] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", counted)
    return solves


@pytest.mark.parametrize(
    "build, method",
    [
        (lambda: G.fifo_level(4), "reach_aig_fwd"),
        (lambda: G.one_hot_fsm(10, safe=False), "reach_aig"),
    ],
)
def test_result_counts_each_sweeper_solve_once(monkeypatch, build, method):
    solves = _count_sweeper_solves(monkeypatch)
    result = verify(build(), method=method)
    assert solves[0] > 0
    assert result.stats.get("sat_checks") == solves[0]
    assert result.stats.get("merge_sat_checks") <= solves[0]


def test_sweep_solver_stays_right_sized(monkeypatch):
    # (sweeper, live cone size) of each open top-level operation.
    operations: list[tuple[SatSweeper, int]] = []

    def operation(fn, sweeper_and_roots):
        def wrapped(*args, **kwargs):
            sweeper, roots = sweeper_and_roots(*args, **kwargs)
            operations.append((sweeper, len(sweeper.aig.cone(roots))))
            try:
                return fn(*args, **kwargs)
            finally:
                operations.pop()

        return wrapped

    monkeypatch.setattr(
        SatSweeper,
        "merge_pair_backward",
        operation(
            SatSweeper.merge_pair_backward,
            lambda self, a, b: (self, [a, b]),
        ),
    )
    monkeypatch.setattr(
        SatSweeper,
        "sweep",
        operation(SatSweeper.sweep, lambda self, roots: (self, roots)),
    )
    monkeypatch.setattr(
        quantify,
        "optimize_disjunction",
        operation(
            optimize_disjunction,
            lambda aig, f0, f1, sweeper: (sweeper, [f0, f1]),
        ),
    )
    selectors: dict[Solver, int] = {}
    check_equal = SatSweeper.check_equal
    in_check_equal = [False]

    def counting_check_equal(self, a, b):
        in_check_equal[0] = True
        try:
            return check_equal(self, a, b)
        finally:
            in_check_equal[0] = False

    monkeypatch.setattr(SatSweeper, "check_equal", counting_check_equal)
    solve = Solver.solve
    held: list[tuple[int, int, int]] = []

    def measured(self, *args, **kwargs):
        if operations and self is operations[-1][0].mapper.solver:
            if in_check_equal[0]:  # each equality check adds a selector
                selectors[self] = selectors.get(self, 0) + 1
            held.append(
                (self.num_vars, operations[-1][1], selectors.get(self, 0))
            )
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", measured)
    result = verify(G.fifo_level(4), method="reach_aig_fwd")
    # The same search as with a never-recycled solver.
    assert result.status is Status.PROVED
    assert result.iterations == 15
    # Frontiers are ``image ∧ ¬previous image``, without the reached
    # cone, over images re-encoded through the run's BDD table.
    assert result.stats.get("peak_frontier_size") == 12
    assert held
    for num_vars, live, selector_vars in held:
        # Encoded nodes, plus the constant and the selector variables.
        assert num_vars <= 2 * live + 1 + selector_vars
