"""Cross-engine agreement on random sequential circuits.

The strongest soundness check in the suite: generate small random
netlists with random invariants, run every complete engine, and require
identical verdicts — plus matching shortest-counterexample depths for the
breadth-first engines and BMC.  A brute-force explicit-state model
checker over the (tiny) state space serves as the ground truth.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.simulate import eval_edge
from repro.api import engines_with
from repro.circuits import generators as G
from repro.circuits.netlist import Netlist
from repro.mc.bmc import bmc
from repro.mc.engine import verify
from repro.mc.result import Status


def random_netlist(
    seed: int, num_latches: int = 3, num_inputs: int = 2, num_gates: int = 10
) -> Netlist:
    """A random sequential circuit with a random latch-only invariant."""
    rng = random.Random(seed)
    netlist = Netlist(f"random_{seed}")
    inputs = [netlist.add_input(f"i{k}") for k in range(num_inputs)]
    latches = [
        netlist.add_latch(f"l{k}", init=bool(rng.randint(0, 1)))
        for k in range(num_latches)
    ]
    aig = netlist.aig
    pool = inputs + latches
    for _ in range(num_gates):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))
    for latch in latches:
        netlist.set_next(latch, rng.choice(pool) ^ rng.randint(0, 1))
    # Property over latches only, biased away from trivially-false.
    candidates = latches + pool[len(inputs) + len(latches):]
    prop = rng.choice(candidates) ^ rng.randint(0, 1)
    netlist.set_property(prop)
    netlist.validate()
    return netlist


def explicit_state_check(netlist: Netlist) -> tuple[bool, int | None]:
    """Ground truth by explicit BFS over the full state space.

    Returns ``(safe, shortest_violation_depth)``.  Only usable for tiny
    designs (2**latches * 2**inputs evaluations per level).
    """
    latch_nodes = netlist.latch_nodes
    input_nodes = netlist.input_nodes
    num_inputs = len(input_nodes)

    def violates(state: dict[int, bool]) -> bool:
        for bits in range(1 << num_inputs):
            assignment = dict(state)
            for k, node in enumerate(input_nodes):
                assignment[node] = bool((bits >> k) & 1)
            if not eval_edge(netlist.aig, netlist.property_edge, assignment):
                return True
        return False

    def key(state: dict[int, bool]) -> int:
        return sum(int(state[n]) << k for k, n in enumerate(latch_nodes))

    frontier = [netlist.init_assignment()]
    seen = {key(frontier[0])}
    depth = 0
    while frontier:
        for state in frontier:
            if violates(state):
                return False, depth
        next_frontier = []
        for state in frontier:
            for bits in range(1 << num_inputs):
                step_inputs = {
                    node: bool((bits >> k) & 1)
                    for k, node in enumerate(input_nodes)
                }
                successor = netlist.simulate_step(state, step_inputs)
                marker = key(successor)
                if marker not in seen:
                    seen.add(marker)
                    next_frontier.append(successor)
        frontier = next_frontier
        depth += 1
    return True, None


COMPLETE_ENGINES = [
    spec.name for spec in engines_with(complete=True, composite=False)
]

# PDR's counterexample follows its proof-obligation chain, not a
# breadth-first or depth-by-depth search, so it need not be shortest.
# Every other complete engine returns a shortest counterexample.
NOT_SHORTEST = {"pdr"}


class TestCrossEngine:
    def test_oracle_covers_every_complete_engine(self):
        assert {
            "reach_aig", "reach_aig_allsat", "reach_aig_hybrid",
            "reach_aig_fwd", "reach_bdd", "reach_bdd_fwd",
            "k_induction", "itp", "pdr",
        } <= set(COMPLETE_ENGINES)

    @pytest.mark.parametrize("seed", range(20))
    def test_all_engines_match_explicit_state_truth(self, seed):
        netlist = random_netlist(seed)
        safe, depth = explicit_state_check(netlist)
        for engine in COMPLETE_ENGINES:
            result = verify(random_netlist(seed), method=engine)
            expected = Status.PROVED if safe else Status.FAILED
            assert result.status is expected, (engine, seed)
            if not safe:
                # Every complete engine must produce a replayable
                # counterexample, and all but NOT_SHORTEST a shortest one.
                assert result.trace is not None, (engine, seed)
                if engine not in NOT_SHORTEST:
                    assert result.trace.depth == depth, (engine, seed)
                assert result.trace.validate(random_netlist(seed))

    @pytest.mark.parametrize("seed", range(20))
    def test_bmc_agrees_on_buggy_designs(self, seed):
        netlist = random_netlist(seed)
        safe, depth = explicit_state_check(netlist)
        result = verify(random_netlist(seed), method="bmc", max_depth=20)
        if safe:
            # BMC is incomplete: it may only report UNKNOWN on safe designs.
            assert result.status in (Status.UNKNOWN, Status.PROVED)
        else:
            assert result.status is Status.FAILED
            assert result.trace.depth == depth
            assert result.trace.validate(random_netlist(seed)), seed

    @pytest.mark.parametrize("seed", range(20))
    def test_folded_bmc_traces_replay(self, seed):
        # Two pre-image folds: the last steps of every trace come from
        # the counterexample walk, not from the unrolling.
        safe, depth = explicit_state_check(random_netlist(seed))
        result = bmc(random_netlist(seed), max_depth=20, preimage_folds=2)
        if not safe:
            assert result.status is Status.FAILED
            assert result.trace.depth == depth
            assert result.trace.validate(random_netlist(seed)), seed

    @pytest.mark.parametrize("seed", range(10))
    def test_induction_is_sound(self, seed):
        netlist = random_netlist(100 + seed)
        safe, _ = explicit_state_check(netlist)
        result = verify(random_netlist(100 + seed), method="k_induction",
                        max_depth=8)
        if result.status is Status.PROVED:
            assert safe, f"induction proved an unsafe design (seed {seed})"
        if result.status is Status.FAILED:
            assert not safe
            assert result.trace.validate(random_netlist(100 + seed)), seed

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1000, max_value=99_999))
    def test_property_backward_forward_agree(self, seed):
        backward = verify(random_netlist(seed), method="reach_aig")
        forward = verify(random_netlist(seed), method="reach_aig_fwd")
        assert backward.status == forward.status
        if backward.status is Status.FAILED:
            assert backward.trace.depth == forward.trace.depth
            # Models come from one solver per traversal epoch: latches
            # outside a query's cone take that solver's values.
            for result in (backward, forward):
                assert result.trace.validate(random_netlist(seed)), seed


# Each AIG traversal against the BDD engine of its direction.  The BDD
# engines keep exact frontiers and share no traversal code, so a frontier
# rule that changed the search would show here.
SEARCH_ORACLES = {
    "reach_aig": "reach_bdd",
    "reach_aig_allsat": "reach_bdd",
    "reach_aig_hybrid": "reach_bdd",
    "reach_aig_fwd": "reach_bdd_fwd",
}

SEARCH_DESIGNS = {
    "bug12": lambda: G.bug_at_depth(12),
    "mod_counter_en": lambda: G.mod_counter(
        4, 12, safe=False, with_enable=True
    ),
    "johnson8": lambda: G.johnson_counter(8),
    "one_hot6": lambda: G.one_hot_fsm(6, safe=False),
}


def assert_search_matches_bdd(build) -> None:
    """Same status, iterations and trace depth as the BDD reference."""

    def search(engine: str) -> tuple:
        result = verify(build(), method=engine)
        depth = result.trace.depth if result.trace else None
        return result.status, result.iterations, depth

    references = {engine: search(engine) for engine in
                  set(SEARCH_ORACLES.values())}
    for engine, oracle in SEARCH_ORACLES.items():
        assert search(engine) == references[oracle], (engine, oracle)


class TestSearchOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_search_matches_bdd(self, seed):
        assert_search_matches_bdd(
            lambda: random_netlist(seed, num_latches=6, num_gates=18)
        )

    @pytest.mark.parametrize("name", SEARCH_DESIGNS)
    def test_generator_search_matches_bdd(self, name):
        assert_search_matches_bdd(SEARCH_DESIGNS[name])
