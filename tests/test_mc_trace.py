"""Counterexample walks: simulation first, SAT only on a miss.

Every step of a walk is a simulated witness of ``target(delta(s, i)) AND
C(s, i)`` when one of its 64 seeded patterns hits, and a SAT query with
the state pinned by assumptions otherwise.  The tests force each path: an input-free design
never reaches SAT, and a design whose counter advances only on one
20-bit input vector never hits by simulation.
"""

import pytest

import repro.mc.reach_aig as reach_aig
from repro.aig.graph import FALSE, TRUE, edge_not
from repro.aig.ops import and_all, xor
from repro.circuits import generators as G
from repro.circuits.netlist import Netlist
from repro.errors import ModelCheckingError
from repro.mc.bmc import bmc
from repro.mc.induction import k_induction
from repro.mc.reach_aig import BackwardReachability
from repro.mc.result import Status
from repro.mc.trace import concretize_suffix, find_violation_inputs
from repro.sat.solver import Solver

KEY = 0x5A3C9


def _key_match(netlist: Netlist, keys: list[int]) -> int:
    """Edge that is 1 iff the input vector ``keys`` spells ``KEY``."""
    return and_all(
        netlist.aig,
        [key if KEY >> k & 1 else edge_not(key) for k, key in enumerate(keys)],
    )


def keyed_counter() -> Netlist:
    """A 2-bit counter that advances only when 20 inputs spell ``KEY``.

    The property ``counter != 3`` fails exactly 3 steps deep, and a
    random pattern hits the key with probability 2**-20.
    """
    netlist = Netlist("keyed_counter")
    low, high = netlist.add_latches(2, prefix="c")
    match = _key_match(netlist, netlist.add_inputs(20, prefix="k"))
    aig = netlist.aig
    netlist.set_next(low, xor(aig, low, match))
    netlist.set_next(high, xor(aig, high, aig.and_(low, match)))
    netlist.set_property(edge_not(aig.and_(low, high)))
    netlist.validate()
    return netlist


class TestForcedFallback:
    def test_reach_aig_solves_every_step(self):
        result = BackwardReachability(keyed_counter()).run()
        assert result.status is Status.FAILED
        assert result.trace.depth == 3
        assert result.trace.validate(keyed_counter())
        assert result.stats.get("trace_sat_steps") == 3
        assert result.stats.get("trace_sim_steps") == 0

    @pytest.mark.parametrize("folds", range(4))
    def test_bmc_fold_walk_solves_every_folded_step(self, folds):
        result = bmc(keyed_counter(), max_depth=6, preimage_folds=folds)
        assert result.status is Status.FAILED
        assert result.trace.depth == 3
        assert result.trace.validate(keyed_counter())
        assert result.stats.get("trace_sat_steps") == folds
        assert result.stats.get("trace_sim_steps") == 0
        # An unfolded run has no walk, so it reports no walk counts.
        assert ("trace_sat_steps" in result.stats) == (folds > 0)

    def test_k_induction_fold_walk(self):
        result = k_induction(keyed_counter(), max_k=6, preimage_folds=3)
        assert result.status is Status.FAILED
        assert result.trace.depth == 3
        assert result.trace.validate(keyed_counter())
        assert result.stats.get("trace_sat_steps") == 3

    def test_unsatisfiable_step_is_an_engine_bug(self):
        netlist = G.bug_at_depth(3)
        with pytest.raises(ModelCheckingError, match="engine bug"):
            concretize_suffix(
                netlist, netlist.init_assignment(), [FALSE, TRUE]
            )


class TestSimulationOnly:
    def test_input_free_walk_never_solves(self, monkeypatch):
        calls = {"inside": False, "solves": 0}
        solve = Solver.solve
        walk = reach_aig.concretize_suffix

        def counting_solve(self, *args, **kwargs):
            calls["solves"] += calls["inside"]
            return solve(self, *args, **kwargs)

        def marked_walk(*args, **kwargs):
            calls["inside"] = True
            try:
                return walk(*args, **kwargs)
            finally:
                calls["inside"] = False

        monkeypatch.setattr(Solver, "solve", counting_solve)
        monkeypatch.setattr(reach_aig, "concretize_suffix", marked_walk)
        result = BackwardReachability(G.bug_at_depth(12)).run()
        assert result.status is Status.FAILED
        assert result.trace.depth == 12
        assert calls["solves"] == 0
        assert result.stats.get("trace_sim_steps") == 12
        assert result.stats.get("trace_sat_steps") == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: G.bug_at_depth(30),
            lambda: G.mod_counter(5, 30, safe=False),
            lambda: G.mod_counter(5, 20, safe=False, with_enable=True),
        ],
    )
    def test_simulated_successors_match_simulate_step(self, monkeypatch, build):
        walks = []
        walk = reach_aig.concretize_suffix

        def recorded_walk(netlist, state, *args, **kwargs):
            suffix = walk(netlist, state, *args, **kwargs)
            walks.append((netlist, state, suffix))
            return suffix

        monkeypatch.setattr(reach_aig, "concretize_suffix", recorded_walk)
        result = BackwardReachability(build()).run()
        assert result.status is Status.FAILED
        assert result.stats.get("trace_sat_steps") == 0
        [(netlist, state, (states, inputs))] = walks
        for before, step_inputs, after in zip(
            [state] + states, inputs, states
        ):
            assert after == netlist.simulate_step(before, step_inputs)


class TestDeterminism:
    def test_traces_repeat_exactly(self):
        runs = [
            BackwardReachability(
                G.mod_counter(5, 20, safe=False, with_enable=True)
            ).run()
            for _ in range(2)
        ]
        assert runs[0].trace.inputs == runs[1].trace.inputs
        for key in ("trace_sim_steps", "trace_sat_steps"):
            assert runs[0].stats.get(key) == runs[1].stats.get(key)
        assert runs[0].stats.get("trace_sim_steps") == 19


class TestViolationInputs:
    def _keyed_property(self) -> Netlist:
        """The property fails only when the inputs spell ``KEY``."""
        netlist = Netlist("keyed_property")
        latch = netlist.add_latch("l")
        netlist.set_next(latch, latch)
        match = _key_match(netlist, netlist.add_inputs(20, prefix="k"))
        netlist.set_property(edge_not(netlist.aig.and_(latch, match)))
        netlist.validate()
        return netlist

    def test_simulation_answers_an_input_free_violation(self):
        netlist = G.bug_at_depth(3)
        state = netlist.run_trace([{}] * 3)[-1]
        assert find_violation_inputs(netlist, state) == {}

    def test_sat_finds_the_key(self, monkeypatch):
        netlist = self._keyed_property()
        [latch] = netlist.latch_nodes
        solves = []
        solve = Solver.solve

        def counting_solve(self, *args, **kwargs):
            solves.append(args)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(Solver, "solve", counting_solve)
        inputs = find_violation_inputs(netlist, {latch: True})
        assert not netlist.property_holds({latch: True}, inputs)
        assert len(solves) == 1

    def test_no_violation_is_none(self):
        netlist = self._keyed_property()
        [latch] = netlist.latch_nodes
        assert find_violation_inputs(netlist, {latch: False}) is None
