"""The ``itp`` engine: interpolation-based unbounded model checking.

Three layers of confidence: cross-engine agreement with the BDD
traversal and BMC on the tier-1 circuit families, a proof-checker smoke
asserting every UNSAT solve of the engine replayed its refutation, and
the acceptance case — a 64-bit counter proved without BDDs.
"""

import pytest

from repro.api import Session, VerificationTask, engine_names, get_engine
from repro.circuits import generators as G
from repro.itp import ItpOptions
from repro.mc import verify
from repro.mc.result import Status


SAFE_FAMILIES = {
    "mod_counter": lambda: G.mod_counter(4, 12),
    "ring_counter": lambda: G.ring_counter(5),
    "gray_counter": lambda: G.gray_counter(4),
    "fifo_level": lambda: G.fifo_level(3),
    "up_down": lambda: G.up_down_counter(4),
    "one_hot_fsm": lambda: G.one_hot_fsm(5),
    "arbiter": lambda: G.arbiter(4),
}

BUGGY_FAMILIES = {
    "mod_counter": lambda: G.mod_counter(4, 12, safe=False),
    "ring_counter": lambda: G.ring_counter(5, safe=False),
    "fifo_level": lambda: G.fifo_level(3, safe=False),
    "one_hot_fsm": lambda: G.one_hot_fsm(5, safe=False),
    "bug_at_depth": lambda: G.bug_at_depth(6),
}


@pytest.fixture
def checked_interpolants(monkeypatch):
    """Check every interpolant the engine extracts against its (A, B)
    partition with the DPLL oracle; the list holds one entry per check."""
    import repro.itp.engine as itp_engine
    from repro.itp.interpolant import verify_interpolant

    extract = itp_engine.extract_interpolant
    checked = []

    def extract_and_check(proof, split, aig, var_edge):
        interpolant = extract(proof, split, aig, var_edge)
        cnf_a, cnf_b = proof.partition(split)
        # The check's fresh Tseitin variables must not reuse a shared
        # variable that no axiom mentions.
        width = max(cnf_a.num_vars, cnf_b.num_vars, max(var_edge, default=0))
        cnf_a.num_vars = cnf_b.num_vars = width
        assert verify_interpolant(aig, interpolant, cnf_a, cnf_b, var_edge)
        checked.append(interpolant)
        return interpolant

    monkeypatch.setattr(itp_engine, "extract_interpolant", extract_and_check)
    return checked


def run_itp(netlist, max_depth=32, **overrides):
    options = ItpOptions(max_depth=max_depth, **overrides)
    return verify(netlist, method="itp", options=options)


class TestVerdicts:
    @pytest.mark.parametrize("family", list(SAFE_FAMILIES))
    def test_agrees_with_reach_bdd_on_safe(self, family):
        netlist = SAFE_FAMILIES[family]()
        reference = verify(netlist.clone()[0], method="reach_bdd")
        assert reference.status is Status.PROVED
        result = run_itp(netlist)
        assert result.status is Status.PROVED, family
        assert result.engine == "itp"

    @pytest.mark.parametrize("family", list(BUGGY_FAMILIES))
    def test_agrees_with_bmc_on_buggy(self, family):
        netlist = BUGGY_FAMILIES[family]()
        reference = verify(netlist.clone()[0], method="bmc", max_depth=32)
        assert reference.status is Status.FAILED
        result = run_itp(netlist)
        assert result.status is Status.FAILED, family
        # Same minimal counterexample depth as BMC's breadth-first search
        # is not guaranteed (itp deepens geometrically), but the trace
        # must replay — EngineSpec.verify validated it already, so just
        # confirm it is present and ends in a violation.
        assert result.trace is not None
        assert result.trace.validate(netlist)

    def test_trace_depth_matches_bmc_on_exact_depth_bug(self):
        netlist = G.bug_at_depth(8)
        result = run_itp(netlist)
        assert result.status is Status.FAILED
        assert result.trace.depth == 8

    def test_unknown_when_depth_budget_too_small(self):
        # The bug sits at depth 9; a depth-2 budget must not mislabel.
        result = run_itp(G.bug_at_depth(9), max_depth=2)
        assert result.status is Status.UNKNOWN

    def test_depth0_violation(self):
        from repro.aig.graph import FALSE

        netlist = G.mod_counter(3, 7, safe=False)
        netlist.set_property(FALSE)  # every state is bad
        result = run_itp(netlist)
        assert result.status is Status.FAILED
        assert result.trace.depth == 0

    def test_dead_end_counterexample_under_constraints(self):
        # Regression: a violation whose bad state has no
        # constraint-satisfying successor.  Constraints asserted as unit
        # clauses on every unrolled frame would make the depth-3 path
        # unextendable (count==4 breaks the constraint) and the engine
        # would wrongly prove; the per-frame violation selectors keep
        # the suffix unconstrained.
        from repro.aig.graph import TRUE, edge_not
        from repro.circuits.generators import (
            _equals_constant, _incrementer,
        )
        from repro.circuits.netlist import Netlist

        netlist = Netlist("dead_end")
        bits = netlist.add_latches(3, prefix="c")
        for bit, nxt in zip(bits, _incrementer(netlist, bits, TRUE)):
            netlist.set_next(bit, nxt)
        netlist.add_constraint(
            edge_not(_equals_constant(netlist, bits, 4))
        )
        netlist.set_property(
            edge_not(_equals_constant(netlist, bits, 3))
        )
        netlist.validate()
        reference = verify(netlist.clone()[0], method="reach_bdd")
        assert reference.status is Status.FAILED
        result = run_itp(netlist)
        assert result.status is Status.FAILED
        assert result.trace.depth == 3

    def test_constraints_honored(self):
        # The canonical constraint scenario from test_constraints: the
        # buggy arbiter is safe under "at most one request per cycle".
        from test_constraints import constrained_buggy_arbiter

        result = run_itp(constrained_buggy_arbiter(3))
        assert result.status is Status.PROVED
        unconstrained = run_itp(G.arbiter(3, safe=False))
        assert unconstrained.status is Status.FAILED


class TestProofDiscipline:
    def test_proof_checker_smoke(self):
        # Every UNSAT solve of the reachability loop replays its proof
        # through the independent checker: all iterations check one
        # refutation each, except the spurious (SAT) restarts.
        for build in SAFE_FAMILIES.values():
            result = run_itp(build())
            assert result.status is Status.PROVED
            expected = result.iterations - result.stats.get(
                "spurious_hits", 0.0
            )
            assert result.stats.get("proofs_checked") == expected

    def test_interpolants_survive_differential_check(
        self, checked_interpolants
    ):
        result = run_itp(G.mod_counter(3, 6))
        assert result.status is Status.PROVED
        # One interpolant per checked refutation, each one checked.
        assert len(checked_interpolants) >= 1
        assert len(checked_interpolants) == result.stats.get(
            "proofs_checked"
        )

    def test_differential_check_on_random_circuits(
        self, checked_interpolants
    ):
        # Regression: the Tseitin constant variable's pin axiom lives in
        # whichever partition created it first; the differential check
        # must evaluate both sides under the pin or it rejects sound
        # interpolants (seed 7, among others, shared the constant var
        # across the split and crashed before the fix).
        from test_cross_engine_random import random_netlist

        for seed in (7, 13, 17, 30):
            netlist = random_netlist(seed)
            before = len(checked_interpolants)
            result = run_itp(netlist, max_depth=16)
            assert len(checked_interpolants) - before == (
                result.stats.get("proofs_checked", 0.0)
            ), seed
            reference = verify(
                netlist.clone()[0], method="reach_bdd", max_depth=64
            )
            if result.status.is_conclusive:
                assert result.status is reference.status, seed

    def test_spurious_hits_force_deepening(self):
        result = run_itp(G.bug_at_depth(6))
        assert result.status is Status.FAILED
        # Reaching depth 6 from the initial k=1 requires spurious
        # restarts (or direct deepening); the engine must record them.
        assert result.stats.get("itp_depth") >= 6

    def test_deep_counter_proved_without_bdds(self):
        # Acceptance: a >= 64-bit counter proved by interpolation alone;
        # the final UNSAT call's resolution proof passed the independent
        # checker (the engine checks every refutation).
        result = run_itp(G.mod_counter(64))
        assert result.status is Status.PROVED
        expected = result.iterations - result.stats.get(
            "spurious_hits", 0.0
        )
        assert result.stats.get("proofs_checked") == expected
        assert result.stats.get("proofs_checked") >= 1


class TestIntegration:
    def test_engine_registered_with_capabilities(self):
        assert "itp" in engine_names()
        spec = get_engine("itp")
        assert spec.complete
        assert spec.produces_trace
        assert spec.supports_constraints
        assert not spec.composite
        assert spec.options_class is ItpOptions
        assert spec.depth_field == "max_depth"

    def test_in_default_portfolio_candidates(self):
        from repro.portfolio.policy import default_engines, select_plan

        assert "itp" in default_engines()
        plan = select_plan(G.mod_counter(3, 6), policy="predict")
        assert "itp" in plan.methods

    def test_verify_front_door(self):
        result = verify(G.mod_counter(3, 6), method="itp", max_depth=16)
        assert result.proved

    def test_session_runs_itp_task(self):
        session = Session()
        result = session.run(
            VerificationTask(
                G.mod_counter(3, 6), engine="itp", max_depth=16
            )
        )
        assert result.proved
        assert result.engine == "itp"

    def test_stats_surface_the_loop(self):
        result = run_itp(G.mod_counter(4, 12))
        for key in ("sat_calls", "itp_depth", "proof_nodes",
                    "interpolant_nodes"):
            assert key in result.stats, key
