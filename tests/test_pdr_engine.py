"""The ``pdr`` engine: IC3/property-directed reachability.

Confidence comes in four layers: cross-engine agreement with the BDD
traversal, interpolation and BMC on the tier-1 circuit families; a
hypothesis property test asserting every PROVED result ships an
invariant certificate that is initial, inductive and bad-excluding when
re-checked on a fresh solver; unit tests of the frame trace, solver
pool and generalization machinery; and the acceptance cases — the
64/96/128-bit counter family and a constraint-carrying family proved
with certified invariants, replay-valid traces on every FAILED family.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session, VerificationTask, engine_names, get_engine
from repro.circuits import generators as G
from repro.errors import CertificateError
from repro.mc import verify
from repro.mc.result import InvariantCertificate, Status, VerificationResult
from repro.pdr import PdrOptions, check_certificate
from repro.pdr.frames import (
    FrameTrace,
    cube_excludes_init,
    state_to_cube,
)
from repro.sat.solver import SolveResult, Solver
from test_cross_engine_random import random_netlist


SAFE_FAMILIES = {
    "mod_counter": lambda: G.mod_counter(4, 12),
    "ring_counter": lambda: G.ring_counter(5),
    "gray_counter": lambda: G.gray_counter(4),
    "fifo_level": lambda: G.fifo_level(3),
    "up_down": lambda: G.up_down_counter(4),
    "one_hot_fsm": lambda: G.one_hot_fsm(5),
    "arbiter": lambda: G.arbiter(4),
    "johnson": lambda: G.johnson_counter(5),
    "traffic_light": lambda: G.traffic_light(),
    "lfsr": lambda: G.lfsr(5),
}

BUGGY_FAMILIES = {
    "mod_counter": lambda: G.mod_counter(4, 12, safe=False),
    "ring_counter": lambda: G.ring_counter(5, safe=False),
    "fifo_level": lambda: G.fifo_level(3, safe=False),
    "one_hot_fsm": lambda: G.one_hot_fsm(5, safe=False),
    "up_down": lambda: G.up_down_counter(4, safe=False),
    "bug_at_depth": lambda: G.bug_at_depth(6),
}


def run_pdr(netlist, max_frames=40, **overrides):
    options = PdrOptions(max_frames=max_frames, **overrides)
    return verify(netlist, method="pdr", options=options)


def assert_certified(netlist, result):
    """The PROVED contract: a certificate that re-checks independently."""
    assert result.proved
    assert result.certificate is not None
    check_certificate(netlist, result.certificate)


class TestVerdicts:
    @pytest.mark.parametrize("family", list(SAFE_FAMILIES))
    def test_agrees_with_reach_bdd_and_itp_on_safe(self, family):
        netlist = SAFE_FAMILIES[family]()
        assert verify(netlist.clone()[0], method="reach_bdd").proved
        assert verify(netlist.clone()[0], method="itp", max_depth=32).proved
        result = run_pdr(netlist)
        assert result.status is Status.PROVED, family
        assert result.engine == "pdr"
        assert_certified(netlist, result)

    @pytest.mark.parametrize("family", list(BUGGY_FAMILIES))
    def test_agrees_with_bmc_on_buggy(self, family):
        netlist = BUGGY_FAMILIES[family]()
        reference = verify(netlist.clone()[0], method="bmc", max_depth=32)
        assert reference.status is Status.FAILED
        result = run_pdr(netlist)
        assert result.status is Status.FAILED, family
        assert result.certificate is None
        # EngineSpec.verify replay-validated the trace already; confirm
        # it is present, replays, and is no shorter than BMC's shortest.
        assert result.trace is not None
        assert result.trace.validate(netlist)
        assert result.trace.depth >= reference.trace.depth

    def test_exact_depth_bug_found_at_its_depth(self):
        result = run_pdr(G.bug_at_depth(8))
        assert result.status is Status.FAILED
        assert result.trace.depth == 8

    def test_unknown_when_frame_budget_too_small(self):
        # The bug sits at depth 9; a 3-frame trace must not mislabel.
        result = run_pdr(G.bug_at_depth(9), max_frames=3)
        assert result.status is Status.UNKNOWN
        assert result.certificate is None

    def test_depth0_violation(self):
        from repro.aig.graph import FALSE

        netlist = G.mod_counter(3, 7, safe=False)
        netlist.set_property(FALSE)  # every state is bad
        result = run_pdr(netlist)
        assert result.status is Status.FAILED
        assert result.trace.depth == 0

    def test_obligation_budget_yields_unknown(self, monkeypatch):
        import repro.pdr.engine as pdr_engine

        monkeypatch.setattr(pdr_engine, "MAX_OBLIGATIONS", 1)
        result = run_pdr(G.mod_counter(4, 12, safe=False))
        assert result.status is Status.UNKNOWN
        assert result.stats.get("pdr_obligation_limit") == 1.0

    def test_dead_end_counterexample_under_constraints(self):
        # A violation whose bad state has no constraint-satisfying
        # successor: constraints asserted on the successor frame of the
        # consecution query would excise the depth-3 path; PDR only
        # constrains the source frame.
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
        result = run_pdr(netlist)
        assert result.status is Status.FAILED
        assert result.trace.depth == 3

    def test_constraints_honored(self):
        # The canonical constraint scenario: the buggy arbiter is safe
        # under "at most one request per cycle" — a constraint-carrying
        # family PROVED with a certified invariant.
        from test_constraints import constrained_buggy_arbiter

        netlist = constrained_buggy_arbiter(3)
        result = run_pdr(netlist)
        assert_certified(netlist, result)
        unconstrained = run_pdr(G.arbiter(3, safe=False))
        assert unconstrained.status is Status.FAILED

    def test_constrained_sequential_family_proved(self):
        # Constraints that matter *sequentially*: a free-running counter
        # whose increment input is forbidden past the threshold, so the
        # overflow region stays unreachable only because of the
        # constraint.  The certificate must close under the constrained
        # transition relation.
        from repro.aig.graph import edge_not
        from repro.circuits.generators import _equals_constant
        from repro.circuits.netlist import Netlist
        from repro.circuits.generators import _incrementer

        netlist = Netlist("gated_counter")
        enable = netlist.add_input("en")
        bits = netlist.add_latches(3, prefix="c")
        for bit, nxt in zip(bits, _incrementer(netlist, bits, enable)):
            netlist.set_next(bit, nxt)
        at_cap = _equals_constant(netlist, bits, 5)
        netlist.add_constraint(
            edge_not(netlist.aig.and_(at_cap, enable))
        )
        netlist.set_property(
            edge_not(_equals_constant(netlist, bits, 6))
        )
        netlist.validate()
        assert verify(netlist.clone()[0], method="reach_bdd").proved
        result = run_pdr(netlist)
        assert_certified(netlist, result)
        assert result.certificate.num_clauses >= 1


class TestCertificates:
    def test_every_safe_family_ships_a_checked_certificate(self):
        for family, build in SAFE_FAMILIES.items():
            netlist = build()
            result = run_pdr(netlist)
            assert result.proved, family
            assert result.stats.get("certificates_checked") == 1, family
            # Re-check on this side of the API boundary too.
            check_certificate(netlist, result.certificate)

    def test_tampered_certificate_rejected(self):
        netlist = G.ring_counter(5)
        result = run_pdr(netlist)
        certificate = result.certificate
        assert certificate.num_clauses >= 1
        # Dropping a clause breaks consecution or safety; flipping a
        # literal breaks initiation or consecution.  Either way the
        # independent checker must refuse.
        clause = certificate.clauses[0]
        flipped = InvariantCertificate(
            clauses=[tuple(-lit for lit in clause)]
            + certificate.clauses[1:],
            level=certificate.level,
        )
        with pytest.raises(CertificateError):
            check_certificate(netlist, flipped)

    def test_foreign_literal_rejected(self):
        netlist = G.ring_counter(4)
        bogus = InvariantCertificate(clauses=[(99999,)])
        with pytest.raises(CertificateError):
            check_certificate(netlist, bogus)

    def test_certificate_survives_serialization(self):
        netlist = G.mod_counter(4, 12)
        result = run_pdr(netlist)
        # Round trip over the same netlist.
        payload = json.loads(json.dumps(result.to_dict(netlist)))
        rebuilt = VerificationResult.from_dict(payload, netlist)
        assert rebuilt.certificate.clauses == result.certificate.clauses
        assert rebuilt.certificate.level == result.certificate.level
        check_certificate(netlist, rebuilt.certificate)
        # Re-anchored on a clone with different node numbering — the
        # portfolio cache's scenario.
        clone, _ = netlist.clone()
        positional = VerificationResult.from_dict(payload, clone)
        check_certificate(clone, positional.certificate)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=400))
    def test_proved_results_always_certify_property(self, seed):
        # The satellite property: every PROVED pdr result on a random
        # circuit ships an invariant that is initial, inductive and
        # bad-excluding, re-derived here with fresh solvers (both via
        # the checker and via the explicit three queries below).
        netlist = random_netlist(seed)
        result = run_pdr(netlist, max_frames=60)
        reference = verify(
            random_netlist(seed).clone()[0], method="reach_bdd",
            max_depth=200,
        )
        assert result.status is reference.status, seed
        if not result.proved:
            return
        certificate = result.certificate
        check_certificate(netlist, certificate)
        # Initiation, by direct evaluation with a fresh Solver-backed
        # query per clause: the initial state satisfies every clause.
        init = netlist.init_assignment()
        for clause in certificate.clauses:
            assert any((lit > 0) == init[abs(lit)] for lit in clause)
        # Safety via an independent solver: invariant ∧ C ∧ ¬P UNSAT.
        from repro.aig.cnf import CnfMapper
        from repro.aig.graph import edge_not
        from repro.pdr import invariant_edge

        aig = netlist.aig
        inv = invariant_edge(netlist, certificate)
        mapper = CnfMapper(aig, Solver())
        bad = aig.and_(
            inv,
            aig.and_(netlist.constraint_edge(),
                     edge_not(netlist.property_edge)),
        )
        assert mapper.solver.solve(
            [mapper.lit_for(bad)]
        ) is not SolveResult.SAT


class TestAcceptance:
    @pytest.mark.parametrize("width", [64, 96, 128])
    def test_deep_counters_proved_with_certificates(self, width):
        # The workload PDR exists for: 2^width states, proved by a few
        # single-step queries — no unrolling, no BDDs.
        netlist = G.mod_counter(width)
        result = run_pdr(netlist)
        assert_certified(netlist, result)
        bmc = verify(
            G.mod_counter(width), method="bmc", max_depth=16
        )
        assert bmc.status is Status.UNKNOWN

    def test_generalization_keeps_lemmas_short(self):
        # A counter with a dead region (values 200..255 unreachable):
        # without generalization the frames would accumulate one full
        # 8-literal cube per excluded state; core dropping plus ternary
        # expansion must compress the invariant to a few short clauses.
        result = run_pdr(G.mod_counter(8, 200))
        assert result.proved
        assert result.certificate.num_clauses <= 8
        widest = max(
            (len(clause) for clause in result.certificate.clauses),
            default=0,
        )
        assert widest <= 4
        assert result.stats.get("pdr_ternary_dropped") > 0
        assert result.stats.get("pdr_core_dropped") > 0

    def test_unoptimized_variant_agrees(self):
        # generalize=False / ternary=False is the textbook algorithm:
        # slower, same verdicts, same certificate discipline.
        netlist = G.mod_counter(4, 12)
        result = run_pdr(netlist, generalize=False, ternary=False)
        assert_certified(netlist, result)
        buggy = run_pdr(
            G.mod_counter(4, 12, safe=False),
            generalize=False, ternary=False,
        )
        assert buggy.status is Status.FAILED
        assert buggy.trace.validate(G.mod_counter(4, 12, safe=False))


class TestFrameTrace:
    def test_delta_encoding_and_subsumption(self):
        frames = FrameTrace()
        frames.extend()
        frames.extend()   # N = 3
        weak, _ = frames.add(frozenset({1, -2, 3}), 1)
        assert weak is not None
        # A stronger cube at a higher level retires the weaker one.
        strong, retired = frames.add(frozenset({1, -2}), 2)
        assert retired == [weak] and weak.retired
        # A cube already covered at this level is refused.
        refused, _ = frames.add(frozenset({1, -2, 5}), 2)
        assert refused is None
        assert frames.blocking_level(frozenset({1, -2, 5}), 1) == 2
        assert frames.blocking_level(frozenset({1, -2, 5}), 3) is None
        assert frames.invariant_clauses(2) == [(-1, 2)]

    def test_promote_retires_shadowed_lemmas(self):
        frames = FrameTrace()
        frames.extend()
        frames.extend()
        strong, _ = frames.add(frozenset({1}), 1)
        weak, _ = frames.add(frozenset({1, 2}), 2)
        retired = frames.promote(strong)
        assert strong.level == 2
        assert retired == [weak]
        assert frames.at_level(2) == [strong]

    def test_init_exclusion_helpers(self):
        init = {4: False, 6: True}
        assert cube_excludes_init(frozenset({4}), init)
        assert not cube_excludes_init(frozenset({-4, 6}), init)
        assert state_to_cube(init) == frozenset({-4, 6})

    def test_solver_pool_compacts_garbage(self, monkeypatch):
        # Spent query guards and subsumed lemmas accumulate as dead
        # variables; past the limit the pool must rebuild the frame
        # solver from the live lemmas, with identical query answers.
        from repro.pdr import solver_pool
        from repro.pdr.solver_pool import SolverPool
        from repro.util.stats import StatsBag

        monkeypatch.setattr(solver_pool, "COMPACT_RETIRED_LIMIT", 3)
        netlist = G.mod_counter(3, 6)
        frames = FrameTrace()
        frames.extend()
        stats = StatsBag()
        pool = SolverPool(netlist, frames, stats)
        cube = state_to_cube(
            {node: True for node in netlist.latch_nodes}
        )
        before = pool.solver(1)
        baseline = pool.relative_query(2, cube)[0]
        for _ in range(6):   # each call retires its temporary ¬cube
            assert pool.relative_query(2, cube)[0] == baseline
        after = pool.solver(1)
        assert after is not before
        assert stats.get("pdr_solver_compactions") >= 1
        assert pool.relative_query(2, cube)[0] == baseline


class TestIntegration:
    def test_engine_registered_with_capabilities(self):
        assert "pdr" in engine_names()
        spec = get_engine("pdr")
        assert spec.complete
        assert spec.produces_trace
        assert spec.supports_constraints
        assert not spec.composite
        assert spec.options_class is PdrOptions
        assert spec.depth_field == "max_frames"
        assert spec.direction == "forward"

    def test_in_default_portfolio_candidates(self):
        from repro.portfolio.policy import default_engines, select_plan

        assert "pdr" in default_engines()
        plan = select_plan(G.mod_counter(3, 6), policy="predict")
        assert "pdr" in plan.methods

    def test_predict_prefers_pdr_on_wide_shallow_circuits(self):
        # The satellite contract: many latches, shallow per-step logic
        # → pdr ranks above both itp and bmc.
        from repro.portfolio.policy import select_plan

        plan = select_plan(G.shift_register(32), policy="predict")
        order = plan.methods
        assert order.index("pdr") < order.index("itp")
        assert order.index("pdr") < order.index("bmc")
        assert plan.features["latches"] > 30

    def test_verify_front_door(self):
        result = verify(G.mod_counter(3, 6), method="pdr", max_depth=16)
        assert result.proved
        assert result.certificate is not None

    def test_session_runs_pdr_task(self):
        session = Session()
        result = session.run(
            VerificationTask(
                G.mod_counter(3, 6), engine="pdr", max_depth=16
            )
        )
        assert result.proved
        assert result.engine == "pdr"
        assert result.certificate is not None

    def test_stats_surface_the_loop(self):
        result = run_pdr(G.mod_counter(4, 12))
        for key in ("sat_calls", "pdr_frames", "pdr_obligations",
                    "invariant_clauses", "certificates_checked"):
            assert key in result.stats, key
