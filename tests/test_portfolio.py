"""Tests for the portfolio subsystem: hashing, cache, runner, policies,
batch API, and the ``verify(method="portfolio")`` dispatch."""

import pytest

from repro.aig.graph import edge_not
from repro.circuits import generators as G
from repro.circuits.library import handshake
from repro.circuits.netlist import Netlist
from repro.errors import ModelCheckingError, ReproError
from repro.mc import verify
from repro.mc.reach_aig import ReachOptions
from repro.mc.result import Status
from repro.portfolio import (
    ResultCache,
    check_many,
    circuit_features,
    default_engines,
    portfolio_verify,
    run_portfolio,
    select_plan,
    structural_hash,
)
from repro.portfolio import runner as runner_module
from repro.sweep.fraig import fraig_netlist
from repro.util.stats import StatsBag


def _toggle_netlist(scrambled: bool = False) -> Netlist:
    """The same two-latch circuit, with AND nodes created in a different
    order (and dead logic left behind) when ``scrambled``."""
    netlist = Netlist("toggle")
    a = netlist.add_latch("a", init=False)
    b = netlist.add_latch("b", init=True)
    aig = netlist.aig
    if scrambled:
        aig.and_(a, edge_not(b))       # dead node, shifts all later ids
        both = aig.and_(b, a)          # operand order reversed
    else:
        both = aig.and_(a, b)
    netlist.set_next(a, edge_not(a))
    netlist.set_next(b, edge_not(both))
    netlist.set_property(edge_not(both))
    netlist.validate()
    return netlist


class TestStructuralHash:
    def test_invariant_under_node_renumbering(self):
        assert structural_hash(_toggle_netlist()) == structural_hash(
            _toggle_netlist(scrambled=True)
        )

    def test_invariant_under_clone(self):
        netlist = G.mod_counter(4, 12)
        clone, _ = netlist.clone()
        assert structural_hash(netlist) == structural_hash(clone)

    def test_sensitive_to_init_values(self):
        one = _toggle_netlist()
        other = _toggle_netlist()
        other.latches[0].init = True
        assert structural_hash(one) != structural_hash(other)

    def test_sensitive_to_property(self):
        safe = G.mod_counter(4, 12, safe=True)
        buggy = G.mod_counter(4, 12, safe=False)
        assert structural_hash(safe) != structural_hash(buggy)

    def test_sensitive_to_next_functions(self):
        one = _toggle_netlist()
        other = _toggle_netlist()
        other.latches[0].next_edge = edge_not(other.latches[0].next_edge)
        assert structural_hash(one) != structural_hash(other)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        netlist = G.mod_counter(3, 6)
        assert cache.lookup(netlist, "reach_aig", 50) is None
        result = verify(netlist, method="reach_aig", max_depth=50)
        cache.store(netlist, "reach_aig", 50, result)
        hit = cache.lookup(netlist, "reach_aig", 50)
        assert hit is not None
        assert hit.status is Status.PROVED
        assert cache.hits == 1 and cache.misses == 1

    def test_keyed_by_method_and_depth(self):
        cache = ResultCache()
        netlist = G.mod_counter(3, 6)
        cache.store(netlist, "reach_aig", 50, verify(netlist, max_depth=50))
        assert cache.lookup(netlist, "bmc", 50) is None
        assert cache.lookup(netlist, "reach_aig", 51) is None

    def test_persistence_round_trip_with_trace(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        writer = ResultCache(path)
        buggy = handshake(False)
        result = verify(buggy, method="bmc", max_depth=20)
        assert result.status is Status.FAILED
        writer.store(buggy, "bmc", 20, result)
        # A fresh process would rebuild the netlist in its own manager:
        # simulate that with a clone (different node numbering).
        reader = ResultCache(path)
        fresh, _ = handshake(False).clone()
        hit = reader.lookup(fresh, "bmc", 20)
        assert hit is not None
        assert hit.status is Status.FAILED
        assert hit.trace.validate(fresh)

    def test_unknown_budget_stamps(self):
        cache = ResultCache()
        netlist = G.mod_counter(3, 6)
        unknown = verify(netlist, method="bmc", max_depth=2)
        assert unknown.status is Status.UNKNOWN
        cache.store(netlist, "bmc", 2, unknown, budget=1.0)
        # More budget than the stamp: the caller deserves a fresh run.
        assert cache.lookup(netlist, "bmc", 2, budget=2.0) is None
        # Same or less: the stored UNKNOWN answers it.
        assert cache.lookup(netlist, "bmc", 2, budget=1.0) is not None
        assert cache.lookup(netlist, "bmc", 2, budget=0.5) is not None

    def test_undecodable_record_is_a_miss_not_a_crash(self):
        cache = ResultCache()
        buggy = handshake(False)
        result = verify(buggy, method="bmc", max_depth=20)
        cache.store(buggy, "bmc", 20, result)
        # Corrupt the stored trace so it no longer decodes.
        (record,) = cache._entries.values()
        record["trace"]["states"] = ["0" * 99]
        assert cache.lookup(handshake(False), "bmc", 20) is None
        assert cache.misses == 1

    def test_lru_eviction_bounds_memory(self):
        cache = ResultCache(max_memory_entries=2)
        for modulus in (5, 6, 7):
            netlist = G.mod_counter(3, modulus)
            cache.store(netlist, "reach_aig", 50, verify(netlist, max_depth=50))
        assert len(cache) == 2
        assert cache.lookup(G.mod_counter(3, 5), "reach_aig", 50) is None
        assert cache.lookup(G.mod_counter(3, 7), "reach_aig", 50) is not None


class TestRunner:
    def test_race_returns_validated_counterexample(self):
        buggy = handshake(False)
        outcome = run_portfolio(
            buggy, ["bmc", "reach_aig", "reach_bdd"], budget=10.0
        )
        assert outcome.winner is not None
        assert outcome.result.status is Status.FAILED
        assert outcome.result.trace.validate(handshake(False))

    def test_race_cancels_losers(self):
        # bmc cracks the buggy 5-bit multiplier miter in ~10ms; the
        # traversal's input quantification takes ~100x that.
        outcome = run_portfolio(
            G.multiplier_miter(5, safe=False),
            ["reach_aig", "bmc"],
            budget=30.0,
            jobs=2,
        )
        assert outcome.winner == "bmc"
        labels = {o.method: o.label for o in outcome.outcomes}
        assert labels["reach_aig"] == "cancelled"
        assert len(outcome.outcomes) == 2

    def test_timeout_maps_to_unknown_within_budget(self):
        budget = 0.05
        outcome = run_portfolio(
            G.multiplier_miter(5, safe=False), ["reach_aig"], budget=budget
        )
        assert outcome.winner is None
        assert outcome.result.status is Status.UNKNOWN
        (timed_out,) = outcome.outcomes
        assert timed_out.timed_out
        # Enforcement promise: never exceed the budget by more than 2x.
        assert timed_out.elapsed < 2 * budget

    def test_verdict_after_the_budget_times_out(self, monkeypatch):
        # Every worker finishes before the parent first polls it, so its
        # final verdict is already waiting in the pipe: arriving past the
        # deadline, it must count as a timeout, not a win.
        class FinishedFirst(runner_module.WorkerHandle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.process.join(timeout=30.0)

        monkeypatch.setattr(runner_module, "WorkerHandle", FinishedFirst)
        outcome = run_portfolio(
            G.mod_counter(3, 6, safe=False), ["bmc", "reach_aig"],
            budget=1e-6,
        )
        assert outcome.winner is None
        assert outcome.result.status is Status.UNKNOWN
        assert all(o.timed_out for o in outcome.outcomes)

    def test_tiny_budget_times_out(self):
        outcome = run_portfolio(
            G.mod_counter(3, 6, safe=False), ["bmc"], budget=1e-6
        )
        assert outcome.winner is None
        assert outcome.result.status is Status.UNKNOWN
        (timed_out,) = outcome.outcomes
        assert timed_out.timed_out

    def test_crash_maps_to_unknown(self):
        netlist = G.mod_counter(3, 6)
        # An unknown engine option crashes the worker inside verify().
        outcome = run_portfolio(
            netlist,
            ["bmc"],
            budget=5.0,
            engine_options={"no_such_option": True},
        )
        assert outcome.winner is None
        assert outcome.result.status is Status.UNKNOWN
        assert outcome.outcomes[0].crashed

    def test_unknowns_do_not_win(self):
        # bmc alone cannot prove a safe design: no winner, UNKNOWN result.
        outcome = run_portfolio(G.mod_counter(3, 6), ["bmc"], budget=10.0)
        assert outcome.winner is None
        assert outcome.result.status is Status.UNKNOWN

    def test_empty_method_list_rejected(self):
        with pytest.raises(ValueError):
            run_portfolio(G.mod_counter(3, 6), [], budget=1.0)

    def test_agreement_mode_runs_every_engine(self):
        # stop_on_decisive=False must not drop queued engines once a
        # winner lands, even with a single worker slot.
        outcome = run_portfolio(
            G.mod_counter(3, 6, safe=False),
            ["bmc", "reach_aig", "reach_bdd"],
            budget=30.0,
            jobs=1,
            stop_on_decisive=False,
        )
        assert len(outcome.outcomes) == 3
        assert all(not o.cancelled for o in outcome.outcomes)
        assert all(
            o.result.status is Status.FAILED for o in outcome.outcomes
        )


class TestPolicies:
    def test_race_all_keeps_order_and_parallelism(self):
        plan = select_plan(G.mod_counter(3, 6), policy="race_all")
        assert plan.parallel
        assert "reach_aig" in plan.methods

    def test_sequential_fallback_puts_cheap_engines_first(self):
        plan = select_plan(
            G.mod_counter(3, 6),
            policy="sequential_fallback",
            engines=["reach_aig", "bmc", "reach_bdd", "k_induction"],
        )
        assert not plan.parallel
        assert plan.methods[:2] == ["bmc", "k_induction"]

    def test_predict_ranks_all_requested_engines(self):
        plan = select_plan(G.arbiter(4), policy="predict")
        assert sorted(plan.methods) == sorted(default_engines())
        assert plan.features["latches"] > 0
        assert plan.features["ands"] > 0

    def test_default_engines_include_forward_traversals(self):
        # Capability-derived defaults: the forward engines are candidates
        # (the hand-maintained list used to omit them), composite and
        # forced-option variant engines are not.
        defaults = default_engines()
        assert "reach_aig_fwd" in defaults
        assert "reach_bdd_fwd" in defaults
        assert "portfolio" not in defaults
        assert "reach_aig_allsat" not in defaults
        assert "reach_aig_hybrid" not in defaults

    def test_predict_ranks_cnc_first_on_wide_arithmetic_miters(self):
        # The cnc score is tuned for wide-input deep-logic cones: it must
        # lead on the multiplier miter and stay behind the quick
        # bounded/inductive engines on a narrow sequential counter.
        plan = select_plan(G.multiplier_miter(4), policy="predict")
        assert plan.methods[0] == "cnc"
        counter_plan = select_plan(G.mod_counter(4, 12), policy="predict")
        assert "cnc" in counter_plan.methods
        assert "cnc" not in counter_plan.methods[:2]

    def test_features_are_cheap_structural_counts(self):
        features = circuit_features(G.mod_counter(4, 12))
        assert features["latches"] == 4
        assert features["ands"] > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ReproError):
            select_plan(G.mod_counter(3, 6), policy="alphago")


class TestPortfolioVerify:
    def test_mixed_batch_matches_single_engine_verdicts(self, tmp_path):
        designs = [
            (G.mod_counter(4, 12), Status.PROVED),
            (G.mod_counter(4, 12, safe=False), Status.FAILED),
            (G.ring_counter(5), Status.PROVED),
            (G.arbiter(3), Status.PROVED),
            (handshake(False), Status.FAILED),
            (G.fifo_level(3, safe=False), Status.FAILED),
            (G.mod_counter(4, 12), Status.PROVED),  # structural duplicate
        ]
        budget = 20.0
        stats = StatsBag()
        results = portfolio_verify(
            [netlist for netlist, _ in designs],
            budget=budget,
            cache=tmp_path / "cache.jsonl",
            stats=stats,
        )
        for (netlist, expected), result in zip(designs, results):
            assert result.status is expected
            if expected is Status.FAILED:
                reference = verify(netlist.clone()[0], method="reach_aig")
                assert result.trace.depth == reference.trace.depth
                assert result.trace.validate(netlist.clone()[0])
        # The duplicate design must be served from cache.
        assert stats.get("served_from_cache") >= 1
        assert stats.get("cache_hits") >= 1
        # No engine may overrun its wall-clock budget by more than 2x.
        assert stats.get("max_engine_seconds") < 2 * budget

    def test_single_netlist_returns_single_result(self):
        result = portfolio_verify(G.mod_counter(3, 6), budget=10.0)
        assert result.status is Status.PROVED

    def test_cross_call_cache_hit(self):
        cache = ResultCache()
        first = portfolio_verify(G.ring_counter(4), cache=cache, budget=10.0)
        second = portfolio_verify(G.ring_counter(4), cache=cache, budget=10.0)
        assert first.status is second.status is Status.PROVED
        assert second.stats.get("cache_hit") == 1
        assert cache.hits >= 1

    def test_fraig_preprocess_preserves_verdicts_and_traces(self):
        safe = portfolio_verify(
            G.mod_counter(4, 12), fraig_preprocess=True, budget=10.0
        )
        assert safe.status is Status.PROVED
        buggy = portfolio_verify(
            G.mod_counter(4, 12, safe=False),
            fraig_preprocess=True,
            budget=10.0,
        )
        assert buggy.status is Status.FAILED
        # The trace is remapped onto (and replays on) the *original* netlist.
        assert buggy.trace.validate(G.mod_counter(4, 12, safe=False))

    def test_fraig_netlist_poses_same_problem(self):
        netlist = G.arbiter(3)
        reduced = fraig_netlist(netlist)
        assert reduced.num_latches == netlist.num_latches
        assert [l.name for l in reduced.latches] == [
            l.name for l in netlist.latches
        ]
        assert reduced.aig.num_ands <= netlist.aig.num_ands
        assert (
            verify(reduced, method="reach_aig").status
            is verify(netlist.clone()[0], method="reach_aig").status
        )

    def test_sequential_policy_verdicts(self):
        results = portfolio_verify(
            [G.mod_counter(3, 6), G.mod_counter(3, 6, safe=False)],
            policy="sequential_fallback",
            budget=10.0,
        )
        assert results[0].status is Status.PROVED
        assert results[1].status is Status.FAILED

    def test_predict_policy_verdicts(self):
        result = portfolio_verify(
            G.ring_counter(4), policy="predict", budget=10.0
        )
        assert result.status is Status.PROVED

    def test_cached_invalid_counterexample_triggers_rerun(self):
        # A poisoned cache entry (FAILED whose trace does not replay)
        # must not be served; the engine re-runs and the truth wins.
        from repro.mc.result import Trace, VerificationResult

        cache = ResultCache()
        safe = G.mod_counter(3, 6)
        bogus = VerificationResult(
            status=Status.FAILED,
            engine="bmc",
            trace=Trace(states=[{}, {}], inputs=[{}]),
        )
        for method in ("bmc", "k_induction", "reach_aig", "reach_bdd"):
            cache.store(safe, method, 100, bogus)
        result = portfolio_verify(G.mod_counter(3, 6), cache=cache, budget=10.0)
        assert result.status is Status.PROVED

    def test_shared_cache_stats_count_per_call_deltas(self):
        cache = ResultCache()
        stats = StatsBag()
        check_many([G.ring_counter(4)], budget=10.0, cache=cache, stats=stats)
        first_hits = stats.get("cache_hits")
        check_many([G.ring_counter(4)], budget=10.0, cache=cache, stats=stats)
        # The second call adds only its own hits, not the running total.
        assert stats.get("cache_hits") - first_hits <= len(default_engines())
        assert stats.get("cache_hits") >= 1

    def test_check_many_shares_cache_within_batch(self):
        stats = StatsBag()
        results = check_many(
            [G.ring_counter(4), G.ring_counter(4)],
            budget=10.0,
            stats=stats,
        )
        assert all(r.status is Status.PROVED for r in results)
        assert stats.get("served_from_cache") == 1


class TestVerifyDispatch:
    def test_portfolio_method(self):
        result = verify(
            handshake(False), method="portfolio", budget=10.0
        )
        assert result.status is Status.FAILED
        assert result.trace.validate(handshake(False))

    def test_unknown_method_still_rejected(self):
        with pytest.raises(ModelCheckingError):
            verify(G.mod_counter(3, 6), method="quantum")


class TestReachOptionsNormalization:
    """Regression: options=ReachOptions(...) used to TypeError on the
    allsat/hybrid branches, which built ReachOptions from **options."""

    @pytest.mark.parametrize(
        "method", ["reach_aig", "reach_aig_allsat", "reach_aig_hybrid"]
    )
    def test_options_object_accepted_everywhere(self, method):
        result = verify(
            G.mod_counter(3, 6),
            method=method,
            options=ReachOptions(max_iterations=50),
        )
        assert result.status is Status.PROVED

    def test_method_forces_elimination_mode(self):
        # The method name wins over the object's input_elimination field.
        result = verify(
            G.mod_counter(3, 6, safe=False),
            method="reach_aig_allsat",
            options=ReachOptions(max_iterations=50),
        )
        assert result.status is Status.FAILED

    def test_mixing_object_and_loose_keywords_rejected(self):
        with pytest.raises(ModelCheckingError):
            verify(
                G.mod_counter(3, 6),
                method="reach_aig",
                options=ReachOptions(),
                max_manager_nodes=1_000_000,
            )

    def test_loose_keywords_still_work(self):
        result = verify(
            G.mod_counter(3, 6), method="reach_aig",
            max_manager_nodes=1_000_000,
        )
        assert result.status is Status.PROVED
