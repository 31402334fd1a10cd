"""Tests for the typed verification API: the engine registry, result
serialization, and the task/session layer."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    ProgressEvent,
    Session,
    VerificationTask,
    engine_names,
    engines_with,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.circuits import generators as G
from repro.circuits.library import handshake
from repro.errors import ModelCheckingError
from repro.mc import verify
from repro.mc.result import Status, Trace, VerificationResult
from repro.portfolio import ResultCache
from repro.util.stats import StatsBag


class TestRegistry:
    def test_every_engine_registered_once(self):
        names = engine_names()
        assert len(names) == len(set(names))
        assert set(names) == {
            "bmc", "k_induction", "reach_aig", "reach_aig_allsat",
            "reach_aig_hybrid", "reach_aig_fwd", "reach_bdd",
            "reach_bdd_fwd", "itp", "pdr", "cnc", "portfolio",
        }

    def test_every_engine_runs_on_a_tiny_counter(self):
        # The registry invariant: every spec's runner actually runs, and
        # capability flags tell the truth about the outcome.
        safe = G.mod_counter(2, 3)
        buggy = G.mod_counter(2, 3, safe=False)
        for name in engine_names():
            spec = get_engine(name)
            options = {"budget": 10.0} if spec.composite else {}
            result = spec.verify(safe.clone()[0], max_depth=20, **options)
            if spec.complete:
                assert result.proved, name
            else:
                assert not result.status.is_conclusive, name
            result = spec.verify(buggy.clone()[0], max_depth=20, **options)
            assert result.failed, name
            if spec.produces_trace:
                assert result.trace is not None, name
                assert result.trace.validate(buggy.clone()[0]), name

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(ModelCheckingError, match="reach_aig"):
            get_engine("warp_drive")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ModelCheckingError):
            register_engine(name="bmc", summary="imposter")(lambda n, o: None)

    def test_registered_engine_appears_everywhere_without_edits(self):
        # A new engine shows up in the name queries, the portfolio
        # default candidates, the verify() dispatch, and the CLI choices
        # with no per-consumer edits.
        from repro.cli import build_parser
        from repro.portfolio.policy import default_engines

        @register_engine(
            name="always_proved",
            summary="test stub",
            produces_trace=False,
            direction="any",
        )
        def _run(netlist, options):
            return VerificationResult(
                status=Status.PROVED, engine="always_proved"
            )

        try:
            assert "always_proved" in engine_names()
            assert "always_proved" in default_engines()
            result = verify(G.mod_counter(2, 3), method="always_proved")
            assert result.proved
            parser = build_parser()
            args = parser.parse_args(
                ["mc", "x.net", "--method", "always_proved"]
            )
            assert args.method == "always_proved"
        finally:
            unregister_engine("always_proved")
        assert "always_proved" not in engine_names()

    def test_capability_queries(self):
        complete = {s.name for s in engines_with(complete=True)}
        assert "bmc" not in complete
        assert "reach_aig" in complete
        quick = {s.name for s in engines_with(quick=True)}
        assert quick == {"bmc", "k_induction"}
        composite = {s.name for s in engines_with(composite=True)}
        assert composite == {"portfolio"}

    def test_unknown_option_names_the_known_ones(self):
        with pytest.raises(ModelCheckingError, match="preimage_folds"):
            verify(G.mod_counter(2, 3), method="bmc", no_such_option=True)

    @pytest.mark.parametrize(
        "method,option,value",
        [
            ("reach_aig", "partial_growth_factor", 1.5),
            ("reach_bdd_fwd", "cluster_size", 500),
            ("cnc", "assume_tail", 2),
            ("bmc", "solver", None),
            ("reach_aig_allsat", "input_elimination", "circuit"),
            ("reach_aig", "allsat_max_cubes", 10),
            ("reach_bdd", "max_cache_entries", 512),
            ("reach_bdd_fwd", "max_cache_entries", 512),
            ("pdr", "max_obligations", 1),
            ("pdr", "certify", False),
            ("itp", "verify_interpolants", True),
            ("cnc", "conflict_budget", 100),
            ("cnc", "cube_budget", 1.0),
        ],
    )
    def test_settings_that_are_constants_are_not_options(
        self, method, option, value
    ):
        # Module constants, fixed behavior or the engine name itself,
        # not options: passing one names the options the engine has.
        with pytest.raises(ModelCheckingError, match="known options are"):
            verify(G.mod_counter(2, 3), method=method, **{option: value})


class TestStatusSemantics:
    def test_is_conclusive(self):
        assert Status.PROVED.is_conclusive
        assert Status.FAILED.is_conclusive
        assert not Status.UNKNOWN.is_conclusive

    def test_truthiness_is_a_loud_error(self):
        # `if result.status:` used to be truthy only for PROVED, silently
        # conflating FAILED with UNKNOWN.
        for status in Status:
            with pytest.raises(TypeError, match="is_conclusive"):
                bool(status)

    def test_result_properties_still_work(self):
        result = VerificationResult(status=Status.FAILED, engine="x")
        assert result.failed and not result.proved


# ---------------------------------------------------------------------- #
# Serialization
# ---------------------------------------------------------------------- #

# Payloads are positional over a netlist, so generated traces assign
# (some of) the latches and inputs of one design with both.
_DESIGN = G.arbiter(3, safe=False)


def _assignments(nodes):
    return st.dictionaries(st.sampled_from(nodes), st.booleans())


def _traces():
    states = _assignments(_DESIGN.latch_nodes)
    inputs = _assignments(_DESIGN.input_nodes)
    return st.builds(
        lambda states, inputs, violation: Trace(
            states=states, inputs=inputs, violation_inputs=violation
        ),
        states=st.lists(states, min_size=1, max_size=5),
        inputs=st.lists(inputs, min_size=0, max_size=4),
        violation=st.one_of(st.none(), inputs),
    )


def _stats_bags():
    def build(counters, gauges):
        bag = StatsBag()
        for key, value in counters.items():
            bag.incr(key, value)
        for key, value in gauges.items():
            bag.set(key, value)
        return bag

    finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
    keys = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10
    )
    return st.builds(
        build,
        st.dictionaries(keys, finite, max_size=4),
        st.dictionaries(keys, finite, max_size=4),
    )


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(trace=_traces())
    def test_trace_json_round_trip(self, trace):
        payload = json.loads(json.dumps(trace.to_dict(_DESIGN)))
        recovered = Trace.from_dict(payload, _DESIGN)
        assert recovered.states == trace.states
        assert recovered.inputs == trace.inputs
        assert recovered.violation_inputs == trace.violation_inputs

    @settings(max_examples=60, deadline=None)
    @given(
        trace=st.one_of(st.none(), _traces()),
        stats=_stats_bags(),
        status=st.sampled_from(list(Status)),
        iterations=st.integers(min_value=0, max_value=1000),
    )
    def test_result_json_round_trip(self, trace, stats, status, iterations):
        result = VerificationResult(
            status=status,
            engine="reach_aig",
            trace=trace,
            iterations=iterations,
            stats=stats,
        )
        payload = json.loads(json.dumps(result.to_dict(_DESIGN)))
        recovered = VerificationResult.from_dict(payload, _DESIGN)
        assert recovered.status is result.status
        assert recovered.engine == result.engine
        assert recovered.iterations == result.iterations
        assert recovered.stats.as_dict() == result.stats.as_dict()
        assert recovered.stats.gauge_keys() == result.stats.gauge_keys()
        if trace is None:
            assert recovered.trace is None
        else:
            assert recovered.trace.states == trace.states
            assert recovered.trace.inputs == trace.inputs
            assert recovered.trace.violation_inputs == trace.violation_inputs

    def test_positional_round_trip_survives_renumbering(self):
        # The cache encoding: written against one manager, decoded
        # against a clone with different node ids.
        buggy = handshake(False)
        result = verify(buggy, method="bmc", max_depth=20)
        assert result.failed
        payload = json.loads(json.dumps(result.to_dict(buggy)))
        fresh, _ = handshake(False).clone()
        recovered = VerificationResult.from_dict(payload, fresh)
        assert recovered.failed
        assert recovered.trace.validate(fresh)

    def test_positional_payload_requires_netlist(self):
        buggy = handshake(False)
        result = verify(buggy, method="bmc", max_depth=20)
        payload = result.to_dict(buggy)
        with pytest.raises(TypeError):
            VerificationResult.from_dict(payload)

    def test_to_dict_requires_netlist(self):
        result = verify(handshake(False), method="bmc", max_depth=20)
        with pytest.raises(TypeError):
            result.to_dict()

    def test_node_keyed_payload_is_rejected(self):
        netlist = G.mod_counter(2, 3, safe=False)
        payload = {
            "format": "nodes",
            "states": [{"1": False}],
            "inputs": [],
            "violation_inputs": None,
        }
        with pytest.raises(ValueError, match="nodes"):
            Trace.from_dict(payload, netlist)

    def test_legacy_cache_record_still_decodes(self):
        # Records written before the "format" key existed: positional
        # trace bit-strings, flat stats with top-level gauge names.
        netlist = G.mod_counter(2, 3, safe=False)  # 2 latches, no inputs
        legacy = {
            "status": "failed",
            "engine": "bmc",
            "iterations": 2,
            "trace": {
                "states": ["00", "01", "x0"],
                "inputs": ["", ""],
                "violation_inputs": None,
            },
            "stats": {"frames_unrolled": 2.0, "peak_size": 7.0},
            "gauges": ["peak_size"],
        }
        recovered = VerificationResult.from_dict(legacy, netlist)
        assert recovered.failed
        assert recovered.trace.depth == 2
        assert recovered.trace.states[1] == {
            netlist.latch_nodes[0]: False, netlist.latch_nodes[1]: True
        }
        assert len(recovered.trace.states[2]) == 1  # "x" bit dropped
        assert recovered.stats.get("frames_unrolled") == 2.0
        assert recovered.stats.is_gauge("peak_size")
        assert not recovered.stats.is_gauge("frames_unrolled")

    def test_every_engine_result_round_trips(self):
        # Acceptance: from_dict(to_dict()) for every engine's output.
        buggy = G.mod_counter(2, 3, safe=False)
        for name in engine_names():
            spec = get_engine(name)
            options = {"budget": 10.0} if spec.composite else {}
            netlist = buggy.clone()[0]
            result = spec.verify(netlist, max_depth=20, **options)
            payload = json.loads(json.dumps(result.to_dict(netlist)))
            recovered = VerificationResult.from_dict(payload, netlist)
            assert recovered.status is result.status, name
            assert recovered.engine == result.engine, name
            assert recovered.stats.as_dict() == result.stats.as_dict(), name
            if result.trace is not None:
                assert recovered.trace.states == result.trace.states, name
                assert recovered.trace.inputs == result.trace.inputs, name
                assert recovered.trace.validate(netlist), name


# ---------------------------------------------------------------------- #
# Tasks and sessions
# ---------------------------------------------------------------------- #


class TestVerificationTask:
    def test_defaults_and_label(self):
        task = VerificationTask(G.mod_counter(3, 6))
        assert task.engine == "reach_aig"
        assert task.name == task.netlist.name
        assert VerificationTask(G.mod_counter(3, 6), label="x").name == "x"

    def test_unknown_engine_resolves_loudly(self):
        task = VerificationTask(G.mod_counter(3, 6), engine="warp_drive")
        with pytest.raises(ModelCheckingError):
            task.spec()

    def test_cache_bound_is_not_a_task_budget(self):
        # The BDD cache bound is a module constant (reach_bdd's
        # MAX_CACHE_ENTRIES): a task has a depth and a timeout only.
        with pytest.raises(TypeError):
            VerificationTask(G.mod_counter(3, 6), max_cache_entries=512)


class TestSession:
    def _batch(self, count=20):
        # Alternating safe/buggy tiny counters, structurally distinct
        # (every task has its own modulus); cheap for any engine.
        return [
            G.mod_counter(5, 3 + i, safe=i % 2 == 0) for i in range(count)
        ]

    def test_verify_many_emits_progress_events(self):
        events = []
        session = Session(on_progress=events.append)
        netlists = self._batch(18) + self._batch(2)  # two duplicates
        results = session.verify_many(netlists, engine="reach_bdd")
        assert len(results) == 20
        kinds = [e.kind for e in events]
        assert kinds[0] == "batch_started"
        assert kinds[-1] == "batch_finished"
        assert kinds.count("task_started") == 20
        assert kinds.count("task_finished") == 20
        finished = [e for e in events if e.kind == "task_finished"]
        assert [e.index for e in finished] == list(range(20))
        assert all(e.total == 20 for e in finished)
        # The batch repeats structures: later duplicates hit the cache.
        assert any(e.cached for e in finished)
        assert session.stats.get("session_cache_hits") >= 1
        # Verdicts alternate with the generator's safe flag.
        for i, result in enumerate(results[:18]):
            assert result.proved if i % 2 == 0 else result.failed

    def test_cancellation_mid_batch(self):
        session = Session()
        events = []

        def watch(event: ProgressEvent):
            events.append(event)
            if event.kind == "task_finished" and event.index == 4:
                session.cancel()

        results = session.verify_many(
            self._batch(20), engine="reach_bdd", on_progress=watch
        )
        assert len(results) == 20
        ran, cancelled = results[:5], results[5:]
        assert all(r.status.is_conclusive for r in ran)
        assert all(not r.status.is_conclusive for r in cancelled)
        assert all(r.stats.get("session_cancelled") == 1 for r in cancelled)
        assert [e.kind for e in events].count("task_cancelled") == 15
        # Cancelled results are not memoized as real verdicts.
        assert (
            session.cache.lookup(self._batch(20)[12], "reach_bdd", 100)
            is None
        )
        session.reset()
        assert not session.cancelled

    def test_results_round_trip_for_every_task(self):
        session = Session()
        netlists = self._batch(20)
        results = session.verify_many(netlists, engine="reach_bdd")
        for netlist, result in zip(netlists, results):
            payload = json.loads(json.dumps(result.to_dict(netlist)))
            recovered = VerificationResult.from_dict(payload, netlist)
            assert recovered.status is result.status

    def test_shared_cache_across_calls_and_sessions(self):
        cache = ResultCache()
        first = Session(cache=cache)
        assert first.verify(G.ring_counter(4), engine="reach_aig").proved
        second = Session(cache=cache)
        result = second.verify(G.ring_counter(4), engine="reach_aig")
        assert result.proved
        assert result.stats.get("cache_hit") == 1
        assert second.stats.get("session_cache_hits") == 1

    def test_timeout_is_enforced_in_a_worker(self):
        session = Session()
        task = VerificationTask(
            G.multiplier_miter(5, safe=False),
            engine="reach_aig",
            timeout=0.05,
        )
        result = session.run(task)
        assert not result.status.is_conclusive
        assert result.stats.get("timed_out") == 1
        # The budget-stamped UNKNOWN was memoized for an equal budget...
        assert session.cache.lookup(
            G.multiplier_miter(5, safe=False), "reach_aig", 100, budget=0.05
        ) is not None
        # ...but a caller offering more time gets a fresh run.
        assert session.cache.lookup(
            G.multiplier_miter(5, safe=False), "reach_aig", 100, budget=10.0
        ) is None

    def test_timeout_unknown_not_served_to_unbudgeted_task(self):
        # A budget-stamped timeout UNKNOWN must not answer a later task
        # with unlimited time: the engine gets a fresh (decisive) run.
        session = Session()
        netlist = G.mod_counter(3, 6)
        timed = session.run(
            VerificationTask(netlist, engine="reach_aig", timeout=1e-6)
        )
        assert not timed.status.is_conclusive
        fresh = session.run(VerificationTask(netlist, engine="reach_aig"))
        assert fresh.proved
        # The unbudgeted PROVED verdict overwrote the cache entry and now
        # serves budgeted and unbudgeted callers alike.
        again = session.run(
            VerificationTask(netlist, engine="reach_aig", timeout=1e-6)
        )
        assert again.proved and again.stats.get("cache_hit") == 1

    def test_unbudgeted_unknown_answers_any_budget(self):
        # bmc on a safe design is depth-limited, not time-limited; its
        # UNKNOWN holds for any wall-clock at the same depth.
        session = Session()
        netlist = G.mod_counter(3, 6)
        first = session.run(
            VerificationTask(netlist, engine="bmc", max_depth=5)
        )
        assert not first.status.is_conclusive
        budgeted = session.run(
            VerificationTask(netlist, engine="bmc", max_depth=5, timeout=10.0)
        )
        assert budgeted.stats.get("cache_hit") == 1

    def test_composite_timeout_becomes_portfolio_budget(self):
        session = Session()
        slow = VerificationTask(
            G.multiplier_miter(5, safe=False),
            engine="portfolio",
            timeout=0.05,
            options={"engines": ["reach_aig"]},
        )
        result = session.run(slow)
        # reach_aig needs ~1s; the task timeout must reach the worker.
        assert not result.status.is_conclusive
        assert result.stats.get("engine_reach_aig_timeout") == 1

    def test_composite_ready_made_options_get_session_cache(self):
        # A caller-supplied PortfolioOptions object must not collide with
        # the session's cache injection.
        from repro.portfolio import PortfolioOptions

        session = Session()
        task = VerificationTask(
            G.mod_counter(3, 6),
            engine="portfolio",
            options={
                "options": PortfolioOptions(
                    budget=10.0, engines=["reach_aig"]
                )
            },
        )
        assert session.run(task).proved
        hit = session.verify(G.mod_counter(3, 6), engine="reach_aig")
        assert hit.stats.get("cache_hit") == 1

    def test_composite_engine_shares_session_cache(self):
        session = Session()
        task = VerificationTask(
            G.mod_counter(3, 6),
            engine="portfolio",
            # A one-engine portfolio: the outcome cannot be a cancelled
            # loser, so the per-engine memo is deterministic.
            options={"budget": 10.0, "engines": ["reach_aig"]},
        )
        assert session.run(task).proved
        # The portfolio memoized its per-engine outcomes into the
        # session's cache, so a direct engine task is now a hit.
        direct = session.verify(G.mod_counter(3, 6), engine="reach_aig")
        assert direct.proved
        assert direct.stats.get("cache_hit") == 1

    def test_session_stats_aggregate(self):
        session = Session()
        session.verify_many(self._batch(6), engine="reach_bdd")
        assert session.stats.get("tasks") == 6
        assert session.stats.get("status_proved") >= 1
        assert session.stats.get("status_failed") >= 1
