"""Tests for the observability subsystem (:mod:`repro.obs`).

Covers the tracer core (span nesting, JSONL round-trip, Chrome
``trace_event`` schema), the probe hooks' zero-cost-when-disabled
contract (stats-identical search trajectories), the ``mc.verify(trace=)``
wiring, the subprocess trace merge through the portfolio runner pipe,
and the post-run :class:`~repro.obs.report.RunReport`.
"""

import json
import os

import pytest

from repro import obs
from repro.circuits.generators import mod_counter, ring_counter
from repro.circuits.library import handshake
from repro.mc.engine import verify
from repro.mc.result import Status
from repro.obs import NULL_SPAN, CounterRecord, SpanRecord, Tracer, probes


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Every test starts and ends with tracing off, whatever it does."""
    obs.disable()
    yield
    obs.disable()


class TestTracerSpans:
    def test_span_records_name_category_attrs(self):
        tracer = Tracer()
        with tracer.span("work", "engine", k=3):
            pass
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.category == "engine"
        assert span.attrs == {"k": 3}
        assert span.duration >= 0.0
        assert span.pid == os.getpid()

    def test_nesting_links_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, recorded_outer = tracer.spans
        assert inner.name == "inner"
        assert inner.parent_id == recorded_outer.span_id
        assert recorded_outer.parent_id is None
        assert outer is not None  # the context manager itself

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, root = tracer.spans
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_set_attaches_mid_span_attrs(self):
        tracer = Tracer()
        with tracer.span("round") as span:
            span.set(verdict="proved")
        assert tracer.spans[0].attrs["verdict"] == "proved"

    def test_record_span_nests_under_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            start = tracer.now()
            tracer.record_span("solve", "sat", start, tracer.now(), n=1)
        solve, outer = tracer.spans
        assert solve.parent_id == outer.span_id
        assert solve.attrs == {"n": 1}

    def test_span_ids_unique_and_pid_tagged(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("x"):
                pass
        ids = [span.span_id for span in tracer.spans]
        assert len(set(ids)) == 5
        assert all(span_id >> 20 == os.getpid() for span_id in ids)


class TestTickThrottle:
    def test_should_sample_enforces_tick(self):
        tracer = Tracer(tick=10.0)
        assert tracer.should_sample("sat.conflicts")
        assert not tracer.should_sample("sat.conflicts")
        # Different series have independent clocks.
        assert tracer.should_sample("bdd.nodes")

    def test_zero_tick_always_samples(self):
        tracer = Tracer(tick=0.0)
        assert tracer.should_sample("x")
        assert tracer.should_sample("x")


class TestExportFormats:
    def _populated(self):
        tracer = Tracer()
        with tracer.span("mc.verify", "engine", engine="pdr"):
            with tracer.span("pdr.block_cube", "frames", frame=1):
                pass
        tracer.sample("sat.conflicts", 17)
        return tracer

    def test_chrome_trace_schema(self):
        doc = self._populated().to_chrome_trace()
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {
            "mc.verify", "pdr.block_cube"
        }
        for event in complete:
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        (counter,) = counters
        assert counter["name"] == "sat.conflicts"
        assert counter["args"] == {"value": 17.0}
        assert metadata and all(
            e["name"] == "process_name" for e in metadata
        )

    def test_chrome_trace_is_json_serializable(self, tmp_path):
        path = tmp_path / "trace.json"
        self._populated().write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._populated()
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        loaded = Tracer.read_jsonl(path)
        assert len(loaded.spans) == len(tracer.spans)
        assert len(loaded.counters) == len(tracer.counters)
        by_id = {span.span_id: span for span in loaded.spans}
        for original in tracer.spans:
            restored = by_id[original.span_id]
            assert restored.name == original.name
            assert restored.category == original.category
            assert restored.parent_id == original.parent_id
            assert restored.attrs == original.attrs
            assert restored.start == pytest.approx(original.start)
        assert loaded.counters[0].value == 17.0
        assert loaded.wall_epoch == pytest.approx(tracer.wall_epoch)

    def test_merge_records_folds_both_kinds(self):
        parent = Tracer()
        worker = Tracer(epoch=parent.epoch)
        with worker.span("worker.work", "sat"):
            pass
        worker.sample("sat.conflicts", 3)
        parent.merge_records(worker.export_records())
        assert [s.name for s in parent.spans] == ["worker.work"]
        assert [c.value for c in parent.counters] == [3.0]

    def test_record_round_trip_dataclasses(self):
        span = SpanRecord(
            name="a", category="sat", start=0.5, duration=0.25,
            pid=7, tid=1, span_id=42, parent_id=41, attrs={"k": 1},
        )
        assert SpanRecord.from_record(span.to_record()) == span
        counter = CounterRecord(name="c", t=1.5, value=2.0, pid=7)
        assert CounterRecord.from_record(counter.to_record()) == counter


class TestEnableDisable:
    def test_disabled_span_is_shared_null_span(self):
        assert obs.span("anything") is NULL_SPAN
        with obs.span("anything") as span:
            span.set(ignored=True)  # must be a silent no-op

    def test_enable_disable_cycle(self):
        assert not obs.is_enabled()
        tracer = obs.enable()
        assert obs.is_enabled()
        assert obs.current_tracer() is tracer
        assert obs.disable() is tracer
        assert not obs.is_enabled()
        assert obs.current_tracer() is None

    def test_enable_is_idempotent(self):
        first = obs.enable()
        assert obs.enable() is first
        assert obs.enable(Tracer()) is first  # active tracer kept

    def test_enabled_span_records(self):
        tracer = obs.enable()
        with obs.span("probe.test", "sat", k=1):
            pass
        assert tracer.spans[0].name == "probe.test"

    def test_module_flag_tracks_state(self):
        assert probes.ENABLED is False
        obs.enable()
        assert probes.ENABLED is True
        obs.disable()
        assert probes.ENABLED is False


class TestBddTickDirectReads:
    """The ``"bdd"`` tick reads the manager's scalar counters and cache
    lens directly (no summary dict per tick); its samples must stay
    numerically identical to what :meth:`cache_summary` reports."""

    def test_bdd_tick_matches_cache_summary(self):
        from repro.bdd.manager import BddManager

        manager = BddManager()
        a, b, c = (manager.new_var() for _ in range(3))
        f = manager.and_(a, manager.or_(b, manager.not_(c)))
        manager.and_(a, manager.or_(b, manager.not_(c)))  # cache hits
        manager.exists(f, [1])

        tracer = Tracer(tick=0.0)
        probes.activate(tracer)
        try:
            probes.tick("bdd", manager)
        finally:
            probes.deactivate()

        sampled = {rec.name: rec.value for rec in tracer.counters}
        summary = manager.cache_summary()
        assert sampled["bdd.nodes"] == manager.num_nodes
        assert sampled["bdd.cache_hit_rate"] == summary["cache_hit_rate"]
        assert sampled["bdd.cache_entries"] == summary["cache_entries"]
        assert summary["cache_hits"] > 0


class TestOneSampler:
    """Every probe kind goes through :func:`probes.tick`, which checks
    the throttle before its reader touches the source."""

    @pytest.mark.parametrize("kind,first_series", [
        ("sat", "sat.conflicts"),
        ("bdd", "bdd.nodes"),
        ("cnc", "cnc.open_cubes"),
        ("svc", "svc.queue_depth"),
        ("pdr", "pdr.queue_depth"),
    ])
    def test_throttled_tick_reads_nothing(self, kind, first_series):
        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"throttled tick read {name}")

            def __getitem__(self, index):
                raise AssertionError(f"throttled tick read [{index}]")

            def __iter__(self):
                raise AssertionError("throttled tick iterated")

        tracer = Tracer(tick=3600.0)
        assert tracer.should_sample(first_series)  # this hour's sample
        probes.activate(tracer)
        try:
            probes.tick(kind, Unreadable())
        finally:
            probes.deactivate()
        assert not tracer.counters

    def test_admitted_tick_samples_every_series(self):
        tracer = Tracer(tick=0.0)
        probes.activate(tracer)
        try:
            probes.tick("cnc", (4, 3, 2, 1))
        finally:
            probes.deactivate()
        assert [(rec.name, rec.value) for rec in tracer.counters] == [
            ("cnc.open_cubes", 4.0),
            ("cnc.solved_cubes", 3.0),
            ("cnc.refuted_cubes", 2.0),
            ("cnc.active_workers", 1.0),
        ]


class TestZeroCostDisabled:
    """With tracing off, runs must be stats-identical to the seed
    behaviour — the probes only *read* kernel counters, so enabling them
    must not change any search trajectory either."""

    @pytest.mark.parametrize("method", ["pdr", "itp", "reach_bdd", "bmc"])
    def test_traced_run_is_stats_identical(self, method):
        netlist = handshake(True)
        baseline = verify(netlist, method=method, max_depth=24)
        traced = verify(netlist, method=method, max_depth=24, trace=True)
        rerun = verify(netlist, method=method, max_depth=24)
        assert not obs.is_enabled()
        assert baseline.status is traced.status
        assert baseline.iterations == traced.iterations
        # The scalar stats (sat_calls, conflicts, frontier sizes, ...)
        # are the regression oracle: bit-identical trajectories.
        assert baseline.stats.as_dict() == traced.stats.as_dict()
        assert baseline.stats.as_dict() == rerun.stats.as_dict()

    @pytest.mark.parametrize("method", ["pdr", "itp"])
    def test_failing_run_is_stats_identical(self, method):
        netlist = handshake(False)
        baseline = verify(netlist, method=method, max_depth=24)
        traced = verify(netlist, method=method, max_depth=24, trace=True)
        assert baseline.status is Status.FAILED
        assert traced.status is Status.FAILED
        assert baseline.stats.as_dict() == traced.stats.as_dict()

    def test_cnc_traced_run_is_stats_identical(self):
        # workers=0 keeps the conquer in-process and deterministic, so
        # the cnc probes are held to the same bar as the other engines:
        # bit-identical scalar stats with tracing on or off.
        netlist = handshake(False)
        kwargs = dict(method="cnc", max_depth=12, workers=0)
        baseline = verify(netlist, **kwargs)
        traced = verify(netlist, **kwargs, trace=True)
        assert baseline.status is traced.status is Status.FAILED
        assert baseline.stats.as_dict() == traced.stats.as_dict()
        names = {span.name for span in traced.tracer.spans}
        assert {"cnc.unroll", "cnc.cube", "cnc.conquer",
                "sat.solve"} <= names
        series = {rec.name for rec in traced.tracer.counters}
        assert {"cnc.open_cubes", "cnc.solved_cubes",
                "cnc.refuted_cubes", "cnc.active_workers"} <= series


class TestVerifyTraceWiring:
    def test_trace_true_attaches_tracer(self):
        result = verify(mod_counter(4), method="pdr", max_depth=32,
                        trace=True)
        assert result.proved
        tracer = result.tracer
        names = {span.name for span in tracer.spans}
        assert "mc.verify" in names
        assert "sat.solve" in names
        categories = {span.category for span in tracer.spans}
        # The acceptance bar: spans from at least three layers.
        assert {"engine", "frames", "sat"} <= categories

    def test_trace_path_writes_chrome_file(self, tmp_path):
        path = tmp_path / "run.json"
        result = verify(mod_counter(4), method="pdr", max_depth=32,
                        trace=str(path))
        assert result.proved
        doc = json.loads(path.read_text())
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"engine", "frames", "sat"} <= cats

    def test_trace_ready_made_tracer(self):
        tracer = Tracer(tick=0.0)
        result = verify(mod_counter(4), method="pdr", max_depth=32,
                        trace=tracer)
        assert result.tracer is tracer
        assert tracer.spans

    def test_bdd_engine_produces_bdd_layer(self):
        result = verify(mod_counter(4), method="reach_bdd",
                        max_depth=32, trace=True)
        categories = {span.category for span in result.tracer.spans}
        assert "bdd" in categories
        counters = {c.name for c in result.tracer.counters}
        assert "bdd.nodes" in counters

    def test_itp_engine_samples_interpolants(self):
        result = verify(mod_counter(4), method="itp", max_depth=16,
                        trace=True)
        names = {span.name for span in result.tracer.spans}
        assert "itp.round" in names
        assert "itp.interpolant" in names
        assert "itp.interpolant_nodes" in result.stats.series_keys()

    def test_invalid_trace_argument_raises(self):
        with pytest.raises(TypeError):
            verify(mod_counter(4), method="bmc", trace=3.14)

    def test_root_span_reused_when_already_enabled(self):
        tracer = obs.enable()
        result = verify(mod_counter(4), method="bmc", max_depth=8)
        assert not hasattr(result, "tracer")  # fast path, no rebinding
        assert any(s.name == "mc.verify" for s in tracer.spans)

    def test_tracing_restored_after_exception(self):
        with pytest.raises(Exception):
            verify(mod_counter(4), method="no_such_engine", trace=True)
        assert not obs.is_enabled()


class TestSubprocessMerge:
    def test_portfolio_workers_stream_spans_back(self):
        from repro.portfolio.runner import run_portfolio

        tracer = obs.enable()
        try:
            outcome = run_portfolio(
                mod_counter(4), ["pdr"], max_depth=32, budget=60.0,
            )
        finally:
            obs.disable()
        assert outcome.result.proved
        worker_pids = {s.pid for s in tracer.spans} - {os.getpid()}
        assert worker_pids, "no worker spans merged back"
        worker_spans = [s for s in tracer.spans if s.pid != os.getpid()]
        names = {span.name for span in worker_spans}
        assert "mc.verify" in names
        assert "sat.solve" in names
        # Worker records share the parent's epoch: their offsets must be
        # small positive numbers, not absolute perf_counter readings.
        assert all(0 <= span.start < 60.0 for span in worker_spans)

    def test_verify_portfolio_trace_merges_one_timeline(self):
        result = verify(
            mod_counter(4), method="portfolio", max_depth=32,
            engines=["pdr"], budget=60.0, trace=True,
        )
        assert result.proved
        pids = {span.pid for span in result.tracer.spans}
        assert len(pids) >= 2  # parent + at least one worker

    def test_untraced_portfolio_sends_no_obs(self):
        from repro.portfolio.runner import run_portfolio

        outcome = run_portfolio(
            mod_counter(4), ["bmc"], max_depth=8, budget=60.0,
        )
        assert outcome.result.status is Status.UNKNOWN  # safe circuit


class TestEngineEvents:
    def test_run_portfolio_emits_lifecycle_events(self):
        from repro.portfolio.runner import run_portfolio

        events = []
        outcome = run_portfolio(
            mod_counter(4), ["pdr"], max_depth=32, budget=60.0,
            on_event=events.append,
        )
        assert outcome.result.proved
        kinds = [event["kind"] for event in events]
        assert kinds == ["engine_started", "engine_finished"]
        assert all(event["engine"] == "pdr" for event in events)
        assert events[1]["label"] == "proved"

    def test_cancelled_engines_emit_cancelled(self):
        from repro.portfolio.runner import run_portfolio

        events = []
        run_portfolio(
            ring_counter(3), ["bmc", "pdr"], max_depth=16, budget=60.0,
            jobs=1, on_event=events.append,
        )
        kinds = {event["kind"] for event in events}
        assert "engine_cancelled" in kinds or "engine_finished" in kinds

    def test_session_forwards_engine_events(self):
        from repro.api import Session

        seen = []
        session = Session(on_progress=seen.append)
        result = session.verify(
            mod_counter(4), engine="pdr", timeout=60.0
        )
        assert result.proved
        kinds = [event.kind for event in seen]
        assert kinds == [
            "task_started", "engine_started", "engine_finished",
            "task_finished",
        ]
        started = seen[1]
        assert started.engine == "pdr"
        assert started.task is not None


class TestRunReport:
    def _traced_result(self):
        return verify(mod_counter(4), method="pdr", max_depth=32,
                      trace=True)

    def test_build_report_fields(self):
        result = self._traced_result()
        report = obs.build_report(result, result.tracer)
        assert report.engine == "pdr"
        assert report.status == "proved"
        assert report.wall_seconds > 0.0
        assert report.span_count == len(result.tracer.spans)
        phase_names = {phase.name for phase in report.phases}
        assert "sat.solve" in phase_names
        assert report.timeline[0]["name"] == "mc.verify"
        assert "sat_calls" in report.counters
        assert "pdr_frames" in report.gauges
        series_names = {series.name for series in report.series}
        assert "sat.conflicts" in series_names

    def _unthrottled_bdd_run(self):
        # tick=0 accepts every sample, so the counts do not depend on
        # timing.
        from repro.circuits.generators import gray_counter

        return verify(gray_counter(6), method="reach_bdd_fwd",
                      trace=Tracer(tick=0.0))

    def test_series_count_each_sample_once(self):
        # Every sample in the result's bag is a tracer sample too, so the
        # report summarizes the tracer's alone.
        result = self._unthrottled_bdd_run()
        tracer = result.tracer
        assert result.stats.series("bdd.nodes")
        report = obs.build_report(result, tracer)
        assert report.series
        for summary in report.series:
            assert summary.samples == sum(
                1 for c in tracer.counters if c.name == summary.name
            )

    def test_report_without_tracer_uses_the_bag_series(self):
        result = self._unthrottled_bdd_run()
        report = obs.build_report(result)
        assert {s.name: s.samples for s in report.series} == {
            key: len(result.stats.series(key))
            for key in result.stats.series_keys()
        }

    def test_report_without_tracer_still_splits_stats(self):
        result = verify(mod_counter(4), method="pdr", max_depth=32)
        report = obs.build_report(result)
        assert report.span_count == 0
        assert "sat_calls" in report.counters
        assert "pdr_frames" in report.gauges

    def test_report_json_round_trip(self, tmp_path):
        result = self._traced_result()
        report = obs.build_report(result, result.tracer)
        path = tmp_path / "report.json"
        report.write_json(path)
        doc = json.loads(path.read_text())
        assert doc["engine"] == "pdr"
        assert doc["status"] == "proved"
        assert doc == report.to_dict()

    def test_render_is_human_readable(self):
        result = self._traced_result()
        text = obs.build_report(result, result.tracer).render()
        assert "run report: pdr -> proved" in text
        assert "phases:" in text
        assert "sat.solve" in text
