"""Tests for the labeled metrics registry (:mod:`repro.obs.metrics`).

Covers the three metric kinds and their label children, both exposition
formats (and their agreement — they must render the same ``collect()``
snapshot), scrape-time collectors, quantile estimators, the
``ENABLED``-flag zero-cost discipline, and the report-level p50/p95
series summaries layered on top.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_family,
    histogram_quantile,
    quantiles,
)

# A Prometheus text-format sample line: name{labels} value
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$"
)


def _parse_prometheus(text: str) -> tuple[dict, dict]:
    """Parse exposition text into {type-by-name}, {(name, labels): value}."""
    types: dict[str, str] = {}
    samples: dict[tuple[str, str], float] = {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.split()
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match is not None, f"unparseable sample line: {line!r}"
        value = match.group("value")
        parsed = math.inf if value == "+Inf" else float(value)
        samples[(match.group("name"), match.group("labels") or "")] = parsed
    return types, samples


class TestFamilies:
    def test_counter_labels_and_monotonicity(self):
        registry = MetricsRegistry()
        claims = registry.counter("claims_total", "claims", ("method",))
        claims.labels("pdr").inc()
        claims.labels("pdr").inc(2)
        claims.labels("bmc").inc()
        snap = claims.snapshot()
        values = {
            sample["labels"]["method"]: sample["value"]
            for sample in snap["samples"]
        }
        assert values == {"pdr": 3.0, "bmc": 1.0}
        with pytest.raises(ValueError, match="only go up"):
            claims.labels("pdr").inc(-1)

    def test_labelless_family_exposes_zero(self):
        registry = MetricsRegistry()
        requeues = registry.counter("requeues_total", "requeues")
        snap = requeues.snapshot()
        assert snap["samples"] == [{"labels": {}, "value": 0.0}]

    def test_gauge_set_inc_dec_and_callback(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth", "queue depth")
        depth.set(5)
        depth.inc()
        depth.dec(2)
        assert depth.snapshot()["samples"][0]["value"] == 4.0
        live = registry.gauge("live", "evaluated at collect")
        live.set_function(lambda: 17)
        assert live.snapshot()["samples"][0]["value"] == 17.0

    def test_histogram_buckets_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        sample = hist.snapshot()["samples"][0]
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(56.05)
        assert sample["buckets"] == [
            [0.1, 1], [1.0, 3], [10.0, 4], [math.inf, 5],
        ]

    def test_histogram_boundary_lands_in_le_bucket(self):
        # le is inclusive: an observation exactly on a bound counts there.
        hist = Histogram("h", "", buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.snapshot()["samples"][0]["buckets"][0] == [1.0, 1]

    def test_bad_names_and_buckets_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("bad-name", "")
        with pytest.raises(ValueError, match="invalid label name"):
            Gauge("ok", "", ("bad-label",))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "", buckets=(1.0, 1.0))

    def test_label_arity_enforced(self):
        counter = Counter("c_total", "", ("a", "b"))
        with pytest.raises(ValueError, match="expects labels"):
            counter.labels("only-one")

    def test_registry_rejects_type_or_label_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "", ("m",))
        assert registry.counter("x_total", "", ("m",)) is not None  # idempotent
        with pytest.raises(ValueError, match="different type"):
            registry.gauge("x_total", "", ("m",))
        with pytest.raises(ValueError, match="different type"):
            registry.counter("x_total", "", ("other",))


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        claims = registry.counter("repro_claims_total", "claims", ("method",))
        claims.labels("pdr").inc(3)
        claims.labels("bmc").inc()
        depth = registry.gauge("repro_depth", "queue depth")
        depth.set(7)
        lat = registry.histogram(
            "repro_lat_seconds", "latency", ("method",), buckets=(0.1, 1.0)
        )
        lat.labels("pdr").observe(0.05)
        lat.labels("pdr").observe(0.5)
        return registry

    def test_prometheus_text_parses_and_has_type_headers(self):
        types, samples = _parse_prometheus(self._populated().to_prometheus())
        assert types["repro_claims_total"] == "counter"
        assert types["repro_depth"] == "gauge"
        assert types["repro_lat_seconds"] == "histogram"
        assert samples[("repro_claims_total", 'method="pdr"')] == 3
        assert samples[("repro_depth", "")] == 7
        assert samples[("repro_lat_seconds_bucket",
                        'method="pdr",le="0.1"')] == 1
        assert samples[("repro_lat_seconds_bucket",
                        'method="pdr",le="+Inf"')] == 2
        assert samples[("repro_lat_seconds_count", 'method="pdr"')] == 2
        assert samples[("repro_lat_seconds_sum",
                        'method="pdr"')] == pytest.approx(0.55)

    def test_json_and_prometheus_agree(self):
        registry = self._populated()
        doc = registry.to_json()
        _, samples = _parse_prometheus(registry.to_prometheus())
        for family in doc.values():
            for sample in family["samples"]:
                labels = ",".join(
                    f'{key}="{value}"'
                    for key, value in sample["labels"].items()
                )
                if family["type"] == "histogram":
                    assert samples[
                        (family["name"] + "_count", labels)
                    ] == sample["count"]
                    for le, cum in sample["buckets"]:
                        le_str = "+Inf" if le == math.inf else (
                            str(int(le)) if float(le).is_integer()
                            else repr(le)
                        )
                        key = (labels + "," if labels else "") + \
                            f'le="{le_str}"'
                        assert samples[
                            (family["name"] + "_bucket", key)
                        ] == cum
                else:
                    assert samples[
                        (family["name"], labels)
                    ] == sample["value"]

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", "", ("path",))
        counter.labels('we"ird\\name\n').inc()
        text = registry.to_prometheus()
        assert 'path="we\\"ird\\\\name\\n"' in text


class TestCollectors:
    def test_collector_families_appear_in_both_formats(self):
        registry = MetricsRegistry()
        registry.register_collector(
            lambda: [{
                "name": "derived_depth",
                "type": "gauge",
                "help": "from the store",
                "samples": [{"labels": {}, "value": 42}],
            }]
        )
        assert registry.to_json()["derived_depth"]["samples"][0]["value"] == 42
        assert "derived_depth 42" in registry.to_prometheus()

    def test_collector_collision_with_registered_family_raises(self):
        registry = MetricsRegistry()
        registry.counter("dup_total", "")
        registry.register_collector(
            lambda: [{"name": "dup_total", "type": "counter", "help": "",
                      "samples": []}]
        )
        with pytest.raises(ValueError, match="collides"):
            registry.collect()

    def test_histogram_family_builds_snapshot_from_values(self):
        family = histogram_family(
            "f_seconds", "latencies",
            [({"method": "pdr"}, [0.05, 0.2, 3.0])],
            buckets=(0.1, 1.0),
        )
        sample = family["samples"][0]
        assert sample["count"] == 3
        assert sample["buckets"] == [[0.1, 1], [1.0, 2], [math.inf, 3]]


class TestQuantiles:
    def test_histogram_quantile_interpolates(self):
        buckets = [[0.1, 0], [1.0, 10], [math.inf, 10]]
        # Rank 5 of 10 lands mid-bucket (0.1, 1.0]: interpolate.
        assert histogram_quantile(0.5, buckets) == pytest.approx(0.55)
        assert histogram_quantile(1.0, buckets) == pytest.approx(1.0)

    def test_histogram_quantile_inf_bucket_returns_lower_bound(self):
        buckets = [[0.1, 0], [1.0, 0], [math.inf, 5]]
        assert histogram_quantile(0.5, buckets) == pytest.approx(1.0)

    def test_histogram_quantile_empty_and_zero_total(self):
        assert histogram_quantile(0.5, []) == 0.0
        assert histogram_quantile(0.5, [[1.0, 0], [math.inf, 0]]) == 0.0

    def test_exact_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0]
        p50, p95 = quantiles(values, (0.5, 0.95))
        assert p50 == pytest.approx(2.5)
        assert p95 == pytest.approx(3.85)
        assert quantiles([], (0.5,)) == [0.0]
        assert quantiles([7.0], (0.0, 0.5, 1.0)) == [7.0, 7.0, 7.0]


class TestSwitchboard:
    def test_enable_disable_flips_module_flag(self):
        was = metrics.ENABLED
        try:
            registry = metrics.enable()
            assert metrics.ENABLED and metrics.is_enabled()
            assert registry is metrics.REGISTRY
            metrics.disable()
            assert not metrics.ENABLED
        finally:
            (metrics.enable if was else metrics.disable)()

    def test_default_instruments_installed(self):
        doc = metrics.REGISTRY.to_json()
        for name in (
            "repro_jobs_submitted_total",
            "repro_jobs_claimed_total",
            "repro_jobs_completed_total",
            "repro_job_queue_wait_seconds",
            "repro_job_run_seconds",
            "repro_sat_solve_seconds",
            "repro_store_txn_seconds",
            "repro_http_requests_total",
            "repro_sse_streams",
        ):
            assert name in doc, name

    def test_disabled_instrumentation_leaves_no_tally(self, tmp_path):
        # The ENABLED guard contract: with metrics off, instrumented
        # code paths (store transactions, queue claims, SAT solves)
        # must not move any tally — the registry output is identical
        # before and after the work.
        from repro.sat.solver import Solver
        from repro.svc.queue import TaskQueue
        from repro.svc.store import Store

        was = metrics.ENABLED
        metrics.disable()
        try:
            metrics.REGISTRY.reset()
            before = metrics.REGISTRY.to_prometheus()
            store = Store(tmp_path / "m.sqlite")
            queue = TaskQueue(store)
            job_id = queue.submit("net x", method="bmc")
            queue.claim("w")
            queue.complete(job_id, "w", {"status": "unknown"})
            solver = Solver()
            solver.add_clause([1, 2])
            solver.solve()
            assert metrics.REGISTRY.to_prometheus() == before
        finally:
            if was:
                metrics.enable()


class TestReportQuantiles:
    def test_series_summary_carries_p50_p95(self):
        from repro.mc.result import Status, VerificationResult
        from repro.obs.report import build_report
        from repro.obs.trace import CounterRecord, Tracer
        from repro.util.stats import StatsBag

        tracer = Tracer(tick=0.0)
        for index, value in enumerate([1.0, 2.0, 3.0, 4.0]):
            tracer.counters.append(
                CounterRecord(
                    name="svc.queue_depth", t=float(index), value=value,
                    pid=1,
                )
            )
        result = VerificationResult(
            engine="bmc", status=Status.UNKNOWN, iterations=0,
            stats=StatsBag(),
        )
        report = build_report(result, tracer)
        series = {s.name: s for s in report.series}
        assert "svc.queue_depth" in series
        summary = series["svc.queue_depth"]
        assert summary.p50 == pytest.approx(2.5)
        assert summary.p95 == pytest.approx(3.85)
        doc = report.to_dict()
        entry = next(
            s for s in doc["series"] if s["name"] == "svc.queue_depth"
        )
        assert entry["p50"] == pytest.approx(2.5)
        rendered = report.render()
        assert "p50" in rendered and "p95" in rendered
