"""Post-run aggregation: one human-readable summary, one JSON document.

:func:`build_report` folds a :class:`~repro.mc.result.VerificationResult`
and the :class:`~repro.obs.trace.Tracer` that observed its run into a
:class:`RunReport`:

* **engine timeline** — the top-level spans in start order (who ran when,
  for how long, with what verdict);
* **per-phase breakdown** — spans grouped by name: call count, total and
  mean wall time, share of the run;
* **series summary** — per counter series: sample count, final and peak
  value (the peak gauges of the run);
* the result's :class:`~repro.util.stats.StatsBag`, counters and gauges
  split as the bag itself classifies them.

``to_dict()`` is the machine-readable document the CLI writes for
``repro mc --report out.json``; ``render()`` is the terminal summary.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.obs.trace import Tracer


@dataclass
class PhaseSummary:
    """All spans sharing one name, aggregated."""

    name: str
    category: str
    count: int
    total_seconds: float
    max_seconds: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "count": self.count,
            "total_seconds": self.total_seconds,
            "max_seconds": self.max_seconds,
        }


@dataclass
class SeriesSummary:
    """One counter series, summarized.

    ``peak`` is the series maximum; ``p50``/``p95`` are sample
    quantiles over the recorded values, so reports built from service
    runs show the latency/gauge *distribution*, not just its peak.
    """

    name: str
    samples: int
    first: float
    last: float
    peak: float
    p50: float = 0.0
    p95: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "first": self.first,
            "last": self.last,
            "peak": self.peak,
            "p50": self.p50,
            "p95": self.p95,
        }


@dataclass
class RunReport:
    """The post-run observability document of one verification run."""

    engine: str
    status: str
    iterations: int
    wall_seconds: float
    timeline: list[dict] = field(default_factory=list)
    phases: list[PhaseSummary] = field(default_factory=list)
    series: list[SeriesSummary] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    span_count: int = 0
    worker_pids: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "status": self.status,
            "iterations": self.iterations,
            "wall_seconds": self.wall_seconds,
            "timeline": self.timeline,
            "phases": [phase.to_dict() for phase in self.phases],
            "series": [series.to_dict() for series in self.series],
            "counters": self.counters,
            "gauges": self.gauges,
            "span_count": self.span_count,
            "worker_pids": self.worker_pids,
        }

    def write_json(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    def render(self) -> str:
        """The human-readable post-run summary."""
        lines = [
            f"run report: {self.engine} -> {self.status} "
            f"({self.iterations} iterations, {self.wall_seconds * 1000:.0f}ms"
            f", {self.span_count} spans)"
        ]
        if self.timeline:
            lines.append("timeline:")
            for entry in self.timeline:
                attrs = entry.get("attrs") or {}
                detail = " ".join(
                    f"{key}={value}" for key, value in sorted(attrs.items())
                )
                lines.append(
                    f"  {entry['start'] * 1000:>8.1f}ms "
                    f"+{entry['duration'] * 1000:>8.1f}ms  "
                    f"{entry['name']}"
                    + (f"  [{detail}]" if detail else "")
                )
        if self.phases:
            lines.append("phases:")
            lines.append(
                f"  {'phase':<28}{'calls':>7}{'total':>10}{'mean':>10}"
                f"{'share':>8}"
            )
            for phase in self.phases:
                mean = phase.total_seconds / phase.count if phase.count else 0
                share = (
                    phase.total_seconds / self.wall_seconds
                    if self.wall_seconds
                    else 0.0
                )
                lines.append(
                    f"  {phase.name:<28}{phase.count:>7}"
                    f"{phase.total_seconds * 1000:>8.1f}ms"
                    f"{mean * 1000:>8.2f}ms"
                    f"{share:>7.0%}"
                )
        if self.series:
            lines.append("series (gauge distributions):")
            for series in self.series:
                lines.append(
                    f"  {series.name:<28}{series.samples:>5} samples"
                    f"  last {series.last:g}  p50 {series.p50:g}"
                    f"  p95 {series.p95:g}  max {series.peak:g}"
                )
        if self.gauges:
            lines.append("stats gauges:")
            for key, value in sorted(self.gauges.items()):
                lines.append(f"  {key:<38} {value:g}")
        if self.counters:
            lines.append("stats counters:")
            for key, value in sorted(self.counters.items()):
                lines.append(f"  {key:<38} {value:g}")
        return "\n".join(lines)


def build_report(result, tracer: Tracer | None = None) -> RunReport:
    """Aggregate one result (and the tracer that watched it) into a report.

    ``result`` is a :class:`~repro.mc.result.VerificationResult`; the
    tracer is optional — without one the report still carries the stats
    split and any time-series attached to the result's bag (with one,
    the series come from the tracer's samples, which include the bag's).
    """
    bag = result.stats
    gauges = {}
    counters = {}
    for key, value in bag:
        if bag.is_gauge(key):
            gauges[key] = value
        else:
            counters[key] = value
    report = RunReport(
        engine=result.engine,
        status=result.status.value,
        iterations=result.iterations,
        wall_seconds=0.0,
        counters=counters,
        gauges=gauges,
    )
    # Every sample in the bag's series went to the run's tracer as well,
    # so with a tracer its samples alone are the series.
    series_points: dict[str, list[tuple[float, float]]] = (
        {key: list(bag.series(key)) for key in bag.series_keys()}
        if tracer is None else {}
    )
    if tracer is not None:
        spans = sorted(tracer.spans, key=lambda s: s.start)
        report.span_count = len(spans)
        report.worker_pids = sorted({span.pid for span in spans})
        if spans:
            start = min(span.start for span in spans)
            end = max(span.start + span.duration for span in spans)
            report.wall_seconds = end - start
        ids = {span.span_id for span in spans}
        report.timeline = [
            {
                "name": span.name,
                "category": span.category,
                "pid": span.pid,
                "start": span.start - (spans[0].start if spans else 0.0),
                "duration": span.duration,
                "attrs": span.attrs,
            }
            for span in spans
            if span.parent_id is None or span.parent_id not in ids
        ]
        grouped: dict[str, PhaseSummary] = {}
        for span in spans:
            phase = grouped.get(span.name)
            if phase is None:
                grouped[span.name] = PhaseSummary(
                    name=span.name,
                    category=span.category,
                    count=1,
                    total_seconds=span.duration,
                    max_seconds=span.duration,
                )
            else:
                phase.count += 1
                phase.total_seconds += span.duration
                phase.max_seconds = max(phase.max_seconds, span.duration)
        report.phases = sorted(
            grouped.values(), key=lambda p: -p.total_seconds
        )
        for counter in tracer.counters:
            series_points.setdefault(counter.name, []).append(
                (counter.t, counter.value)
            )
    from repro.obs.metrics import quantiles

    for name in sorted(series_points):
        points = sorted(series_points[name])
        if not points:
            continue
        values = [value for _, value in points]
        p50, p95 = quantiles(values, (0.5, 0.95))
        report.series.append(
            SeriesSummary(
                name=name,
                samples=len(points),
                first=points[0][1],
                last=points[-1][1],
                peak=max(values),
                p50=p50,
                p95=p95,
            )
        )
    if not report.wall_seconds:
        report.wall_seconds = bag.get("wall_seconds", 0.0)
    return report
