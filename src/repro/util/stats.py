"""Lightweight statistics containers shared by the engines.

Engines report their behaviour (number of SAT checks, merges found, nodes
saved, ...) through :class:`StatsBag` so that tests and the benchmark harness
can assert on *how* a result was obtained, not only on the result itself.
"""

from __future__ import annotations

import time
from typing import Iterator


class StatsBag:
    """A dictionary of counters and gauges with a compact report format.

    Keys written with :meth:`incr` are *counters* and add up under
    :meth:`merge`; keys written with :meth:`set` or :meth:`max` are
    *gauges* (sizes, peaks, levels) and merge by maximum — summing two
    engines' ``peak_size`` would report a peak nobody ever saw.  The
    *last* write wins the classification: ``incr`` on a key previously
    written with ``set``/``max`` reclassifies it as a counter (it used
    to stay a gauge silently, so merges took the maximum of values the
    caller meant to sum).

    Besides scalars, a bag can carry *time-series*: :meth:`sample`
    appends ``(t, value)`` points under a key, the probe hooks of
    :mod:`repro.obs.probes` being the main writer.  Series serialize
    with :meth:`to_dict`, concatenate under :meth:`merge`, and are
    summarized by :class:`repro.obs.report.RunReport`.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = {}
        self._gauges: set[str] = set()
        self._series: dict[str, list[tuple[float, float]]] = {}

    def incr(self, key: str, amount: float = 1) -> None:
        self._values[key] = self._values.get(key, 0) + amount
        self._gauges.discard(key)

    def set(self, key: str, value: float) -> None:
        self._values[key] = value
        self._gauges.add(key)

    def get(self, key: str, default: float = 0) -> float:
        return self._values.get(key, default)

    def max(self, key: str, value: float) -> None:
        self._values[key] = max(self._values.get(key, value), value)
        self._gauges.add(key)

    def is_gauge(self, key: str) -> bool:
        return key in self._gauges

    def gauge_keys(self) -> set[str]:
        return set(self._gauges)

    # ------------------------------------------------------------------ #
    # Time-series
    # ------------------------------------------------------------------ #

    def sample(self, key: str, value: float, t: float | None = None) -> None:
        """Append one ``(t, value)`` point to the series under ``key``.

        ``t`` defaults to ``time.perf_counter()``; probe hooks pass the
        active tracer's clock so series align with its spans.
        """
        if t is None:
            t = time.perf_counter()
        self._series.setdefault(key, []).append((t, float(value)))

    def series(self, key: str) -> list[tuple[float, float]]:
        """The recorded ``(t, value)`` points of ``key`` (a copy)."""
        return list(self._series.get(key, ()))

    def series_keys(self) -> set[str]:
        return set(self._series)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._values.items()))

    def as_dict(self) -> dict[str, float]:
        return dict(self._values)

    def to_dict(self) -> dict:
        """JSON-serializable form, preserving the counter/gauge split."""
        payload = {
            "values": dict(self._values),
            "gauges": sorted(self._gauges),
        }
        if self._series:
            payload["series"] = {
                key: [[t, value] for t, value in points]
                for key, points in self._series.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "StatsBag":
        """Rebuild a bag serialized by :meth:`to_dict`."""
        bag = cls()
        gauges = set(payload.get("gauges", ()))
        for key, value in payload.get("values", {}).items():
            if key in gauges:
                bag.set(key, value)
            else:
                bag.incr(key, value)
        for key, points in payload.get("series", {}).items():
            bag._series[key] = [
                (float(t), float(value)) for t, value in points
            ]
        return bag

    def merge(self, other: "StatsBag") -> None:
        """Fold another bag in: counters add, gauges keep the maximum;
        time-series concatenate in timestamp order."""
        for key, value in other:
            if key in other._gauges or key in self._gauges:
                self.max(key, value)
            else:
                self.incr(key, value)
        for key, points in other._series.items():
            merged = self._series.setdefault(key, [])
            merged.extend(points)
            merged.sort()

    def report(self) -> str:
        lines = [f"{key:<40} {value:g}" for key, value in self]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsBag({self._values!r})"
