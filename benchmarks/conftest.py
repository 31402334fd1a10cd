"""Benchmark-harness helpers.

Each ``bench_*`` module regenerates one experiment; its docstring says
which.  Besides pytest-benchmark's timing columns, every benchmark
records its experiment-specific metrics (sizes, check counts, iteration
counts, per-engine wall times) in ``benchmark.extra_info``, which
``--benchmark-json`` writes out, and appends a human-readable row to
``benchmarks/results.txt`` so the tables survive the run.
"""

from __future__ import annotations

import pathlib

import pytest

_RESULTS = pathlib.Path(__file__).parent / "results.txt"
_seen_headers: set[str] = set()


@pytest.fixture
def session():
    """A fresh :class:`repro.api.Session` per benchmark.

    Engine runs go through the typed task API; the session is
    function-scoped so its structural-hash result cache is cold for
    every benchmark (a warm cache would time the cache, not the engine).
    """
    from repro.api import Session

    return Session()


@pytest.fixture
def record_row():
    """Append one formatted row to the shared results file."""

    def _record(experiment: str, header: str, row: str) -> None:
        with _RESULTS.open("a") as handle:
            if experiment not in _seen_headers:
                _seen_headers.add(experiment)
                handle.write(f"\n== {experiment} ==\n{header}\n")
            handle.write(row + "\n")

    return _record


def pytest_sessionstart(session):
    # Start each benchmark session with a fresh results file.
    if _RESULTS.exists():
        _RESULTS.unlink()
