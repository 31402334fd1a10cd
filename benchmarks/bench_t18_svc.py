"""Experiment T18 — verification-service telemetry overhead.

The fleet-telemetry contract from the svc stats-identity tests, measured
instead of just asserted: running the durable queue + worker loop with
the metrics registry enabled and per-job tracing on must return
bit-identical verdict payloads to an unobserved run, and the wall-clock
overhead of metering + trace upload must stay a small constant factor.

Each batch submits a mix of PROVED and FAILED designs, drains it with
one in-process :class:`repro.svc.worker.Worker`, and compares:

* **plain** — metrics disabled, no job tracing (the default);
* **observed** — :mod:`repro.obs.metrics` enabled plus
  ``Worker(trace_jobs=True)``, so every job uploads a content-addressed
  obs trace with its verdict.

``obs_svc_plain_seconds`` / ``obs_svc_observed_seconds`` /
``obs_svc_overhead_ratio`` land in the benchmark's ``extra_info``.  Set
``BENCH_TINY=1`` (CI bench-smoke) to shrink the batch.
"""

import json
import os
import time

from repro.circuits import generators as G
from repro.circuits.parse import serialize_netlist
from repro.obs import metrics as _met
from repro.svc.queue import TaskQueue
from repro.svc.store import Store
from repro.svc.worker import Worker

if os.environ.get("BENCH_TINY"):
    BATCH = [
        ("pdr", lambda: G.mod_counter(4, 12)),
        ("bmc", lambda: G.mod_counter(4, 12, safe=False)),
    ]
else:
    BATCH = [
        ("pdr", lambda: G.mod_counter(6, 40)),
        ("pdr", lambda: G.shift_register(8)),
        ("bmc", lambda: G.mod_counter(4, 12, safe=False)),
        ("bmc", lambda: G.bug_at_depth(6)),
    ]


def _run_batch(db_path, *, trace_jobs: bool):
    """Submit BATCH, drain it with one worker, return (payloads, stats)."""
    store = Store(db_path)
    try:
        queue = TaskQueue(store)
        job_ids = [
            queue.submit(serialize_netlist(build()), method=method)
            for method, build in BATCH
        ]
        start = time.perf_counter()
        Worker(store, trace_jobs=trace_jobs).run(drain=True)
        seconds = time.perf_counter() - start
        payloads, events = [], 0
        for job_id in job_ids:
            payload = dict(queue.job(job_id).result)
            payload.pop("stats")  # wall-clock noise, not verdict content
            payloads.append(payload)
            events += len(queue.events(job_id))
        return payloads, seconds, events, store.count_traces()
    finally:
        store.close()


def test_t18_svc_telemetry_overhead(benchmark, record_row, tmp_path):
    was = _met.ENABLED
    _met.disable()
    try:
        plain, plain_seconds, plain_events, plain_traces = _run_batch(
            tmp_path / "plain.sqlite", trace_jobs=False
        )
        _met.enable()
        _met.REGISTRY.reset()
        observed, observed_seconds, observed_events, traces = _run_batch(
            tmp_path / "observed.sqlite", trace_jobs=True
        )
        doc = _met.REGISTRY.to_json()
    finally:
        _met.disable()
        _met.REGISTRY.reset()
        if was:
            _met.enable()

    # The zero-perturbation contract: metering and per-job tracing only
    # read timestamps and tally into private structures, so the verdict
    # payloads and the persisted event-log shape must match bit for bit.
    assert json.dumps(plain, sort_keys=True) == json.dumps(
        observed, sort_keys=True
    )
    assert observed_events == plain_events
    assert plain_traces == 0
    assert traces == len(BATCH)
    claimed = sum(
        sample["value"]
        for sample in doc["repro_jobs_claimed_total"]["samples"]
    )
    assert claimed == len(BATCH)

    overhead = (
        observed_seconds / plain_seconds if plain_seconds > 0 else 1.0
    )
    benchmark.extra_info.update(
        {
            "jobs": len(BATCH),
            "obs_svc_plain_seconds": plain_seconds,
            "obs_svc_observed_seconds": observed_seconds,
            "obs_svc_overhead_ratio": overhead,
            "obs_svc_job_events": observed_events,
            "traces_stored": traces,
        }
    )
    record_row(
        "T18 service telemetry overhead",
        f"{'jobs':>5}{'plain':>9}{'observed':>10}{'ratio':>7}"
        f"{'events':>8}{'traces':>8}",
        f"{len(BATCH):>5d}"
        f"{plain_seconds * 1000:>7.0f}ms"
        f"{observed_seconds * 1000:>8.0f}ms"
        f"{overhead:>6.2f}x"
        f"{observed_events:>8d}"
        f"{traces:>8d}",
    )
    benchmark.pedantic(
        lambda: _run_batch(tmp_path / "bench.sqlite", trace_jobs=False),
        rounds=1, iterations=1,
    )
