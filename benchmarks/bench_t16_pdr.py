"""Experiment T16 — PDR vs. interpolation vs. BMC on deep PROVED and
FAILED families.

The workload PDR exists for: state spaces whose proofs need neither a
deep unrolling (interpolation's cost) nor a depth sweep (BMC's), just a
handful of single-step frame queries.  Two sides:

* **PROVED** — wide counters and shift structures; PDR and itp must
  both prove them (PDR with a certified inductive invariant), BMC is
  structurally stuck at UNKNOWN;
* **FAILED** — deep planted bugs; all three engines find them and the
  traces replay.

Wall times, verdicts, frame/iteration counts and invariant sizes land
in the benchmark's ``extra_info``.  Set ``BENCH_TINY=1`` (CI
bench-smoke) to shrink the instances.

The observability overhead check (``test_t16_obs_overhead``) runs each
PROVED family once untraced and once with :mod:`repro.obs` tracing on,
asserts the scalar stats are identical (the probes must never perturb
the search), writes the Chrome trace to ``benchmarks/traces/`` (uploaded
as a CI artifact, loadable in chrome://tracing / Perfetto) and records
``obs_*`` overhead numbers in its ``extra_info``.
"""

import os
import pathlib
import time

import pytest

TRACE_DIR = pathlib.Path(__file__).parent / "traces"

from repro.circuits import generators as G
from repro.itp import ItpOptions
from repro.mc import verify
from repro.mc.result import Status
from repro.pdr import PdrOptions, check_certificate

# The BENCH_TINY=1 (CI bench-smoke) families; the golden cost counters
# in tests/test_paper_engine_goldens.py run them too.
TINY_PROVED_FAMILIES = {
    "mod_counter_16": lambda: G.mod_counter(16),
    "mod_counter_24": lambda: G.mod_counter(24),
    "shift_register_16": lambda: G.shift_register(16),
}
TINY_FAILED_FAMILIES = {
    "bug_at_depth_8": lambda: G.bug_at_depth(8),
    "updown_6_buggy": lambda: G.up_down_counter(6, safe=False),
}
TINY_MAX_DEPTH = 16

if os.environ.get("BENCH_TINY"):
    PROVED_FAMILIES = TINY_PROVED_FAMILIES
    FAILED_FAMILIES = TINY_FAILED_FAMILIES
    MAX_DEPTH = TINY_MAX_DEPTH
else:
    PROVED_FAMILIES = {
        "mod_counter_64": lambda: G.mod_counter(64),
        "mod_counter_128": lambda: G.mod_counter(128),
        "shift_register_32": lambda: G.shift_register(32),
        "updown_16": lambda: G.up_down_counter(16),
    }
    FAILED_FAMILIES = {
        "bug_at_depth_12": lambda: G.bug_at_depth(12),
        "mod_counter_5_28_buggy": lambda: G.mod_counter(5, 28, safe=False),
        "updown_8_buggy": lambda: G.up_down_counter(8, safe=False),
    }
    MAX_DEPTH = 32

ENGINES = ("pdr", "itp", "bmc")


def _run(engine, netlist):
    if engine == "pdr":
        options = {"options": PdrOptions(max_frames=MAX_DEPTH)}
    elif engine == "itp":
        options = {"options": ItpOptions(max_depth=MAX_DEPTH)}
    else:
        options = {"max_depth": MAX_DEPTH}
    start = time.perf_counter()
    result = verify(netlist, method=engine, **options)
    return time.perf_counter() - start, result


def _record(design, kind, timings, results, benchmark, record_row):
    pdr_result = results["pdr"]
    benchmark.extra_info.update(
        {
            "design": design,
            "kind": kind,
            "pdr_frames": pdr_result.iterations,
            "pdr_sat_calls": pdr_result.stats.get("sat_calls"),
            "invariant_clauses": pdr_result.stats.get(
                "invariant_clauses"
            ),
            "pdr_lemmas": pdr_result.stats.get("pdr_lemmas_active"),
            **{f"{engine}_seconds": timings[engine] for engine in ENGINES},
            **{
                f"{engine}_verdict": results[engine].status.value
                for engine in ENGINES
            },
        }
    )
    record_row(
        "T16 PDR vs interpolation vs BMC",
        f"{'design':<24}{'kind':<8}{'pdr':>9}{'itp':>9}{'bmc':>9}"
        f"{'frames':>8}{'inv':>6}",
        f"{design:<24}{kind:<8}"
        f"{timings['pdr'] * 1000:>7.0f}ms"
        f"{timings['itp'] * 1000:>7.0f}ms"
        f"{timings['bmc'] * 1000:>7.0f}ms"
        f"{pdr_result.iterations:>8d}"
        f"{pdr_result.stats.get('invariant_clauses', 0):>6.0f}",
    )


@pytest.mark.parametrize("design", list(PROVED_FAMILIES))
def test_t16_pdr_proves_where_bmc_cannot(benchmark, record_row, design):
    build = PROVED_FAMILIES[design]
    timings, results = {}, {}
    for engine in ENGINES:
        timings[engine], results[engine] = _run(engine, build())

    # The deep-PROVED contract: PDR proves with a certificate that
    # re-checks on a fresh solver, interpolation agrees, BMC never can.
    pdr_result = results["pdr"]
    assert pdr_result.status is Status.PROVED
    assert pdr_result.certificate is not None
    check_certificate(build(), pdr_result.certificate)
    assert results["itp"].status is Status.PROVED
    assert results["bmc"].status is Status.UNKNOWN

    benchmark.pedantic(
        lambda: verify(
            build(), method="pdr",
            options=PdrOptions(max_frames=MAX_DEPTH),
        ),
        rounds=1, iterations=1,
    )
    _record(design, "proved", timings, results, benchmark, record_row)


@pytest.mark.parametrize("design", list(FAILED_FAMILIES))
def test_t16_pdr_refutes_with_replayable_traces(
    benchmark, record_row, design
):
    build = FAILED_FAMILIES[design]
    timings, results = {}, {}
    for engine in ENGINES:
        timings[engine], results[engine] = _run(engine, build())

    # The FAILED contract: all three engines find the bug; PDR's trace
    # replays and is never shorter than BMC's breadth-first minimum.
    for engine in ENGINES:
        assert results[engine].status is Status.FAILED, engine
    assert results["pdr"].trace.validate(build())
    assert results["pdr"].trace.depth >= results["bmc"].trace.depth

    benchmark.pedantic(
        lambda: verify(
            build(), method="pdr",
            options=PdrOptions(max_frames=MAX_DEPTH),
        ),
        rounds=1, iterations=1,
    )
    _record(design, "failed", timings, results, benchmark, record_row)


@pytest.mark.parametrize("design", list(PROVED_FAMILIES))
def test_t16_obs_overhead(benchmark, record_row, design):
    build = PROVED_FAMILIES[design]
    options = PdrOptions(max_frames=MAX_DEPTH)

    start = time.perf_counter()
    plain = verify(build(), method="pdr", options=options)
    plain_seconds = time.perf_counter() - start

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"t16_{design}.json"
    start = time.perf_counter()
    traced = verify(
        build(), method="pdr", options=options, trace=str(trace_path)
    )
    traced_seconds = time.perf_counter() - start

    # The zero-perturbation contract: probes only read kernel counters,
    # so the traced run's search trajectory — every scalar stat — must
    # match the untraced run bit for bit.
    assert traced.status is plain.status
    assert traced.stats.as_dict() == plain.stats.as_dict()
    assert trace_path.exists()

    # Same contract on the BDD side: bdd_tick reads the manager's scalar
    # hit/miss counters and cache lens directly (no summary dict per
    # tick), and the traced traversal must report identical stats —
    # node counts, cache hits, iteration gauges — to the untraced one.
    plain_bdd = verify(build(), method="reach_bdd", max_depth=MAX_DEPTH)
    traced_bdd = verify(
        build(), method="reach_bdd", max_depth=MAX_DEPTH, trace=True
    )
    assert traced_bdd.status is plain_bdd.status
    assert traced_bdd.stats.as_dict() == plain_bdd.stats.as_dict()
    assert any(
        record.name.startswith("bdd.")
        for record in traced_bdd.tracer.counters
    )

    overhead = (
        traced_seconds / plain_seconds if plain_seconds > 0 else 1.0
    )
    benchmark.extra_info.update(
        {
            "design": design,
            "obs_plain_seconds": plain_seconds,
            "obs_traced_seconds": traced_seconds,
            "obs_overhead_ratio": overhead,
            "obs_trace_spans": len(traced.tracer.spans),
            "obs_trace_samples": len(traced.tracer.counters),
            "obs_trace_file": trace_path.name,
        }
    )
    record_row(
        "T16 observability overhead",
        f"{'design':<24}{'plain':>9}{'traced':>9}{'ratio':>7}"
        f"{'spans':>7}{'samples':>9}",
        f"{design:<24}"
        f"{plain_seconds * 1000:>7.0f}ms"
        f"{traced_seconds * 1000:>7.0f}ms"
        f"{overhead:>6.2f}x"
        f"{len(traced.tracer.spans):>7d}"
        f"{len(traced.tracer.counters):>9d}",
    )
    benchmark.pedantic(
        lambda: verify(build(), method="pdr", options=options),
        rounds=1, iterations=1,
    )
