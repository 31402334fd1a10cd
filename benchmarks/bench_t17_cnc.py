"""Experiment T17 — cube-and-conquer vs. monolithic SAT engines.

Two workloads the ``cnc`` engine was built for:

* **multiplier miters** — wide-input, deep combinational equivalence
  cones.  One monolithic SAT call (what BMC does at depth 0) pays the
  full conflict bill; the Cube stage's lookahead splits drop it, and a
  PROVED verdict falls out where BMC is structurally stuck at UNKNOWN.
* **deep counters** — planted bugs hundreds of steps in.  BMC sweeps
  one depth per solver call; ``cnc`` unrolls once into a single
  "violation within <= bound" target whose cubes solve concurrently.

The headline record (``cnc_beats_bmc``): on at least one instance, cnc
with 4 workers beats single-core BMC wall-clock — asserted on the deep
counter where the margin is structural, recorded everywhere.  A worker
sweep (1/2/4/8) records the scaling shape on the hardest miter; on a
single-core container the useful signal is that decomposition, not
parallel hardware, carries the win.

Wall times and verdicts land in the benchmark's ``extra_info``.  Set
``BENCH_TINY=1`` (CI bench-smoke) to shrink the instances.
"""

import os
import time

import pytest

from repro.circuits import generators as G
from repro.mc import verify
from repro.mc.result import Status

# The BENCH_TINY=1 (CI bench-smoke) families; the golden cost counters
# in tests/test_paper_engine_goldens.py run them too.
TINY_MITER_FAMILIES = {
    "mul_miter_3": lambda: G.multiplier_miter(3),
    "mul_miter_4": lambda: G.multiplier_miter(4),
    "mul_miter_4_buggy": lambda: G.multiplier_miter(4, safe=False),
}
TINY_DEEP_FAMILIES = {
    "mod_counter_8_120_buggy": (
        lambda: G.mod_counter(8, 120, safe=False), 128),
}

# The Cube stage's settings, at every size.
CNC_OPTIONS = {"cube_depth": 2, "candidates_limit": 6}

if os.environ.get("BENCH_TINY"):
    MITER_FAMILIES = TINY_MITER_FAMILIES
    DEEP_FAMILIES = TINY_DEEP_FAMILIES
    SCALING_DESIGN = ("mul_miter_4", lambda: G.multiplier_miter(4))
else:
    MITER_FAMILIES = {
        "mul_miter_4": lambda: G.multiplier_miter(4),
        "mul_miter_5": lambda: G.multiplier_miter(5),
        "mul_miter_5_buggy": lambda: G.multiplier_miter(5, safe=False),
    }
    DEEP_FAMILIES = {
        "mod_counter_8_250_buggy": (
            lambda: G.mod_counter(8, 250, safe=False), 255),
        "bug_at_depth_30": (lambda: G.bug_at_depth(30), 34),
    }
    SCALING_DESIGN = ("mul_miter_5", lambda: G.multiplier_miter(5))

WORKER_SWEEP = (1, 2, 4, 8)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _cnc(build, max_depth=0, workers=4):
    return verify(
        build(), method="cnc", max_depth=max_depth, workers=workers,
        **CNC_OPTIONS,
    )


@pytest.mark.parametrize("design", list(MITER_FAMILIES))
def test_t17_cnc_on_miters(benchmark, record_row, design):
    build = MITER_FAMILIES[design]
    bmc_seconds, bmc_result = _timed(
        lambda: verify(build(), method="bmc", max_depth=0)
    )
    cnc_seconds, cnc_result = _timed(lambda: _cnc(build))
    portfolio_seconds, portfolio_result = _timed(
        lambda: verify(
            build(), method="portfolio", max_depth=0, budget=60.0,
            policy="predict",
        )
    )

    # Verdict contract: on buggy miters everyone finds the bug and the
    # cnc trace replays; on safe ones cnc upgrades BMC's bound-exhausted
    # UNKNOWN to a genuine PROVED (depth 0 of a combinational design is
    # the whole space).
    if design.endswith("_buggy"):
        assert cnc_result.status is Status.FAILED
        assert bmc_result.status is Status.FAILED
        assert cnc_result.trace.validate(build())
    else:
        assert cnc_result.status is Status.PROVED
        assert bmc_result.status is Status.UNKNOWN
    assert portfolio_result.status is cnc_result.status

    benchmark.extra_info.update(
        {
            "design": design,
            "kind": "miter",
            "cnc_seconds": cnc_seconds,
            "bmc_seconds": bmc_seconds,
            "portfolio_seconds": portfolio_seconds,
            "cnc_workers": 4,
            "cnc_cubes": cnc_result.stats.get("cnc_cubes"),
            "cnc_refuted_by_lookahead": cnc_result.stats.get(
                "cnc_refuted_by_lookahead"
            ),
            "cnc_conflicts": cnc_result.stats.get("cnc_conflicts"),
            "cnc_verdict": cnc_result.status.value,
            "bmc_verdict": bmc_result.status.value,
            "portfolio_verdict": portfolio_result.status.value,
            "cnc_beats_bmc": cnc_seconds < bmc_seconds,
        }
    )
    record_row(
        "T17 cube-and-conquer vs monolithic SAT",
        f"{'design':<24}{'kind':<9}{'cnc':>9}{'bmc':>9}{'pfolio':>9}"
        f"{'cubes':>7}{'refut':>7}",
        f"{design:<24}{'miter':<9}"
        f"{cnc_seconds * 1000:>7.0f}ms"
        f"{bmc_seconds * 1000:>7.0f}ms"
        f"{portfolio_seconds * 1000:>7.0f}ms"
        f"{cnc_result.stats.get('cnc_cubes', 0):>7.0f}"
        f"{cnc_result.stats.get('cnc_refuted_by_lookahead', 0):>7.0f}",
    )
    benchmark.pedantic(lambda: _cnc(build), rounds=1, iterations=1)


@pytest.mark.parametrize("design", list(DEEP_FAMILIES))
def test_t17_cnc_on_deep_counters(benchmark, record_row, design):
    build, max_depth = DEEP_FAMILIES[design]
    bmc_seconds, bmc_result = _timed(
        lambda: verify(build(), method="bmc", max_depth=max_depth)
    )
    cnc_seconds, cnc_result = _timed(
        lambda: _cnc(build, max_depth=max_depth)
    )

    assert bmc_result.status is Status.FAILED
    assert cnc_result.status is Status.FAILED
    assert cnc_result.trace.validate(build())
    assert cnc_result.iterations == bmc_result.iterations
    # The acceptance record: one deep unrolling conquered in cubes beats
    # the engine that must sweep every depth on one core.
    if design.startswith("mod_counter"):
        assert cnc_seconds < bmc_seconds, (cnc_seconds, bmc_seconds)

    benchmark.extra_info.update(
        {
            "design": design,
            "kind": "deep_counter",
            "cnc_seconds": cnc_seconds,
            "bmc_seconds": bmc_seconds,
            "cnc_workers": 4,
            "cnc_cubes": cnc_result.stats.get("cnc_cubes"),
            "cnc_verdict": cnc_result.status.value,
            "bmc_verdict": bmc_result.status.value,
            "depth": cnc_result.iterations,
            "cnc_beats_bmc": cnc_seconds < bmc_seconds,
        }
    )
    record_row(
        "T17 cube-and-conquer vs monolithic SAT",
        f"{'design':<24}{'kind':<9}{'cnc':>9}{'bmc':>9}{'pfolio':>9}"
        f"{'cubes':>7}{'refut':>7}",
        f"{design:<24}{'deep':<9}"
        f"{cnc_seconds * 1000:>7.0f}ms"
        f"{bmc_seconds * 1000:>7.0f}ms"
        f"{'-':>9}"
        f"{cnc_result.stats.get('cnc_cubes', 0):>7.0f}"
        f"{'-':>7}",
    )
    benchmark.pedantic(
        lambda: _cnc(build, max_depth=max_depth), rounds=1, iterations=1
    )


def test_t17_worker_scaling(benchmark, record_row):
    design, build = SCALING_DESIGN
    timings = {}
    for workers in WORKER_SWEEP:
        seconds, result = _timed(
            lambda: _cnc(build, workers=workers)
        )
        assert result.status is Status.PROVED
        timings[workers] = seconds

    benchmark.extra_info.update(
        {
            "design": design,
            **{f"workers_{w}_seconds": s for w, s in timings.items()},
        }
    )
    record_row(
        "T17 conquer-pool worker sweep",
        f"{'design':<24}" + "".join(f"{f'w={w}':>9}" for w in WORKER_SWEEP),
        f"{design:<24}" + "".join(
            f"{timings[w] * 1000:>7.0f}ms" for w in WORKER_SWEEP
        ),
    )
    benchmark.pedantic(
        lambda: _cnc(build, workers=2), rounds=1, iterations=1
    )
