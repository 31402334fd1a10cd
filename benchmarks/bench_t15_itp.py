"""Experiment T15 — interpolation vs. BMC vs. BDD traversal on deep
PROVED instances.

The workload the itp engine exists for: properties whose proofs need the
whole (exponentially deep) state space.  BMC is structurally incapable
of a PROVED verdict, and backward BDD traversal pays per reachable
state; interpolation converges once the over-approximate image lands on
an inductive set, so its cost tracks interpolant size, not diameter.

For every family the three engines run under one depth budget; wall
times, verdicts, iteration counts and proof/interpolant sizes land in
the benchmark's ``extra_info``.  Set ``BENCH_TINY=1`` (CI bench-smoke)
to shrink the instances.
"""

import os
import time

import pytest

from repro.circuits import generators as G
from repro.itp import ItpOptions
from repro.mc import verify
from repro.mc.result import Status

# The BENCH_TINY=1 (CI bench-smoke) families; the golden cost counters
# in tests/test_paper_engine_goldens.py run them too.
TINY_FAMILIES = {
    "mod_counter_16": lambda: G.mod_counter(16),
    "mod_counter_24": lambda: G.mod_counter(24),
    "ring_counter_8": lambda: G.ring_counter(8),
    "updown_8": lambda: G.up_down_counter(8),
}
TINY_MAX_DEPTH = 16

if os.environ.get("BENCH_TINY"):
    FAMILIES, MAX_DEPTH = TINY_FAMILIES, TINY_MAX_DEPTH
else:
    FAMILIES = {
        "mod_counter_64": lambda: G.mod_counter(64),
        "mod_counter_128": lambda: G.mod_counter(128),
        "ring_counter_12": lambda: G.ring_counter(12),
        "updown_16": lambda: G.up_down_counter(16),
        "gray_counter_10": lambda: G.gray_counter(10),
    }
    MAX_DEPTH = 32

ENGINES = ("itp", "bmc", "reach_bdd")


def _run(engine, netlist):
    if engine == "itp":
        options = {"options": ItpOptions(max_depth=MAX_DEPTH)}
    else:
        options = {"max_depth": MAX_DEPTH}
    start = time.perf_counter()
    result = verify(netlist, method=engine, **options)
    return time.perf_counter() - start, result


@pytest.mark.parametrize("design", list(FAMILIES))
def test_t15_itp_vs_bounded_and_bdd(benchmark, record_row, design):
    build = FAMILIES[design]
    timings, results = {}, {}
    for engine in ENGINES:
        timings[engine], results[engine] = _run(engine, build())

    # The deep-PROVED contract: interpolation proves every family (with
    # each refutation replayed through the independent checker), BMC
    # never can, and the complete engines agree.
    itp_result = results["itp"]
    assert itp_result.status is Status.PROVED
    assert itp_result.stats.get("proofs_checked") >= 1
    assert results["bmc"].status is Status.UNKNOWN
    assert results["reach_bdd"].status is Status.PROVED

    benchmark.pedantic(
        lambda: verify(
            build(), method="itp",
            options=ItpOptions(max_depth=MAX_DEPTH),
        ),
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(
        {
            "design": design,
            "itp_iterations": itp_result.iterations,
            "itp_depth": itp_result.stats.get("itp_depth"),
            "proof_nodes": itp_result.stats.get("proof_nodes"),
            "interpolant_nodes": itp_result.stats.get(
                "interpolant_nodes"
            ),
            "speedup_vs_bdd": timings["reach_bdd"] / timings["itp"],
            **{f"{engine}_seconds": timings[engine] for engine in ENGINES},
            **{
                f"{engine}_verdict": results[engine].status.value
                for engine in ENGINES
            },
        }
    )
    record_row(
        "T15 interpolation vs bounded/BDD engines (deep PROVED)",
        f"{'design':<18}{'itp':>9}{'bmc':>9}{'bdd':>9}"
        f"{'iters':>7}{'depth':>7}{'itp_nodes':>11}",
        f"{design:<18}{timings['itp'] * 1000:>7.0f}ms"
        f"{timings['bmc'] * 1000:>7.0f}ms"
        f"{timings['reach_bdd'] * 1000:>7.0f}ms"
        f"{itp_result.iterations:>7d}"
        f"{itp_result.stats.get('itp_depth'):>7.0f}"
        f"{itp_result.stats.get('interpolant_nodes'):>11.0f}",
    )
