"""Experiment F2 (figure) — size vs. number of variables quantified.

The size-explosion containment curve: quantify 1..k variables out of one
circuit and record the result size after each variable, for bare Shannon
expansion vs. the full pipeline.  Also records the abort behaviour of the
partial quantifier under a tight growth budget (its answer to the curve's
worst segments).
"""

import pytest

from repro.aig.analysis import cone_size
from repro.circuits.combinational import adder_sum_parity, random_logic
from repro.core import PartialQuantifier, QuantifyOptions, quantify_exists

WORKLOADS = {
    "random_12x120": (lambda: random_logic(12, 120, seed=5), 6),
    "adder_parity8": (lambda: adder_sum_parity(8), 6),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("preset", ["shannon", "full"])
def test_f2_size_curve(benchmark, record_row, workload, preset):
    build, max_vars = WORKLOADS[workload]

    def run():
        aig, inputs, root = build()
        options = QuantifyOptions.preset(preset)
        sizes = []
        current = root
        for edge in inputs[:max_vars]:
            outcome = quantify_exists(aig, current, [edge >> 1], options)
            current = outcome.edge
            sizes.append(cone_size(aig, current))
        return sizes

    sizes = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"workload": workload, "preset": preset, "size_curve": sizes}
    )
    record_row(
        "F2 size vs #vars quantified",
        f"{'workload':<16}{'preset':<9}size after each variable",
        f"{workload:<16}{preset:<9}{sizes}",
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_f2_partial_abort_rate(benchmark, record_row, workload):
    build, max_vars = WORKLOADS[workload]

    def run():
        aig, inputs, root = build()
        quantifier = PartialQuantifier(
            aig,
            options=QuantifyOptions.preset("full"),
            growth_factor=1.2,
        )
        return quantifier.quantify(
            root, [e >> 1 for e in inputs[:max_vars]]
        )

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    total = len(outcome.quantified) + len(outcome.aborted)
    benchmark.extra_info.update(
        {
            "workload": workload,
            "accepted": len(outcome.quantified),
            "aborted": len(outcome.aborted),
        }
    )
    record_row(
        "F2 partial-quantification abort rate (growth budget 1.2x)",
        f"{'workload':<16}{'accepted':>9}{'aborted':>8}",
        f"{workload:<16}{len(outcome.quantified):>9}"
        f"{len(outcome.aborted):>8}",
    )
