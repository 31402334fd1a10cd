"""Experiment T3 — backward vs. forward SAT-merge processing order.

The paper: "Backward processing is generally better in case of high merge
probability (similar cofactors) ... Forward processing is more similar to
the BDD sweeping technique."  We count SAT checks needed by each order on
a high-similarity workload (slice equality: cofactors share almost
everything) and a low-similarity one (random logic).
"""

import pytest

from repro.aig.ops import cofactor
from repro.circuits.combinational import (
    equality_with_constant_slices,
    mux_of_variants,
)
from repro.core.merge import merge_cofactors

WORKLOADS = {
    "similar_variants_8": (
        lambda: mux_of_variants(8, similar=True),
        "high merge probability",
    ),
    "dissimilar_variants_8": (
        lambda: mux_of_variants(8, similar=False),
        "low merge probability",
    ),
    "similar_slices_5x3": (
        lambda: equality_with_constant_slices(5, 3),
        "structurally shared cofactors (hashing suffices)",
    ),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("order", ["backward", "forward"])
def test_t3_merge_order(benchmark, record_row, workload, order):
    build, note = WORKLOADS[workload]

    def run():
        aig, inputs, root = build()
        var = inputs[0] >> 1
        cof0 = cofactor(aig, root, var, False)
        cof1 = cofactor(aig, root, var, True)
        _, _, stats = merge_cofactors(
            aig, cof0, cof1, use_bdd_sweep=False, order=order
        )
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    checks = stats.get("merge_sat_checks")
    merges = stats.get("backward_merges", 0) + stats.get("sat_merges", 0)
    benchmark.extra_info.update(
        {
            "workload": workload,
            "order": order,
            "sat_checks": checks,
            "merges": merges,
        }
    )
    record_row(
        "T3 merge order (backward vs forward)",
        f"{'workload':<22}{'order':<10}{'sat_checks':>11}{'merges':>8}",
        f"{workload:<22}{order:<10}{checks:>11.0f}{merges:>8.0f}",
    )
