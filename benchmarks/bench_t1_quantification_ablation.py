"""Experiment T1 — quantification ablation ladder.

For each combinational family, existentially quantify a block of inputs
under every engine preset and record the resulting circuit size.  Shape
claim reproduced: plain Shannon grows roughly 2x per variable while the
merge + optimization pipeline contains the growth (often collapsing the
result outright).
"""

import pytest

from repro.aig.analysis import cone_size
from repro.circuits.combinational import (
    adder_sum_parity,
    comparator,
    equality_with_constant_slices,
    random_logic,
)
from repro.core import QuantifyOptions, quantify_exists

PRESETS = ["shannon", "hash", "bdd", "sat", "full"]

FAMILIES = {
    "comparator8": (lambda: comparator(8), 5),
    "adder_parity6": (lambda: adder_sum_parity(6), 4),
    "random_12x120": (lambda: random_logic(12, 120, seed=7), 5),
    "slices_4x3": (lambda: equality_with_constant_slices(4, 3), 4),
}


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("preset", PRESETS)
def test_t1_quantification(benchmark, record_row, family, preset):
    build, num_vars = FAMILIES[family]

    def run():
        aig, inputs, root = build()
        variables = [e >> 1 for e in inputs[:num_vars]]
        outcome = quantify_exists(
            aig, root, variables, QuantifyOptions.preset(preset)
        )
        return aig, outcome

    aig, outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    size = cone_size(aig, outcome.edge)
    benchmark.extra_info.update(
        {
            "family": family,
            "preset": preset,
            "final_size": size,
            "peak_size": outcome.stats.get("peak_size"),
            "initial_size": outcome.stats.get("initial_size"),
            "sat_checks": outcome.stats.get("sat_checks", 0),
        }
    )
    record_row(
        "T1 quantification ablation",
        f"{'family':<16}{'preset':<10}{'initial':>8}{'peak':>8}"
        f"{'final':>8}{'sat_checks':>12}",
        f"{family:<16}{preset:<10}"
        f"{outcome.stats.get('initial_size'):>8.0f}"
        f"{outcome.stats.get('peak_size'):>8.0f}{size:>8}"
        f"{outcome.stats.get('sat_checks', 0):>12.0f}",
    )
