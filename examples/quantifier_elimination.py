#!/usr/bin/env python3
"""Circuit-based quantifier elimination, step by step (paper Section 2).

Quantifies input variables out of a comparator circuit under every preset
of the engine, showing how each ingredient — structural hashing, BDD
sweeping, SAT-based merging, don't-care optimization — contains the size
explosion that plain Shannon expansion causes.

Run:  python examples/quantifier_elimination.py
"""

from repro.aig.analysis import cone_size
from repro.circuits.combinational import comparator, random_logic
from repro.core import QuantifyOptions, quantify_exists

PRESETS = ("shannon", "hash", "bdd", "sat", "full")


def demonstrate(family_name: str, build, num_quantified: int) -> None:
    print(f"\n== exists-quantifying {num_quantified} variables "
          f"out of {family_name} ==")
    print(f"{'preset':<10} {'result size':>12} {'peak size':>10} "
          f"{'SAT checks':>11}")
    for preset in PRESETS:
        # Fresh circuit per preset so managers do not share hash tables.
        aig, inputs, root = build()
        variables = [edge >> 1 for edge in inputs[:num_quantified]]
        outcome = quantify_exists(
            aig, root, variables, QuantifyOptions.preset(preset)
        )
        print(
            f"{preset:<10} {cone_size(aig, outcome.edge):>12} "
            f"{outcome.stats.get('peak_size'):>10.0f} "
            f"{outcome.stats.get('sat_checks', 0):>11.0f}"
        )


def main() -> None:
    demonstrate(
        "an 8-bit comparator (a < b)",
        lambda: comparator(8),
        num_quantified=5,
    )
    demonstrate(
        "random logic (12 inputs, 120 gates)",
        lambda: random_logic(12, 120, seed=7),
        num_quantified=5,
    )
    print(
        "\nAll presets compute the same function (the test suite checks "
        "them against canonical BDDs);\nthey differ only in how hard they "
        "fight the size explosion."
    )


if __name__ == "__main__":
    main()
