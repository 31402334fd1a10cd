"""Experiment T6 — partial quantification + all-solutions SAT pre-image.

Section 4's combination: circuit quantification "dramatically decreases
the amount of decision (input) variables to be processed by SAT based
pre-image".  Measured: decision variables and enumerated cofactor cubes of
the all-SAT engine, with and without the partial-quantification
preprocessing.
"""

import pytest

from repro.aig.graph import edge_not
from repro.aig.ops import support
from repro.circuits import generators as G
from repro.core.partial import PartialQuantifier, allsat_quantify
from repro.core.quantify import QuantifyOptions
from repro.core.substitution import preimage_by_substitution

DESIGNS = {
    "arbiter_5": lambda: G.arbiter(5),
    "arbiter_6": lambda: G.arbiter(6),
    "fifo_level_4": lambda: G.fifo_level(4),
}


@pytest.mark.parametrize("design", list(DESIGNS))
@pytest.mark.parametrize("preprocess", ["none", "partial_quantification"])
def test_t6_partial_allsat(benchmark, record_row, design, preprocess):
    def run():
        net = DESIGNS[design]()
        aig = net.aig
        bad = edge_not(net.property_edge)
        composed = preimage_by_substitution(aig, bad, net.next_functions())
        inputs = [
            node for node in net.input_nodes
            if node in support(aig, composed)
        ]
        if preprocess == "none":
            result, stats = allsat_quantify(aig, composed, inputs)
            return stats
        quantifier = PartialQuantifier(
            aig,
            options=QuantifyOptions.preset("full"),
            growth_factor=1.5,
        )
        outcome = quantifier.quantify(composed, inputs)
        result, stats = allsat_quantify(aig, outcome.edge, outcome.aborted)
        stats.set("circuit_quantified", len(outcome.quantified))
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "design": design,
            "preprocess": preprocess,
            "decision_vars": stats.get("decision_vars"),
            "cubes": stats.get("cubes"),
            "circuit_quantified": stats.get("circuit_quantified", 0),
        }
    )
    record_row(
        "T6 partial quantification + all-SAT",
        f"{'design':<14}{'preprocess':<24}{'decision_vars':>14}"
        f"{'cubes':>7}{'circ_quant':>11}",
        f"{design:<14}{preprocess:<24}{stats.get('decision_vars'):>14.0f}"
        f"{stats.get('cubes'):>7.0f}"
        f"{stats.get('circuit_quantified', 0):>11.0f}",
    )
