"""Experiment T5 — pre-image by in-lining vs. relational quantification.

Section 3's rule replaces the quantification of every next-state variable
by one functional composition.  We compute the same pre-image both ways
and compare circuit sizes and the number of variables actually quantified.
Shape claim: in-lining quantifies |inputs| variables; the relational route
quantifies |inputs| + |latches| and pays for it.
"""

import pytest

from repro.aig.analysis import cone_size
from repro.aig.graph import edge_not
from repro.circuits import generators as G
from repro.core.quantify import QuantifyOptions, quantify_exists
from repro.core.substitution import (
    preimage_by_substitution,
    preimage_relational,
)

DESIGNS = {
    "mod_counter_5_20": lambda: G.mod_counter(5, 20),
    "arbiter_4": lambda: G.arbiter(4),
    "fifo_level_3": lambda: G.fifo_level(3),
}


@pytest.mark.parametrize("design", list(DESIGNS))
@pytest.mark.parametrize("route", ["inlining", "relational"])
def test_t5_preimage_routes(benchmark, record_row, design, route):
    def run():
        net = DESIGNS[design]()
        aig = net.aig
        bad = edge_not(net.property_edge)
        options = QuantifyOptions.preset("full")
        if route == "inlining":
            composed = preimage_by_substitution(
                aig, bad, net.next_functions()
            )
            outcome = quantify_exists(
                aig, composed, net.input_nodes, options
            )
            quantified = len(outcome.quantified)
        else:
            placeholders = {
                node: aig.add_input(f"ph{node}") >> 1
                for node in net.latch_nodes
            }
            relation = preimage_relational(
                aig, bad, net.next_functions(), placeholders
            )
            outcome = quantify_exists(
                aig,
                relation,
                list(placeholders.values()) + net.input_nodes,
                options,
            )
            quantified = len(outcome.quantified)
        return aig, outcome, quantified

    aig, outcome, quantified = benchmark.pedantic(run, rounds=1, iterations=1)
    size = cone_size(aig, outcome.edge)
    benchmark.extra_info.update(
        {
            "design": design,
            "route": route,
            "result_size": size,
            "vars_quantified": quantified,
            "peak_size": outcome.stats.get("peak_size", 0),
        }
    )
    record_row(
        "T5 pre-image: in-lining vs relational",
        f"{'design':<18}{'route':<12}{'vars_quant':>11}{'peak':>7}"
        f"{'result':>8}",
        f"{design:<18}{route:<12}{quantified:>11}"
        f"{outcome.stats.get('peak_size', 0):>7.0f}{size:>8}",
    )
