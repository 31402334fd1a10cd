#!/usr/bin/env python3
"""Partial quantification feeding an all-solutions SAT pre-image (Section 4).

The paper's answer to size explosion on hostile variables: quantify the
cheap ones with the circuit engine, abort the expensive ones, and hand the
residual decision variables to a SAT enumerator (Ganai et al.'s circuit
cofactoring).  This example measures exactly that hand-off on a pre-image
computation for an arbiter.

Run:  python examples/partial_quantification.py
"""

from repro.aig.analysis import cone_size
from repro.aig.graph import edge_not
from repro.aig.ops import support
from repro.circuits import generators
from repro.core import PartialQuantifier, QuantifyOptions
from repro.core.substitution import preimage_by_substitution
from repro.core.partial import allsat_quantify


def main() -> None:
    netlist = generators.arbiter(4)
    aig = netlist.aig
    bad = edge_not(netlist.property_edge)
    composed = preimage_by_substitution(aig, bad, netlist.next_functions())
    inputs = [
        node for node in netlist.input_nodes
        if node in support(aig, composed)
    ]
    print(f"pre-image problem: {cone_size(aig, composed)} AND nodes, "
          f"{len(inputs)} input variables to eliminate")

    # --- baseline: pure all-SAT enumeration over every input -----------
    pure, pure_stats = allsat_quantify(aig, composed, inputs)
    print(f"\npure all-SAT:      {pure_stats.get('decision_vars'):.0f} "
          f"decision vars, {pure_stats.get('cubes'):.0f} cofactor cubes, "
          f"result {cone_size(aig, pure)} ANDs")

    # --- the paper's combination: partial quantification first ---------
    quantifier = PartialQuantifier(
        aig,
        options=QuantifyOptions.preset("full"),
        growth_factor=1.5,
    )
    outcome = quantifier.quantify(composed, inputs)
    print(f"partial circuit quantification: "
          f"{len(outcome.quantified)} accepted, "
          f"{len(outcome.aborted)} aborted "
          f"(result so far {cone_size(aig, outcome.edge)} ANDs)")

    combined, combo_stats = allsat_quantify(
        aig, outcome.edge, outcome.aborted
    )
    print(f"all-SAT residual:  {combo_stats.get('decision_vars'):.0f} "
          f"decision vars, {combo_stats.get('cubes'):.0f} cofactor cubes, "
          f"result {cone_size(aig, combined)} ANDs")

    # --- both routes compute the same state set ------------------------
    from repro.sweep import prove_edges_equivalent

    verdict, _ = prove_edges_equivalent(aig, pure, combined)
    print(f"\nresults equivalent: {verdict}")
    assert verdict is True


if __name__ == "__main__":
    main()
