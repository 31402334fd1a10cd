"""Experiment F3 (figure) — FRAIG compaction of traversal state sets.

The traversal routine's manager is append-only: even when the live state
set stays small, superseded logic accumulates.  This bench snapshots the
reached-set representation of a backward traversal at each iteration and
compares two per-snapshot numbers:

* the live cone size as the traversal produced it;
* the size after FRAIG rounds.

Shape claim: functional reduction finds extra merges the interleaved
quantification pipeline missed (it only merges within one cofactor pair
at a time), so the FRAIG series sits at or below the live series.
"""

import pytest

from repro.aig.analysis import cone_size
from repro.aig.ops import or_
from repro.circuits import generators as G
from repro.core.images import ImageComputer
from repro.sweep.fraig import fraig

DESIGNS = {
    "mod_counter_5_24": lambda: G.mod_counter(5, 24, safe=False),
    "arbiter_4": lambda: G.arbiter(4),
}

STEPS = 5


@pytest.mark.parametrize("design", list(DESIGNS))
def test_f3_fraig_series(benchmark, record_row, design):
    def run():
        netlist = DESIGNS[design]()
        aig = netlist.aig
        images = ImageComputer(netlist)
        reached = netlist.property_edge ^ 1
        live_series, fraig_series = [], []
        frontier = reached
        for _ in range(STEPS):
            frontier = images.preimage(frontier).edge
            reached = or_(aig, reached, frontier)
            live_series.append(cone_size(aig, reached))
            fraig_series.append(fraig(aig, [reached]).size)
        return live_series, fraig_series

    live, reduced = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(f <= l for f, l in zip(reduced, live))
    benchmark.extra_info.update(
        {
            "design": design,
            "live_series": live,
            "fraig_series": reduced,
        }
    )
    record_row(
        "F3 FRAIG compaction of reached sets (AND nodes)",
        f"{'design':<20}{'series':<9}values",
        f"{design:<20}{'live':<9}{live}\n"
        f"{design:<20}{'fraig':<9}{reduced}",
    )
