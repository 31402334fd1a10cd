"""Golden cost counters of the paper's engines on the perfbench designs.

Wall time on shared machines is noisy; the engines' cost counters are
not.  For every design of perfbench's ``bwd_quant`` (``reach_aig`` with
input quantification), ``fwd_image`` (``reach_aig_fwd``) and
``bwd_deep`` (``reach_aig`` without inputs) workloads, at seeds 1 and 2,
these tests pin the verdict and the counters below.  They repeat exactly
under any ``PYTHONHASHSEED``.

A second table pins the SAT search itself: the decisions, conflicts,
propagations and ``Solver.solve`` calls summed over every solver the
run creates.  A change inside the solver (branching order, heap
layout, clause loading) that re-rolls the search fails there even when
the engine's own counters stay put.

A change that alters the search (merge order, candidate filtering,
frontier choice, solver reuse, walk seeds) fails here and names the
design, the seed and the counter that moved.  Update the goldens only
for a deliberate change to the search, and say why in the change log.

The designs come read-only from ``perfbench/workloads.py``, so these
pins follow exactly what the benchmark runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import MAX_DEPTH, WORKLOADS, build_netlists  # noqa: E402
from repro.mc.engine import verify  # noqa: E402
from repro.sat.solver import Solver  # noqa: E402

COUNTERS = (
    "iterations",
    "vars_quantified",
    "sat_checks",
    "bdd_merges",
    "input_dc_checks",
    "input_dc_replacements",
    "growth_discarded",
    "peak_frontier_size",
    "check_cnf_nodes",
    "check_solvers",
    "solver_recycles",
    "compactions",
    "trace_sim_steps",
    "trace_sat_steps",
    "backward_pairs",
)

# (workload, seed) -> one (design name, verdict, counters) row per design,
# counters in COUNTERS order.
GOLDENS = {
    ("bwd_quant", 1): (
        ("mod_counter_5_20", "FAILED",
         (19, 19, 30, 235, 30, 30, 4, 132, 937, 5, 2, 4, 19, 0, 1105)),
        ("arbiter_8", "PROVED",
         (1, 8, 80, 0, 80, 41, 0, 80, 96, 1, 5, 0, 0, 0, 2272)),
        ("onehot_10_buggy", "FAILED",
         (1, 2, 19, 2, 13, 5, 0, 125, 143, 1, 1, 0, 1, 0, 1927)),
    ),
    ("bwd_quant", 2): (
        ("mod_counter_5_20", "FAILED",
         (19, 19, 30, 235, 30, 30, 4, 132, 937, 5, 2, 4, 19, 0, 1105)),
        ("arbiter_8", "PROVED",
         (1, 8, 61, 0, 61, 40, 0, 80, 96, 1, 5, 0, 0, 0, 2272)),
        ("onehot_10_buggy", "FAILED",
         (1, 2, 19, 2, 13, 5, 0, 125, 146, 1, 1, 0, 1, 0, 1927)),
    ),
    ("fwd_image", 1): (
        ("fifo_level_4", "PROVED",
         (15, 90, 102, 315, 98, 22, 0, 17, 114, 1, 24, 0, 0, 0, 7073)),
        ("gray_counter_4", "PROVED",
         (17, 136, 63, 14, 56, 0, 0, 15, 188, 1, 17, 0, 0, 0, 136)),
        ("mod_counter_5_20", "PROVED",
         (20, 100, 64, 43, 61, 0, 0, 9, 135, 1, 15, 0, 0, 0, 100)),
    ),
    ("fwd_image", 2): (
        ("fifo_level_4", "PROVED",
         (15, 90, 102, 315, 98, 22, 0, 17, 114, 1, 24, 0, 0, 0, 7073)),
        ("gray_counter_4", "PROVED",
         (17, 136, 77, 16, 65, 0, 0, 15, 192, 1, 20, 0, 0, 0, 136)),
        ("mod_counter_5_20", "PROVED",
         (20, 100, 79, 43, 73, 0, 0, 9, 126, 1, 19, 0, 0, 0, 100)),
    ),
    ("bwd_deep", 1): (
        ("bug_at_depth_30", "FAILED",
         (30, 0, 0, 0, 0, 0, 0, 1085, 5827, 8, 0, 7, 30, 0, 0)),
        ("mod_counter_5_30", "FAILED",
         (29, 0, 0, 0, 0, 0, 0, 896, 5037, 8, 0, 7, 29, 0, 0)),
        ("johnson_14", "PROVED",
         (18, 0, 0, 0, 0, 0, 0, 842, 5168, 5, 0, 4, 0, 0, 0)),
    ),
    ("bwd_deep", 2): (
        ("bug_at_depth_30", "FAILED",
         (30, 0, 0, 0, 0, 0, 0, 1085, 5827, 8, 0, 7, 30, 0, 0)),
        ("mod_counter_5_30", "FAILED",
         (29, 0, 0, 0, 0, 0, 0, 896, 5037, 8, 0, 7, 29, 0, 0)),
        ("johnson_14", "PROVED",
         (18, 0, 0, 0, 0, 0, 0, 842, 5170, 5, 0, 4, 0, 0, 0)),
    ),
}

SAT_COUNTERS = ("decisions", "conflicts", "propagations", "solve_calls")

# (workload, seed) -> per design, in GOLDENS order, the SAT_COUNTERS
# summed over all Solver.solve calls of the run.
SAT_GOLDENS = {
    ("bwd_quant", 1): (
        (217, 129, 9557, 69), (329, 119, 8398, 82), (145, 23, 4408, 22),
    ),
    ("bwd_quant", 2): (
        (217, 129, 9557, 69), (296, 111, 6869, 63), (112, 19, 4037, 22),
    ),
    ("fwd_image", 1): (
        (438, 100, 12508, 132), (266, 32, 6236, 97), (212, 42, 5251, 104),
    ),
    ("fwd_image", 2): (
        (438, 100, 12508, 132), (303, 37, 6711, 111), (268, 42, 6193, 119),
    ),
    ("bwd_deep", 1): (
        (61, 30, 35711, 61), (59, 29, 27155, 59), (321, 68, 30707, 36),
    ),
    ("bwd_deep", 2): (
        (61, 30, 35711, 61), (59, 29, 27055, 59), (302, 79, 30789, 36),
    ),
}


def _spy_on_solves(monkeypatch):
    """Sum SAT_COUNTERS over every ``Solver.solve`` call from now on."""
    totals = dict.fromkeys(SAT_COUNTERS, 0)
    solve = Solver.solve

    def counting_solve(self, *args, **kwargs):
        before = (self.decisions, self.conflicts, self.propagations)
        try:
            return solve(self, *args, **kwargs)
        finally:
            totals["decisions"] += self.decisions - before[0]
            totals["conflicts"] += self.conflicts - before[1]
            totals["propagations"] += self.propagations - before[2]
            totals["solve_calls"] += 1

    monkeypatch.setattr(Solver, "solve", counting_solve)
    return totals


@pytest.mark.parametrize(
    "workload,seed", sorted(GOLDENS), ids=lambda v: str(v)
)
def test_cost_counters_match_goldens(workload, seed, monkeypatch):
    totals = _spy_on_solves(monkeypatch)
    spec = WORKLOADS[workload]
    netlists = build_netlists(spec, seed)
    rows = GOLDENS[(workload, seed)]
    assert [net.name for net in netlists] == [row[0] for row in rows]
    diverged = []
    sat_rows = SAT_GOLDENS[(workload, seed)]
    for net, (name, verdict, expected), sat_expected in zip(
        netlists, rows, sat_rows
    ):
        for counter in SAT_COUNTERS:
            totals[counter] = 0
        result = verify(net, method=spec.engine, max_depth=MAX_DEPTH)
        where = f"{workload} seed {seed} {name}"
        if result.status.name != verdict:
            diverged.append(
                f"{where}: verdict {result.status.name}, expected {verdict}"
            )
        for counter, golden in zip(COUNTERS, expected):
            actual = result.stats.get(counter)
            if actual != golden:
                diverged.append(
                    f"{where}: {counter} = {actual}, golden {golden}"
                )
        for counter, golden in zip(SAT_COUNTERS, sat_expected):
            if totals[counter] != golden:
                diverged.append(
                    f"{where}: sat.{counter} = {totals[counter]}, "
                    f"golden {golden}"
                )
    assert not diverged, "cost counters diverged:\n" + "\n".join(diverged)
