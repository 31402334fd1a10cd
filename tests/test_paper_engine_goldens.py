"""Golden cost counters of the engines on the benchmarks' designs.

Wall time on shared machines is noisy; the engines' cost counters are
not.  These tests pin the verdict and each engine's counters below on:

* every design of perfbench's ``bwd_quant`` (``reach_aig`` with input
  quantification), ``fwd_image`` (``reach_aig_fwd``), ``bwd_deep``
  (``reach_aig`` without inputs) and ``bdd_fix`` (``reach_bdd_fwd``)
  workloads, at seeds 1 and 2;
* ``reach_aig`` on one long run that quantifies inputs at each of its
  29 steps (``bwd_long``, unpermuted): the sweeper and its signature
  table live for the whole run, and a reset in mid-run shows as extra
  SAT checks;
* the baseline engines on the tiny (``BENCH_TINY=1``) families of the
  ``benchmarks/bench_t14``–``t17`` experiments: ``reach_bdd_fwd`` with
  its scheduled image, ``itp``, ``pdr``, and ``cnc`` with its cubes
  solved in-process (``workers=0``).

They repeat exactly under any ``PYTHONHASHSEED``.

A second table pins the SAT search itself: the decisions, conflicts,
propagations and ``Solver.solve`` calls summed over every solver the
run creates.  A change inside the solver (branching order, heap
layout, clause loading) that re-rolls the search fails there even when
the engine's own counters stay put.

A change that alters the search (merge order, candidate filtering,
frontier choice, solver reuse, walk seeds, PDR generalization, BDD
image schedule, cube selection) fails here and names the engine, the
design, the seed or variant and the counter that moved.  Update the
goldens only for a deliberate change to the search, and say why in the
change log.

Apart from ``bwd_long``, the designs come read-only from
``perfbench/workloads.py`` and the ``bench_*`` modules, so these pins
follow exactly what the benchmarks run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks import bench_t14_bdd_image as t14  # noqa: E402
from benchmarks import bench_t15_itp as t15  # noqa: E402
from benchmarks import bench_t16_pdr as t16  # noqa: E402
from benchmarks import bench_t17_cnc as t17  # noqa: E402
from perfbench.workloads import MAX_DEPTH, WORKLOADS, build_netlists  # noqa: E402
from repro.circuits import generators as G  # noqa: E402
from repro.mc.engine import verify  # noqa: E402
from repro.sat.solver import Solver  # noqa: E402

PAPER_COUNTERS = (
    "iterations",
    "vars_quantified",
    "sat_checks",
    "bdd_merges",
    "input_dc_checks",
    "input_dc_replacements",
    "growth_discarded",
    "peak_frontier_size",
    "check_cnf_nodes",
    "solver_recycles",
    "trace_sim_steps",
    "trace_sat_steps",
    "backward_pairs",
    "reencode_wins",
    "reencode_aborts",
    "bdd_recycles",
)

# engine -> the result stats its golden rows pin, in row order.
COUNTERS = {
    "reach_aig": PAPER_COUNTERS,
    "reach_aig_fwd": PAPER_COUNTERS,
    "reach_bdd_fwd": (
        "iterations",
        "peak_frontier_bdd",
        "peak_reached_bdd",
        "manager_nodes",
        "bdd_cache_hits",
        "bdd_cache_misses",
    ),
    "itp": (
        "proofs_checked",
        "sat_calls",
        "itp_depth",
        "cnf_vars",
        "proof_nodes",
        "interpolant_nodes",
        "reach_nodes",
    ),
    "pdr": (
        "pdr_frames",
        "pdr_obligations",
        "pdr_lemmas",
        "pdr_ctis",
        "pdr_pushed",
        "pdr_core_dropped",
        "pdr_ternary_dropped",
        "invariant_clauses",
        "sat_calls",
    ),
    "cnc": (
        "cnc_cubes",
        "cnc_refuted_by_lookahead",
        "cnc_cubes_unsat",
        "cnc_conflicts",
        "cnc_decisions",
        "cnc_propagations",
    ),
}


def _runs(source, variant):
    """``(design name, netlist, engine, verify keywords)`` per design.

    ``source`` is a perfbench workload, with the seed as ``variant``, or
    a ``bench_*`` experiment run on its tiny families.
    """
    if source in WORKLOADS:
        spec = WORKLOADS[source]
        return [
            (net.name, net, spec.engine, {"max_depth": MAX_DEPTH})
            for net in build_netlists(spec, variant)
        ]
    if source == "bwd_long":
        net = G.mod_counter(7, 30, safe=False, with_enable=True)
        return [(net.name, net, "reach_aig", {"max_depth": MAX_DEPTH})]
    if source == "t14_bdd_image":
        families = t14.TINY_FAMILIES
        engine, keywords = "reach_bdd_fwd", {}
    elif source == "t15_itp":
        families = t15.TINY_FAMILIES
        engine, keywords = "itp", {"max_depth": t15.TINY_MAX_DEPTH}
    elif source == "t16_pdr":
        families = {**t16.TINY_PROVED_FAMILIES, **t16.TINY_FAILED_FAMILIES}
        engine, keywords = "pdr", {"max_depth": t16.TINY_MAX_DEPTH}
    else:
        cnc = {"workers": 0, **t17.CNC_OPTIONS}
        return [
            (name, build(), "cnc", {**cnc, "max_depth": 0})
            for name, build in t17.TINY_MITER_FAMILIES.items()
        ] + [
            (name, build(), "cnc", {**cnc, "max_depth": depth})
            for name, (build, depth) in t17.TINY_DEEP_FAMILIES.items()
        ]
    return [
        (name, build(), engine, keywords) for name, build in families.items()
    ]


# (source, variant) -> one (design name, verdict, counters) row per
# design, counters in the order COUNTERS gives for the case's engine.
GOLDENS = {
    ("bwd_quant", 1): (
        ("mod_counter_5_20", "FAILED",
         (19, 19, 25, 68, 25, 25, 2, 10, 0, 1, 19, 0, 737, 19, 0, 0)),
        ("arbiter_8", "PROVED",
         (1, 8, 80, 0, 80, 41, 0, 63, 0, 5, 0, 0, 2272, 1, 0, 0)),
        ("onehot_10_buggy", "FAILED",
         (1, 2, 51, 6, 46, 4, 0, 83, 0, 2, 1, 0, 86, 1, 0, 0)),
    ),
    ("bwd_quant", 2): (
        ("mod_counter_5_20", "FAILED",
         (19, 19, 25, 68, 25, 25, 2, 10, 0, 1, 19, 0, 737, 19, 0, 0)),
        ("arbiter_8", "PROVED",
         (1, 8, 61, 0, 61, 40, 0, 63, 0, 5, 0, 0, 2272, 1, 0, 0)),
        ("onehot_10_buggy", "FAILED",
         (1, 2, 46, 7, 40, 5, 0, 84, 0, 2, 1, 0, 68, 1, 0, 0)),
    ),
    ("fwd_image", 1): (
        ("fifo_level_4", "PROVED",
         (15, 90, 96, 175, 90, 22, 0, 12, 91, 20, 0, 0, 7157, 15, 0, 2)),
        ("gray_counter_4", "PROVED",
         (17, 136, 63, 35, 56, 0, 0, 15, 156, 17, 0, 0, 136, 0, 0, 0)),
        ("mod_counter_5_20", "PROVED",
         (20, 100, 64, 37, 61, 0, 0, 9, 96, 15, 0, 0, 100, 0, 0, 0)),
    ),
    ("fwd_image", 2): (
        ("fifo_level_4", "PROVED",
         (15, 90, 96, 175, 90, 22, 0, 12, 91, 20, 0, 0, 7157, 15, 0, 2)),
        ("gray_counter_4", "PROVED",
         (17, 136, 77, 37, 65, 0, 0, 15, 160, 21, 0, 0, 136, 0, 0, 0)),
        ("mod_counter_5_20", "PROVED",
         (20, 100, 79, 48, 73, 0, 0, 9, 87, 19, 0, 0, 100, 0, 0, 0)),
    ),
    ("bwd_deep", 1): (
        ("bug_at_depth_30", "FAILED",
         (30, 0, 0, 0, 0, 0, 0, 13, 0, 0, 30, 0, 0, 30, 0, 0)),
        ("mod_counter_5_30", "FAILED",
         (29, 0, 0, 0, 0, 0, 0, 9, 0, 0, 29, 0, 0, 29, 0, 0)),
        ("johnson_14", "PROVED",
         (18, 0, 0, 0, 0, 0, 0, 211, 0, 0, 0, 0, 0, 19, 0, 0)),
    ),
    ("bwd_deep", 2): (
        ("bug_at_depth_30", "FAILED",
         (30, 0, 0, 0, 0, 0, 0, 13, 0, 0, 30, 0, 0, 30, 0, 0)),
        ("mod_counter_5_30", "FAILED",
         (29, 0, 0, 0, 0, 0, 0, 9, 0, 0, 29, 0, 0, 29, 0, 0)),
        ("johnson_14", "PROVED",
         (18, 0, 0, 0, 0, 0, 0, 211, 0, 0, 0, 0, 0, 19, 0, 0)),
    ),
    ("bwd_long", "unpermuted"): (
        ("mod_counter_7_30", "FAILED",
         (29, 29, 42, 103, 42, 32, 0, 13, 0, 0, 29, 0, 3587, 29, 0, 0)),
    ),
    ("bdd_fix", 1): (
        ("gray_counter_10", "PROVED", (1025, 20, 815, 77729, 25830, 111531)),
        ("updown_12", "PROVED", (4096, 13, 23, 115186, 58966, 174158)),
        ("mod_counter_12_3000", "PROVED",
         (3000, 12, 25, 62869, 31995, 101774)),
    ),
    ("bdd_fix", 2): (
        ("gray_counter_10", "PROVED", (1025, 20, 1071, 79193, 32761, 113737)),
        ("updown_12", "PROVED", (4096, 13, 27, 115357, 60428, 174626)),
        ("mod_counter_12_3000", "PROVED",
         (3000, 12, 20, 75678, 36017, 118276)),
    ),
    ("t14_bdd_image", "scheduled"): (
        ("mod_counter_6_40", "PROVED", (40, 6, 6, 670, 410, 999)),
        ("gray_counter_5", "PROVED", (33, 10, 96, 2164, 860, 2724)),
        ("fifo_level_4", "PROVED", (15, 4, 4, 544, 398, 720)),
        ("updown_5", "PROVED", (32, 6, 6, 1112, 878, 1487)),
        ("onehot_8", "PROVED", (8, 8, 15, 750, 276, 910)),
        ("arbiter_6", "PROVED", (6, 6, 11, 788, 310, 1003)),
    ),
    ("t15_itp", "tiny"): (
        ("mod_counter_16", "PROVED", (4, 9, 1, 185, 676, 30, 50)),
        ("mod_counter_24", "PROVED", (4, 9, 1, 281, 1028, 46, 74)),
        ("ring_counter_8", "PROVED", (8, 17, 1, 409, 1617, 76, 330)),
        ("updown_8", "PROVED", (2, 5, 1, 94, 239, 0, 9)),
    ),
    ("t16_pdr", "tiny"): (
        ("mod_counter_16", "PROVED", (4, 3, 3, 0, 1, 0, 0, 1, 34)),
        ("mod_counter_24", "PROVED", (4, 3, 3, 0, 1, 0, 0, 1, 42)),
        ("shift_register_16", "PROVED", (3, 4, 4, 0, 2, 0, 60, 2, 19)),
        ("bug_at_depth_8", "FAILED", (7, 28, 12, 12, 4, 5, 0, 0, 79)),
        ("updown_6_buggy", "FAILED", (1, 1, 0, 1, 0, 0, 7, 0, 3)),
    ),
    ("t17_cnc", "tiny"): (
        ("mul_miter_3", "PROVED", (10, 6, 4, 58, 69, 2625)),
        ("mul_miter_4", "PROVED", (6, 2, 4, 316, 388, 26435)),
        ("mul_miter_4_buggy", "FAILED", (6, 2, 0, 2, 10, 403)),
        ("mod_counter_8_120_buggy", "FAILED", (1, 0, 0, 0, 0, 1)),
    ),
}

SAT_COUNTERS = ("decisions", "conflicts", "propagations", "solve_calls")

# (source, variant) -> per design, in GOLDENS order, the SAT_COUNTERS
# summed over all Solver.solve calls of the run.
SAT_GOLDENS = {
    ("bwd_quant", 1): (
        (84, 51, 1219, 25), (327, 117, 8247, 80), (248, 33, 7460, 51),
    ),
    ("bwd_quant", 2): (
        (84, 51, 1219, 25), (294, 109, 6718, 61), (245, 46, 7000, 46),
    ),
    ("fwd_image", 1): (
        (510, 114, 12490, 111), (231, 31, 3966, 80), (192, 39, 3661, 84),
    ),
    ("fwd_image", 2): (
        (510, 114, 12490, 111), (285, 38, 4550, 94), (248, 41, 4866, 99),
    ),
    ("bwd_deep", 1): (
        (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0),
    ),
    ("bwd_deep", 2): (
        (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0),
    ),
    ("bwd_long", "unpermuted"): ((111, 56, 2726, 42),),
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


@pytest.mark.parametrize("source,variant", list(GOLDENS), ids=str)
def test_cost_counters_match_goldens(source, variant, monkeypatch):
    totals = _spy_on_solves(monkeypatch)
    runs = _runs(source, variant)
    rows = GOLDENS[(source, variant)]
    assert [run[0] for run in runs] == [row[0] for row in rows]
    sat_rows = SAT_GOLDENS.get((source, variant), ((),) * len(rows))
    diverged = []
    for run, (_, verdict, expected), sat_expected in zip(
        runs, rows, sat_rows
    ):
        name, net, engine, keywords = run
        for counter in SAT_COUNTERS:
            totals[counter] = 0
        result = verify(net, method=engine, **keywords)
        where = f"{engine} {source}-{variant} {name}"
        if result.status.name != verdict:
            diverged.append(
                f"{where}: verdict {result.status.name}, expected {verdict}"
            )
        for counter, golden in zip(COUNTERS[engine], expected):
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
