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
* the paper's Section 4 engines, ``reach_aig_allsat`` and
  ``reach_aig_hybrid``, on ``bwd_quant``'s designs at seed 1 and on
  ``bwd_long``: the hybrid's partial quantifier and the all-SAT
  enumeration behind both;
* the baseline engines on the tiny (``BENCH_TINY=1``) families of the
  ``benchmarks/bench_t14``–``t17`` experiments: ``reach_bdd_fwd`` with
  its scheduled image, ``itp``, ``pdr``, and ``cnc`` with its cubes
  solved in-process (``workers=0``);
* ``bmc`` and ``k_induction`` on the designs of
  ``benchmarks/bench_t7_bmc_induction``, at each of its pre-image fold
  counts (the variant).

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

from benchmarks import bench_t7_bmc_induction as t7  # noqa: E402
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

# The all-SAT enumeration's counters; ``cubes`` is the largest cube
# count of one enumeration.
ALLSAT_COUNTERS = ("cubes", "decision_vars")

# engine -> the result stats its golden rows pin, in row order.
COUNTERS = {
    "reach_aig": PAPER_COUNTERS,
    "reach_aig_fwd": PAPER_COUNTERS,
    "reach_aig_allsat": (
        "iterations",
        "peak_frontier_size",
        "check_cnf_nodes",
        "trace_sim_steps",
        "trace_sat_steps",
        "reencode_wins",
        "reencode_aborts",
    ) + ALLSAT_COUNTERS,
    "reach_aig_hybrid": PAPER_COUNTERS + (
        "accepted",
        "aborted",
        "hybrid_residual_vars",
    ) + ALLSAT_COUNTERS,
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
    "bmc": ("frames_unrolled", "cnf_vars", "sat_calls"),
    "k_induction": (
        "proved_at_k",
        "base_sat_calls",
        "step_sat_calls",
        "cnf_vars",
        "frames_unrolled",
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


# Sources that run another source's designs with another engine:
# source -> (the designs' source, engine).
ENGINE_SWAPS = {
    "bwd_quant_allsat": ("bwd_quant", "reach_aig_allsat"),
    "bwd_quant_hybrid": ("bwd_quant", "reach_aig_hybrid"),
    "bwd_long_allsat": ("bwd_long", "reach_aig_allsat"),
    "bwd_long_hybrid": ("bwd_long", "reach_aig_hybrid"),
}


def _runs(source, variant):
    """``(design name, netlist, engine, verify keywords)`` per design.

    ``source`` is a perfbench workload, with the seed as ``variant``, a
    ``bench_*`` experiment run on its tiny families (T7: on its
    designs, with the fold count as ``variant``), or an
    ``ENGINE_SWAPS`` entry.
    """
    if source in ENGINE_SWAPS:
        designs, engine = ENGINE_SWAPS[source]
        return [
            (name, net, engine, keywords)
            for name, net, _, keywords in _runs(designs, variant)
        ]
    if source in WORKLOADS:
        spec = WORKLOADS[source]
        return [
            (net.name, net, spec.engine, {"max_depth": MAX_DEPTH})
            for net in build_netlists(spec, variant)
        ]
    if source == "bwd_long":
        net = G.mod_counter(7, 30, safe=False, with_enable=True)
        return [(net.name, net, "reach_aig", {"max_depth": MAX_DEPTH})]
    if source == "t7_bmc":
        return [
            (name, build(), "bmc",
             {"max_depth": depth, "preimage_folds": variant})
            for name, (build, depth) in t7.BMC_DESIGNS.items()
        ]
    if source == "t7_induction":
        return [
            (name, build(), "k_induction",
             {"max_depth": max_k, "preimage_folds": variant})
            for name, (build, max_k) in t7.INDUCTION_DESIGNS.items()
        ]
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
         (19, 19, 0, 68, 0, 0, 0, 10, 0, 0, 19, 0, 737, 19, 0, 0)),
        ("arbiter_8", "PROVED",
         (1, 8, 0, 14, 0, 0, 0, 63, 0, 0, 0, 0, 2327, 1, 0, 0)),
        ("onehot_10_buggy", "FAILED",
         (1, 2, 5, 7, 0, 0, 0, 45, 0, 0, 1, 0, 68, 2, 0, 0)),
    ),
    ("bwd_quant", 2): (
        ("mod_counter_5_20", "FAILED",
         (19, 19, 0, 68, 0, 0, 0, 10, 0, 0, 19, 0, 737, 19, 0, 0)),
        ("arbiter_8", "PROVED",
         (1, 8, 1, 14, 0, 0, 0, 63, 0, 0, 0, 0, 2325, 1, 0, 0)),
        ("onehot_10_buggy", "FAILED",
         (1, 2, 6, 7, 0, 0, 0, 45, 0, 0, 1, 0, 68, 2, 0, 0)),
    ),
    ("fwd_image", 1): (
        ("fifo_level_4", "PROVED",
         (15, 90, 6, 163, 0, 0, 0, 12, 91, 3, 0, 0, 7314, 15, 0, 2)),
        ("gray_counter_4", "PROVED",
         (17, 136, 7, 35, 0, 0, 0, 15, 156, 7, 0, 0, 136, 0, 0, 0)),
        ("mod_counter_5_20", "PROVED",
         (20, 100, 6, 37, 0, 0, 0, 9, 96, 6, 0, 0, 100, 0, 0, 0)),
    ),
    ("fwd_image", 2): (
        ("fifo_level_4", "PROVED",
         (15, 90, 6, 163, 0, 0, 0, 12, 91, 3, 0, 0, 7314, 15, 0, 2)),
        ("gray_counter_4", "PROVED",
         (17, 136, 12, 37, 0, 0, 0, 15, 160, 10, 0, 0, 136, 0, 0, 0)),
        ("mod_counter_5_20", "PROVED",
         (20, 100, 6, 48, 0, 0, 0, 9, 87, 6, 0, 0, 100, 0, 0, 0)),
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
         (29, 29, 1, 103, 0, 0, 0, 13, 0, 0, 29, 0, 3587, 29, 0, 0)),
    ),
    ("bwd_quant_allsat", 1): (
        ("mod_counter_5_20", "FAILED", (19, 10, 0, 19, 0, 19, 0, 2, 1)),
        ("arbiter_8", "PROVED", (1, 63, 0, 0, 0, 1, 0, 4, 8)),
        ("onehot_10_buggy", "FAILED", (1, 45, 0, 1, 0, 2, 0, 2, 2)),
    ),
    ("bwd_quant_hybrid", 1): (
        ("mod_counter_5_20", "FAILED",
         (19, 19, 0, 68, 0, 0, 0, 10, 0, 0, 19, 0, 737, 19, 0, 0,
          19, 0, 0, 0, 0)),
        ("arbiter_8", "PROVED",
         (1, 8, 0, 14, 0, 0, 0, 63, 0, 0, 0, 0, 2301, 1, 0, 1,
          8, 0, 0, 0, 0)),
        ("onehot_10_buggy", "FAILED",
         (1, 2, 1, 8, 0, 0, 0, 45, 0, 0, 1, 0, 199, 2, 0, 0,
          2, 0, 0, 0, 0)),
    ),
    ("bwd_long_allsat", "unpermuted"): (
        ("mod_counter_7_30", "FAILED", (29, 13, 0, 29, 0, 29, 0, 2, 1)),
    ),
    ("bwd_long_hybrid", "unpermuted"): (
        ("mod_counter_7_30", "FAILED",
         (29, 29, 1, 103, 0, 0, 0, 13, 0, 0, 29, 0, 3587, 29, 0, 0,
          26, 3, 3, 2, 1)),
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
    ("t7_bmc", 0): (
        ("bug_at_depth_12", "FAILED", (13, 345, 13)),
        ("mod_counter_bug_5_24", "FAILED", (24, 653, 24)),
    ),
    ("t7_bmc", 2): (
        ("bug_at_depth_12", "FAILED", (11, 605, 13)),
        ("mod_counter_bug_5_24", "FAILED", (22, 1210, 24)),
    ),
    ("t7_bmc", 4): (
        ("bug_at_depth_12", "FAILED", (9, 909, 13)),
        ("mod_counter_bug_5_24", "FAILED", (20, 2020, 24)),
    ),
    ("t7_induction", 0): (
        ("mod_counter_5_20", "PROVED", (0, 1, 1, 48, 3)),
        ("shift_register_6", "PROVED", (0, 1, 1, 40, 3)),
    ),
    ("t7_induction", 1): (
        ("mod_counter_5_20", "PROVED", (0, 2, 1, 85, 3)),
        ("shift_register_6", "PROVED", (0, 2, 1, 39, 3)),
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
        (0, 0, 0, 0), (0, 0, 0, 0), (49, 20, 1163, 5),
    ),
    ("bwd_quant", 2): (
        (0, 0, 0, 0), (6, 3, 54, 1), (36, 2, 653, 6),
    ),
    ("fwd_image", 1): (
        (64, 21, 1493, 21), (24, 17, 1802, 24), (26, 20, 519, 26),
    ),
    ("fwd_image", 2): (
        (64, 21, 1493, 21), (32, 17, 1937, 29), (26, 20, 893, 26),
    ),
    ("bwd_deep", 1): (
        (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0),
    ),
    ("bwd_deep", 2): (
        (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0),
    ),
    ("bwd_long", "unpermuted"): ((3, 0, 46, 1),),
    ("bwd_quant_allsat", 1): (
        (172, 72, 3969, 57), (96, 18, 1119, 5), (84, 45, 1981, 3),
    ),
    ("bwd_quant_hybrid", 1): (
        (0, 0, 0, 0), (0, 0, 0, 0), (75, 42, 1679, 1),
    ),
    ("bwd_long_allsat", "unpermuted"): ((276, 119, 8358, 87),),
    ("bwd_long_hybrid", "unpermuted"): ((31, 13, 848, 10),),
    ("t7_bmc", 0): ((0, 0, 0, 13), (0, 0, 0, 24)),
    ("t7_bmc", 2): ((0, 0, 0, 13), (0, 0, 0, 24)),
    ("t7_bmc", 4): ((0, 0, 0, 13), (0, 0, 0, 24)),
    ("t7_induction", 0): ((5, 4, 79, 2), (4, 2, 18, 2)),
    ("t7_induction", 1): ((12, 6, 231, 3), (1, 0, 3, 3)),
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
