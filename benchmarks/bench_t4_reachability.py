"""Experiment T4 — unbounded model checking: AIG vs. BDD state sets.

The headline comparison: the paper's backward traversal with circuit-based
quantification against classical BDD reachability, on safe and buggy
designs.  Reported per run: verdict, traversal iterations, peak state-set
representation size (AND nodes vs. BDD nodes), the BDD engine's final
reached-set size (``reached_bdd``) and wall time.
"""

import pytest

from repro.api import VerificationTask
from repro.circuits import generators as G

BENCHMARKS = {
    "mod_counter_5_20": lambda: G.mod_counter(5, 20),
    "mod_counter_bug": lambda: G.mod_counter(5, 20, safe=False),
    "ring_counter_8": lambda: G.ring_counter(8),
    "arbiter_4": lambda: G.arbiter(4),
    "fifo_level_4": lambda: G.fifo_level(4),
    "gray_counter_4": lambda: G.gray_counter(4),
    "lfsr_5": lambda: G.lfsr(5),
    "johnson_6": lambda: G.johnson_counter(6),
    "updown_4_bug": lambda: G.up_down_counter(4, safe=False),
    "onehot_6": lambda: G.one_hot_fsm(6),
}

ENGINES = ["reach_aig", "reach_bdd"]


@pytest.mark.parametrize("design", list(BENCHMARKS))
@pytest.mark.parametrize("engine", ENGINES)
def test_t4_reachability(benchmark, record_row, session, design, engine):
    def run():
        return session.run(
            VerificationTask(BENCHMARKS[design](), engine=engine, max_depth=200)
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    peak = result.stats.get(
        "peak_frontier_size" if engine == "reach_aig" else "peak_frontier_bdd"
    )
    benchmark.extra_info.update(
        {
            "design": design,
            "engine": engine,
            "status": result.status.value,
            "iterations": result.iterations,
            "peak_representation": peak,
            "manager_nodes": result.stats.get("manager_nodes", None),
            "cache_hit_rate": result.stats.get("bdd_cache_hit_rate", None),
            "reached_bdd": result.stats.get("reached_bdd", None),
        }
    )
    record_row(
        "T4 reachability AIG vs BDD",
        f"{'design':<18}{'engine':<11}{'status':<9}{'iters':>6}"
        f"{'peak_repr':>10}",
        f"{design:<18}{engine:<11}{result.status.value:<9}"
        f"{result.iterations:>6}{peak:>10.0f}",
    )
