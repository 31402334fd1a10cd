"""Experiment T14 — monolithic vs scheduled partitioned BDD image.

The paper's thesis is that *when* you quantify matters as much as *what*
you quantify.  This experiment measures exactly that on the BDD engine:
one post-image of the full reached state set, computed

* **monolithic** — conjoin the entire transition relation onto the state
  set, then quantify every current-state/input variable (the seed
  pipeline), vs
* **scheduled** — clustered partitioned relation, conjunction order and
  early-quantification points chosen by the :mod:`repro.core.schedule`
  heuristics, each variable eliminated by a fused ``and_exists`` as soon
  as no later cluster depends on it.

Caches are cleared before the measured image so both pipelines pay their
real traversal-step cost (a warm cache would just replay the answer).
Per-family wall times, node counts, cache hit rates and the speedup land
in the benchmark's ``extra_info``.

Set ``BENCH_TINY=1`` to run on CI-smoke-sized inputs.
"""

import os
import time

import pytest

from repro.circuits import generators as G
from repro.mc.reach_bdd import BddReachOptions, _BddModel

# The BENCH_TINY=1 (CI bench-smoke) families; the golden cost counters
# in tests/test_paper_engine_goldens.py run them too.
TINY_FAMILIES = {
    "mod_counter_6_40": lambda: G.mod_counter(6, 40),
    "gray_counter_5": lambda: G.gray_counter(5),
    "fifo_level_4": lambda: G.fifo_level(4),
    "updown_5": lambda: G.up_down_counter(5),
    "onehot_8": lambda: G.one_hot_fsm(8),
    "arbiter_6": lambda: G.arbiter(6),
}

if os.environ.get("BENCH_TINY"):
    FAMILIES = TINY_FAMILIES
else:
    FAMILIES = {
        "mod_counter_12_3000": lambda: G.mod_counter(12, 3000),
        "gray_counter_10": lambda: G.gray_counter(10),
        "fifo_level_8": lambda: G.fifo_level(8),
        "updown_12": lambda: G.up_down_counter(12),
        "onehot_16": lambda: G.one_hot_fsm(16),
        "arbiter_12": lambda: G.arbiter(12),
    }


def _fixpoint_reached(model):
    """The full reached state set (computed with the fast pipeline)."""
    manager = model.manager
    frontier = reached = model.init
    iterations = 0
    while frontier != 0:
        iterations += 1
        image = model.postimage_scheduled(frontier)
        frontier = manager.and_(image, manager.not_(reached))
        reached = manager.or_(reached, frontier)
    return reached, iterations


def _timed_image(model, reached, mode):
    """One cold post-image of ``reached``; returns (seconds, result node)."""
    compute = (
        model.postimage_monolithic
        if mode == "monolithic"
        else model.postimage_scheduled
    )
    model.manager.clear_caches()
    start = time.perf_counter()
    result = compute(reached)
    return time.perf_counter() - start, result


@pytest.mark.parametrize("design", list(FAMILIES))
def test_t14_bdd_image(benchmark, record_row, design):
    build = FAMILIES[design]
    timings = {}
    sat_counts = {}
    cache_hit_rates = {}
    manager_nodes = {}
    iterations = 0
    for mode in ("monolithic", "scheduled"):
        model = _BddModel(build(), BddReachOptions(image=mode))
        reached, iterations = _fixpoint_reached(model)
        seconds, image = _timed_image(model, reached, mode)
        timings[mode] = seconds
        num_vars = model.manager.num_vars
        sat_counts[mode] = model.manager.sat_count(image, num_vars)
        cache_hit_rates[mode] = model.manager.cache_summary()[
            "cache_hit_rate"
        ]
        manager_nodes[mode] = model.manager.num_nodes
        if mode == "scheduled":
            benchmark.pedantic(
                lambda: _timed_image(model, reached, "scheduled"),
                rounds=1,
                iterations=1,
            )
    # Same image from both pipelines (managers differ, counts must not).
    assert sat_counts["monolithic"] == sat_counts["scheduled"]
    speedup = timings["monolithic"] / max(timings["scheduled"], 1e-9)
    benchmark.extra_info.update(
        {
            "design": design,
            "monolithic_seconds": timings["monolithic"],
            "scheduled_seconds": timings["scheduled"],
            "speedup": speedup,
            "iterations": iterations,
            "monolithic_manager_nodes": manager_nodes["monolithic"],
            "scheduled_manager_nodes": manager_nodes["scheduled"],
            "monolithic_cache_hit_rate": cache_hit_rates["monolithic"],
            "scheduled_cache_hit_rate": cache_hit_rates["scheduled"],
        }
    )
    record_row(
        "T14 BDD image: monolithic vs scheduled",
        f"{'design':<22}{'mono_ms':>10}{'sched_ms':>10}{'speedup':>9}",
        f"{design:<22}{timings['monolithic'] * 1000:>10.2f}"
        f"{timings['scheduled'] * 1000:>10.2f}{speedup:>8.1f}x",
    )
