"""Outside-in tracing: spans around the entry points of each layer.

The library is not edited.  :func:`install` replaces each boundary
function with a wrapper that records a span (name, start, end, parent)
into a :class:`Recorder`, at the module that *calls* it, because the
library imports with ``from ... import``; methods are wrapped on their
class.  Spans stay in memory; :func:`layer_metrics` turns one pass's
spans into the per-layer metrics and :func:`chrome_trace` into a Chrome
trace, written out at the end of a run.

Every span name is ``<layer>.<boundary>``.  A span's self time is its
duration minus its direct children's durations, so self times of all
spans add up to the traced wall time they cover.  Wrappers given a
``group`` record only their outermost entry: a call made while the
innermost open span has the same group is passed straight through.
That keeps recursive kernels (BDD apply, signature look-ups) to one span
per outside call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from statistics import fmean
from typing import Callable

import repro.core.dontcare as dontcare
import repro.core.images as images
import repro.core.merge as merge
import repro.core.optimize as optimize
import repro.core.quantify as quantify
import repro.core.schedule as schedule
import repro.mc.engine as mc_engine
import repro.mc.reach_aig as reach_aig
import repro.mc.reach_aig_fwd as reach_aig_fwd
import repro.mc.reach_bdd as reach_bdd
import repro.sweep.signatures as signatures
from repro.aig.cnf import CnfMapper
from repro.aig.graph import Aig
from repro.bdd.manager import BddManager
from repro.circuits.netlist import Netlist
from repro.sat.solver import Solver, SolveResult
from repro.sweep.satsweep import SatSweeper

# A span is [name, group, start, end, parent index, attrs].
NAME, GROUP, START, END, PARENT, ATTRS = range(6)

_SWEEPER_MERGE_KEYS = ("backward_merges", "sat_merges", "constant_merges")


class Recorder:
    """Spans and manager tallies of the pass being traced."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.bdd = defaultdict(int)
        self._managers: list[BddManager] = []

    def clear(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.bdd.clear()
        self._managers.clear()

    def drain_managers(self) -> None:
        """Fold the cache counters of finished BDD managers into tallies.

        Managers are dropped as soon as their owner (a BDD sweep or a BDD
        traversal) returns, so tracing keeps none of them alive.
        """
        for manager in self._managers:
            summary = manager.cache_summary()
            self.bdd["hits"] += summary["cache_hits"]
            self.bdd["misses"] += summary["cache_misses"]
            self.bdd["nodes"] += manager.num_nodes
        self._managers.clear()


def _wrap(
    recorder: Recorder,
    fn: Callable,
    name: str,
    group: str | None = None,
    before: Callable | None = None,
    after: Callable | None = None,
) -> Callable:
    """``fn`` recording a span per call (outermost per ``group`` only).

    ``before(args)`` runs inside the span and returns a state handed to
    ``after(state, args, result, attrs)``, which runs after the span has
    closed and fills the span's ``attrs`` dict.
    """
    spans = recorder.spans
    stack = recorder.stack
    clock = time.perf_counter

    def traced(*args, **kwargs):
        if group is not None and stack and spans[stack[-1]][GROUP] == group:
            return fn(*args, **kwargs)
        index = len(spans)
        span = [name, group, clock(), 0.0, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(index)
        try:
            state = before(args) if before is not None else None
            result = fn(*args, **kwargs)
        finally:
            span[END] = clock()
            stack.pop()
        if after is not None:
            span[ATTRS] = attrs = {}
            after(state, args, result, attrs)
        return result

    traced.__wrapped__ = fn
    return traced


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns a function undoing it."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attribute, name, group=None, before=None, after=None):
        original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        setattr(
            owner,
            attribute,
            _wrap(recorder, original, name, group, before, after),
        )

    # --- hooks filling span attributes -------------------------------- #
    def aig_engine_done(state, args, result, attrs):
        attrs["iterations"] = result.iterations
        attrs["aig_nodes"] = args[0].model.aig.num_nodes
        recorder.drain_managers()

    def bdd_engine_done(state, args, result, attrs):
        attrs["iterations"] = result.iterations
        recorder.drain_managers()

    def quantify_done(state, args, outcome, attrs):
        attrs["vars"] = outcome.stats.get("vars_quantified")
        attrs["free"] = outcome.stats.get("independent_vars")
        attrs["peak"] = outcome.stats.get("peak_size")

    def sweeper_merges(args):
        stats = args[0].stats
        return sum(stats.get(key) for key in _SWEEPER_MERGE_KEYS)

    def sat_merge_done(before_merges, args, result, attrs):
        attrs["merges"] = sweeper_merges(args) - before_merges

    def bdd_sweep_done(state, args, result, attrs):
        attrs["merges"] = result[2].get("bdd_merges")
        recorder.drain_managers()

    def optimize_done(state, args, result, attrs):
        stats = result[1]
        attrs["checks"] = (
            stats.get("input_dc_checks") + stats.get("odc_checks")
        )
        attrs["replaced"] = stats.get("input_dc_replacements") + stats.get(
            "odc_replacements"
        )
        attrs["discarded"] = stats.get("growth_discarded")

    def solve_start(args):
        solver = args[0]
        return solver.decisions, solver.conflicts, solver.propagations

    def solve_done(state, args, result, attrs):
        solver = args[0]
        attrs["result"] = result
        attrs["vars"] = solver.num_vars
        attrs["decisions"] = solver.decisions - state[0]
        attrs["conflicts"] = solver.conflicts - state[1]
        attrs["propagations"] = solver.propagations - state[2]

    # --- mc: the traversal engines ------------------------------------ #
    patch(reach_aig.BackwardReachability, "run", "mc.engine",
          after=aig_engine_done)
    patch(reach_aig_fwd.ForwardReachability, "run", "mc.engine",
          after=aig_engine_done)
    patch(mc_engine, "bdd_forward_reachability", "mc.engine",
          after=bdd_engine_done)
    patch(mc_engine, "bdd_backward_reachability", "mc.engine",
          after=bdd_engine_done)
    patch(reach_aig, "concretize_suffix", "mc.trace")
    patch(reach_aig, "find_violation_inputs", "mc.trace")
    patch(reach_aig_fwd, "find_violation_inputs", "mc.trace")
    patch(Netlist, "clone", "mc.compact")
    # --- images ------------------------------------------------------- #
    patch(reach_aig, "preimage_by_substitution", "images.inline")
    patch(images, "preimage_by_substitution", "images.inline")
    patch(images.ImageComputer, "postimage", "images.post")
    # --- quantify ----------------------------------------------------- #
    patch(reach_aig, "quantify_exists", "quantify.exists",
          after=quantify_done)
    patch(images, "quantify_exists", "quantify.exists", after=quantify_done)
    patch(quantify, "cofactor", "quantify.cofactor")
    patch(images, "schedule_variable_order", "quantify.schedule")
    get_scheduler = quantify.get_scheduler
    saved.append((quantify, "get_scheduler", get_scheduler))
    quantify.get_scheduler = lambda name: _wrap(
        recorder, get_scheduler(name), "quantify.schedule"
    )
    # --- merge -------------------------------------------------------- #
    patch(quantify, "merge_cofactors", "merge.cofactors")
    patch(merge, "bdd_sweep", "merge.bdd_sweep", after=bdd_sweep_done)
    patch(SatSweeper, "merge_pair_backward", "merge.sat",
          before=sweeper_merges, after=sat_merge_done)
    patch(SatSweeper, "sweep", "merge.sat",
          before=sweeper_merges, after=sat_merge_done)
    # --- optimize ----------------------------------------------------- #
    patch(quantify, "optimize_disjunction", "optimize.disjunction",
          after=optimize_done)
    patch(optimize, "care_set_candidates", "optimize.candidates")
    # --- sweep -------------------------------------------------------- #
    patch(SatSweeper, "check_equal", "sweep.check")
    patch(SatSweeper, "check_constant", "sweep.check")
    for method in (
        "__init__", "add_pattern", "freeze", "thaw", "flush",
        "refresh_roots", "node_signature", "edge_signature",
        "signature_key", "edges_may_be_equal", "classes",
        "is_candidate_constant",
    ):
        patch(signatures.SignatureTable, method, "sweep.signatures",
              group="sweep.signatures")
    # --- sat ---------------------------------------------------------- #
    patch(Solver, "solve", "sat.solve", before=solve_start, after=solve_done)
    # --- aig ---------------------------------------------------------- #
    patch(CnfMapper, "lit_for", "aig.cnf", group="aig.cnf")
    patch(Aig, "cone", "aig.cone")
    patch(signatures, "simulate_nodes", "aig.simulate")
    patch(dontcare, "simulate_nodes", "aig.simulate")
    patch(schedule, "simulate", "aig.simulate")
    # --- bdd ---------------------------------------------------------- #
    init = BddManager.__init__
    saved.append((BddManager, "__init__", init))

    def register_manager(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder._managers.append(self)

    BddManager.__init__ = register_manager
    for method in ("and_", "or_", "not_", "ite", "xor", "xnor"):
        patch(BddManager, method, "bdd.apply", group="bdd")
    for method in (
        "and_exists_cube", "exists_cube", "rename", "and_exists", "exists",
        "compose",
    ):
        patch(BddManager, method, "bdd.image", group="bdd")
    # Everything else a traversal asks of the manager: sizes, supports,
    # cubes, cache trimming, and lifting the netlist into BDDs.
    for method in (
        "size", "support", "cube", "cube_pos", "pick_cube", "restrict",
        "evaluate", "trim_caches",
    ):
        patch(BddManager, method, "bdd.other", group="bdd")
    patch(reach_bdd, "aig_to_bdd", "bdd.other", group="bdd")

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
        saved.clear()

    return uninstall


# ---------------------------------------------------------------------- #
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------- #

PER_LAYER: dict[str, str] = {
    # metric name -> unit; the direction lives in BENCHMARK.json.
    "mc.iterations": "count",
    "mc.check_calls": "count",
    "mc.check_s": "s",
    "mc.compact_s": "s",
    "mc.trace_s": "s",
    "images.inline_s": "s",
    "images.post_self_s": "s",
    "quantify.calls": "count",
    "quantify.vars": "count",
    "quantify.free_ratio": "ratio",
    "quantify.self_s": "s",
    "quantify.cofactor_s": "s",
    "quantify.schedule_s": "s",
    "quantify.peak_size": "count",
    "merge.calls": "count",
    "merge.bdd_sweep_s": "s",
    "merge.sat_self_s": "s",
    "merge.merges": "count",
    "optimize.self_s": "s",
    "optimize.candidates_s": "s",
    "optimize.dc_checks": "count",
    "optimize.dc_yield": "ratio",
    "optimize.growth_discarded": "count",
    "sweep.sat_checks": "count",
    "sweep.check_s": "s",
    "sweep.proved_ratio": "ratio",
    "sweep.unknown_checks": "count",
    "sweep.solver_vars": "count",
    "sweep.decisions_per_check": "count",
    "sweep.signatures_s": "s",
    "sat.solve_calls": "count",
    "sat.solve_s": "s",
    "sat.decisions": "count",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "aig.cone_calls": "count",
    "aig.cone_s": "s",
    "aig.cnf_s": "s",
    "aig.simulate_s": "s",
    "aig.manager_nodes": "count",
    "bdd.image_calls": "count",
    "bdd.image_s": "s",
    "bdd.apply_s": "s",
    "bdd.other_s": "s",
    "bdd.cache_hit_rate": "ratio",
    "bdd.manager_nodes": "count",
    "tracing.overhead_ratio": "ratio",
    "tracing.attributed_frac": "ratio",
}

# Counts that must repeat exactly from one traced pass to the next.
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER.items() if unit == "count"
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    recorder: Recorder, traced_s: float, overhead_ratio: float
) -> dict[str, float]:
    """The per-layer metrics of one traced pass lasting ``traced_s``.

    ``overhead_ratio`` is the pass's time over that of an untraced pass.
    """
    spans = recorder.spans
    duration = [span[END] - span[START] for span in spans]
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += duration[index]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    m: dict[str, float] = defaultdict(float)
    sweep_solves = []
    for index, span in enumerate(spans):
        name = span[NAME]
        self_s[name] += duration[index] - child_time[index]
        calls[name] += 1
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else ""
        attrs = span[ATTRS]
        if parent == "mc.engine" and name in ("sat.solve", "aig.cnf"):
            # The engine's own frontier/init checks, with their encoding.
            m["mc.check_s"] += duration[index]
            if name == "sat.solve":
                m["mc.check_calls"] += 1
        if name == "sweep.check":
            m["sweep.check_s"] += duration[index]
        elif name == "merge.bdd_sweep":
            m["merge.bdd_sweep_s"] += duration[index]
            m["merge.merges"] += attrs["merges"]
        elif name == "merge.sat":
            m["merge.merges"] += attrs["merges"]
        elif name == "mc.engine":
            m["mc.iterations"] += attrs["iterations"]
            m["aig.manager_nodes"] += attrs.get("aig_nodes", 0)
        elif name == "quantify.exists":
            m["quantify.vars"] += attrs["vars"]
            m["quantify.free"] += attrs["free"]
            m["quantify.peak_size"] = max(
                m["quantify.peak_size"], attrs["peak"]
            )
        elif name == "optimize.disjunction":
            m["optimize.dc_checks"] += attrs["checks"]
            m["optimize.replaced"] += attrs["replaced"]
            m["optimize.growth_discarded"] += attrs["discarded"]
        elif name == "sat.solve":
            m["sat.decisions"] += attrs["decisions"]
            m["sat.conflicts"] += attrs["conflicts"]
            m["sat.propagations"] += attrs["propagations"]
            if parent == "sweep.check":
                sweep_solves.append(attrs)
    m["mc.compact_s"] = self_s["mc.compact"]
    m["mc.trace_s"] = self_s["mc.trace"]
    m["images.inline_s"] = self_s["images.inline"]
    m["images.post_self_s"] = self_s["images.post"]
    m["quantify.calls"] = calls["quantify.exists"]
    m["quantify.free_ratio"] = _ratio(
        m.pop("quantify.free", 0), m["quantify.vars"]
    )
    m["quantify.self_s"] = self_s["quantify.exists"]
    m["quantify.cofactor_s"] = self_s["quantify.cofactor"]
    m["quantify.schedule_s"] = self_s["quantify.schedule"]
    m["merge.calls"] = calls["merge.cofactors"]
    m["merge.sat_self_s"] = self_s["merge.sat"]
    m["optimize.self_s"] = self_s["optimize.disjunction"]
    m["optimize.candidates_s"] = self_s["optimize.candidates"]
    m["optimize.dc_yield"] = _ratio(
        m.pop("optimize.replaced", 0), m["optimize.dc_checks"]
    )
    m["sweep.sat_checks"] = len(sweep_solves)
    m["sweep.proved_ratio"] = _ratio(
        sum(s["result"] is SolveResult.UNSAT for s in sweep_solves),
        len(sweep_solves),
    )
    m["sweep.unknown_checks"] = sum(
        s["result"] is SolveResult.UNKNOWN for s in sweep_solves
    )
    m["sweep.solver_vars"] = (
        fmean(s["vars"] for s in sweep_solves) if sweep_solves else 0.0
    )
    m["sweep.decisions_per_check"] = _ratio(
        sum(s["decisions"] for s in sweep_solves), len(sweep_solves)
    )
    m["sweep.signatures_s"] = self_s["sweep.signatures"]
    m["sat.solve_calls"] = calls["sat.solve"]
    m["sat.solve_s"] = self_s["sat.solve"]
    m["aig.cone_calls"] = calls["aig.cone"]
    m["aig.cone_s"] = self_s["aig.cone"]
    m["aig.cnf_s"] = self_s["aig.cnf"]
    m["aig.simulate_s"] = self_s["aig.simulate"]
    m["bdd.image_calls"] = calls["bdd.image"]
    m["bdd.image_s"] = self_s["bdd.image"]
    m["bdd.apply_s"] = self_s["bdd.apply"]
    m["bdd.other_s"] = self_s["bdd.other"]
    m["bdd.cache_hit_rate"] = _ratio(
        recorder.bdd["hits"], recorder.bdd["hits"] + recorder.bdd["misses"]
    )
    m["bdd.manager_nodes"] = recorder.bdd["nodes"]
    m["tracing.overhead_ratio"] = overhead_ratio
    # The engine loop's own code is the one part no named boundary
    # explains; everything else is attributed.
    attributed = sum(self_s.values()) - self_s["mc.engine"]
    m["tracing.attributed_frac"] = _ratio(attributed, traced_s)
    return {name: float(m[name]) for name in PER_LAYER}


def chrome_trace(spans: list[list]) -> dict:
    """Spans as a Chrome ``trace_event`` document (Perfetto-loadable)."""
    origin = spans[0][START] if spans else 0.0
    events = [
        {
            "name": span[NAME],
            "cat": span[NAME].split(".", 1)[0],
            "ph": "X",
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"id": index, "parent": span[PARENT]},
        }
        for index, span in enumerate(spans)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
