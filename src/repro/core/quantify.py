"""Existential quantification over circuit-based state sets (Section 2).

``exists x . f`` is computed as ``f|x=0 OR f|x=1``.  Unmitigated, each
variable can double the circuit, so the engine interleaves

* the **merge phase** — structural hashing (always: the AIG manager
  hashes every node it builds), optional BDD sweeping, optional SAT-based
  checks in backward or forward order (:mod:`repro.core.merge`), run on
  every variable's cofactor pair;
* the **optimization phase** — cofactor-vs-cofactor input don't-care
  simplification (:mod:`repro.core.optimize`).  :func:`quantify_exists`
  runs it once per call, on the cofactor pair whose disjunction becomes
  the result: the next variable would cofactor an optimized disjunction
  again, so optimizing every intermediate pair is mostly thrown away.
  :func:`quantify_exists_one` runs it on its one pair.

:class:`QuantifyOptions` holds the five settings of a run.
``QuantifyOptions.preset`` builds the ablation ladder the benchmarks
sweep: ``"shannon"`` and ``"hash"`` (the same configuration: Shannon
expansion in a hashing manager), ``"bdd"``, ``"sat"`` and ``"full"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.aig.analysis import cone_size
from repro.aig.graph import Aig
from repro.aig.ops import cofactor, or_, support
from repro.core.merge import merge_cofactors, new_bdd_table
from repro.core.optimize import optimize_disjunction
from repro.core.schedule import get_scheduler
from repro.errors import AigError
from repro.sweep.bddsweep import BddSweepTable
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


@dataclass
class QuantifyOptions:
    """Configuration of one quantification run."""

    # Merge phase: BDD sweeping, SAT merging and the SAT stage's order,
    # "backward" or "forward" (see repro.core.merge).
    bdd_sweep: bool = True
    sat_merge: bool = True
    merge_order: str = "backward"
    # Optimization phase: input don't-care simplification, once per
    # quantify_exists call (on the pair that becomes the result) and on
    # every quantify_exists_one step.
    optimize: bool = True
    # Variable-ordering heuristic; see repro.core.schedule for choices.
    schedule: str = "min_dependence"

    @classmethod
    def preset(cls, name: str) -> "QuantifyOptions":
        """The ablation ladder used throughout the experiments.

        - ``shannon``: bare Shannon expansion (cofactors still share the
          manager, so constant folding applies, but no merging effort);
        - ``hash``: structural-hash merging only.  The AIG manager always
          hashes, so this is the same configuration as ``shannon``; both
          names stay because the experiment tables use them;
        - ``bdd``: hash + BDD sweeping;
        - ``sat``: hash + SAT merging;
        - ``full``: hash + BDD + SAT merging + don't-care optimization.
        """
        if name in ("shannon", "hash"):
            return cls(bdd_sweep=False, sat_merge=False, optimize=False)
        if name == "bdd":
            return cls(sat_merge=False, optimize=False)
        if name == "sat":
            return cls(bdd_sweep=False, optimize=False)
        if name == "full":
            return cls()
        raise AigError(f"unknown quantification preset: {name!r}")


@dataclass
class QuantifyOutcome:
    """Result of quantifying a set of variables."""

    edge: int
    quantified: list[int]
    stats: StatsBag

    @property
    def size(self) -> int:
        return int(self.stats.get("final_size"))


def _merge_phase(
    aig: Aig,
    cof0: int,
    cof1: int,
    options: QuantifyOptions,
    sweeper: SatSweeper | None,
    stats: StatsBag,
    bdd_table: BddSweepTable | None,
) -> tuple[int, int]:
    """Run ``options``' merge phase on a cofactor pair; stats into ``stats``."""
    cof0, cof1, merge_stats = merge_cofactors(
        aig,
        cof0,
        cof1,
        options.bdd_sweep,
        options.sat_merge,
        options.merge_order,
        sweeper=sweeper,
        bdd_table=bdd_table,
    )
    stats.merge(merge_stats)
    return cof0, cof1


def _disjoin(
    aig: Aig,
    cof0: int,
    cof1: int,
    options: QuantifyOptions,
    sweeper: SatSweeper | None,
    stats: StatsBag,
) -> int:
    """``cof0 OR cof1``, through the optimization phase if it is on."""
    if not options.optimize:
        return or_(aig, cof0, cof1)
    result, opt_stats = optimize_disjunction(aig, cof0, cof1, sweeper=sweeper)
    stats.merge(opt_stats)
    return result


def quantify_exists_one(
    aig: Aig,
    edge: int,
    var_node: int,
    options: QuantifyOptions | None = None,
    sweeper: SatSweeper | None = None,
    stats: StatsBag | None = None,
    bdd_table: BddSweepTable | None = None,
) -> int:
    """``exists var . edge`` for a single input variable.

    Runs the whole pipeline on the one pair: merge phase, then the
    optimization phase if ``options.optimize`` is on.
    """
    if options is None:
        options = QuantifyOptions()
    if stats is None:
        stats = StatsBag()
    cof0 = cofactor(aig, edge, var_node, False)
    cof1 = cofactor(aig, edge, var_node, True)
    stats.incr("vars_quantified")
    if cof0 == cof1:
        # Variable was not semantically in the support.
        stats.incr("independent_vars")
        return cof0
    cof0, cof1 = _merge_phase(
        aig, cof0, cof1, options, sweeper, stats, bdd_table
    )
    return _disjoin(aig, cof0, cof1, options, sweeper, stats)


def quantify_exists(
    aig: Aig,
    edge: int,
    variables: Iterable[int],
    options: QuantifyOptions | None = None,
    sweeper: SatSweeper | None = None,
    order: Sequence[int] | None = None,
    bdd_table: BddSweepTable | None = None,
) -> QuantifyOutcome:
    """``exists {vars} . edge`` — quantifies one variable at a time.

    Variables outside the structural support are skipped (already
    quantified for free).  ``options.schedule`` picks the next variable at
    every step — by default the greedy minimum-dependence order, which
    keeps intermediate results small (see :mod:`repro.core.schedule`).

    ``order`` overrides the dynamic scheduler with a precomputed static
    order (e.g. one slice of a partitioned-image plan from
    :func:`repro.core.schedule.schedule_variable_order`); variables not
    mentioned in ``order`` fall back to caller order.

    Like the ``sweeper``, one BDD sweeping table serves every variable;
    pass ``bdd_table`` to share it beyond this call.

    The merge phase runs on every variable's cofactor pair; the
    optimization phase only once, on the last pair whose merged
    cofactors differ, after the loop.  A variable whose cofactors
    coincide cofactors that pair as well, so its disjunction stays the
    result, and variables that leave the support on the way do not
    lose it.
    """
    if options is None:
        options = QuantifyOptions()
    stats = StatsBag()
    stats.set("initial_size", cone_size(aig, edge))
    if sweeper is None and (options.sat_merge or options.optimize):
        sweeper = SatSweeper(aig)
    if bdd_table is None and options.bdd_sweep:
        bdd_table = new_bdd_table(aig)
    scheduler = get_scheduler(options.schedule)
    remaining = [v for v in dict.fromkeys(variables)]
    remaining_set = set(remaining)
    plan = (
        [v for v in dict.fromkeys(order) if v in remaining_set]
        if order is not None
        else None
    )
    current = edge
    quantified: list[int] = []
    # With the optimization phase on: the merged cofactor pair whose
    # disjunction ``current`` is, or None before the first pair that
    # differs.
    pair: tuple[int, int] | None = None
    while remaining:
        present = support(aig, current)
        remaining = [v for v in remaining if v in present]
        if not remaining:
            break
        if plan is not None:
            plan = [v for v in plan if v in remaining]
            var = plan[0] if plan else remaining[0]
        else:
            var = scheduler(aig, current, remaining)
        remaining.remove(var)
        cache: dict[int, int] = {}
        cof0 = cofactor(aig, current, var, False, cache)
        cof1 = cofactor(aig, current, var, True)
        stats.incr("vars_quantified")
        if cof0 == cof1:
            # Not semantically in the support: ``current`` is its own
            # quantification, and the pair's 0-cofactors (mostly already
            # in ``cache``) still disjoin to it.
            stats.incr("independent_vars")
            current = cof0
            if pair is not None:
                pair = (
                    cofactor(aig, pair[0], var, False, cache),
                    cofactor(aig, pair[1], var, False, cache),
                )
        else:
            cof0, cof1 = _merge_phase(
                aig, cof0, cof1, options, sweeper, stats, bdd_table
            )
            current = or_(aig, cof0, cof1)
            if options.optimize:
                pair = (cof0, cof1) if cof0 != cof1 else None
        quantified.append(var)
        stats.max("peak_size", cone_size(aig, current))
    if pair is not None:
        # The next variable would cofactor an optimized disjunction
        # again, so only the pair that becomes the result is optimized.
        current = _disjoin(aig, pair[0], pair[1], options, sweeper, stats)
    stats.set("final_size", cone_size(aig, current))
    return QuantifyOutcome(edge=current, quantified=quantified, stats=stats)


def quantify_forall(
    aig: Aig,
    edge: int,
    variables: Iterable[int],
    options: QuantifyOptions | None = None,
    sweeper: SatSweeper | None = None,
) -> QuantifyOutcome:
    """``forall {vars} . edge``  ==  ``NOT exists {vars} . NOT edge``."""
    outcome = quantify_exists(aig, edge ^ 1, variables, options, sweeper)
    return QuantifyOutcome(
        edge=outcome.edge ^ 1,
        quantified=outcome.quantified,
        stats=outcome.stats,
    )


