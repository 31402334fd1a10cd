"""Existential quantification over circuit-based state sets (Section 2).

``exists x . f`` is computed as ``f|x=0 OR f|x=1``.  Unmitigated, each
variable can double the circuit, so the engine interleaves

* the **merge phase** — structural hashing (always: the AIG manager
  hashes every node it builds), optional BDD sweeping and optional
  backward SAT merging (:mod:`repro.core.merge`), run on every
  variable's cofactor pair;
* the **optimization phase** — cofactor-vs-cofactor input don't-care
  simplification (:mod:`repro.core.optimize`).  :func:`quantify_exists`
  runs it once per call, on the cofactor pair whose disjunction becomes
  the result: the next variable would cofactor an optimized disjunction
  again, so optimizing every intermediate pair is mostly thrown away.
  ``QuantifyOptions()`` turns it on, and a one-shot quantification
  (``repro quantify``, experiment T1) gains from it; the AIG
  traversals' options default to ``optimize=False``, because the
  traversal re-encodes every image and the phase never gave one a
  smaller frontier, fewer iterations or another verdict.

:func:`quantify_exists` is the one variable loop: Section 4's partial
quantifier (:mod:`repro.core.partial`) calls it once per variable, and
the partitioned post-image once per plan step.

:class:`QuantifyOptions` holds the four settings of a run; the phases'
budgets are module constants (``BDD_NODE_LIMIT`` in
:mod:`repro.sweep.bddsweep`, the sweeper's in :mod:`repro.sweep.satsweep`,
the optimization phase's in :mod:`repro.core.dontcare` and
:mod:`repro.core.optimize`).
``QuantifyOptions.preset`` builds the ablation ladder the benchmarks
sweep: ``"shannon"`` and ``"hash"`` (the same configuration: Shannon
expansion in a hashing manager), ``"bdd"``, ``"sat"`` and ``"full"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.aig.analysis import cone_size
from repro.aig.graph import Aig
from repro.aig.ops import cofactor, or_, support
from repro.core.merge import merge_cofactors
from repro.core.optimize import optimize_disjunction
from repro.core.schedule import get_scheduler
from repro.errors import AigError
from repro.sweep.bddsweep import BddSweepTable
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


@dataclass
class QuantifyOptions:
    """Configuration of one quantification run."""

    # Merge phase: BDD sweeping and backward SAT merging (see
    # repro.core.merge).
    bdd_sweep: bool = True
    sat_merge: bool = True
    # Optimization phase: input don't-care simplification, once per
    # quantify_exists call, on the pair that becomes the result.
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


def quantify_exists(
    aig: Aig,
    edge: int,
    variables: Iterable[int],
    options: QuantifyOptions | None = None,
    sweeper: SatSweeper | None = None,
    bdd_table: BddSweepTable | None = None,
) -> QuantifyOutcome:
    """``exists {vars} . edge`` — quantifies one variable at a time.

    Variables outside the structural support are skipped (already
    quantified for free).  ``options.schedule`` picks the next variable at
    every step with more than one candidate — by default the greedy
    minimum-dependence order, which keeps intermediate results small (see
    :mod:`repro.core.schedule`); ``"static"`` keeps the caller's order.

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
        bdd_table = BddSweepTable(aig)
    scheduler = get_scheduler(options.schedule)
    remaining = list(dict.fromkeys(variables))
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
        if len(remaining) == 1:
            var = remaining[0]
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
            cof0, cof1, merge_stats = merge_cofactors(
                aig, cof0, cof1, options.bdd_sweep, options.sat_merge,
                sweeper=sweeper, bdd_table=bdd_table,
            )
            stats.merge(merge_stats)
            current = or_(aig, cof0, cof1)
            if options.optimize:
                pair = (cof0, cof1) if cof0 != cof1 else None
        quantified.append(var)
        stats.max("peak_size", cone_size(aig, current))
    if pair is not None:
        # The next variable would cofactor an optimized disjunction
        # again, so only the pair that becomes the result is optimized.
        current, opt_stats = optimize_disjunction(
            aig, pair[0], pair[1], sweeper=sweeper
        )
        stats.merge(opt_stats)
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


