"""Partial quantification (Section 4).

"Our methodology adopts partial quantification, i.e., it accepts effective
quantification and aborts the expensive ones (in terms of size)."

Each variable is quantified tentatively, by one
:func:`~repro.core.quantify.quantify_exists` call (the whole pipeline:
cofactor, merge phase, optimization phase); if the result grew beyond
``growth_factor`` times the input, the variable is *aborted* — the
original function is kept and the variable is reported as residual.
Downstream engines (all-solutions SAT pre-image, BMC, induction) then
treat only the residual variables as decision variables, which is exactly
how the paper combines circuit quantification with SAT-based methods.

:func:`allsat_quantify` is that all-solutions SAT engine (Ganai et al.
[2]): a SAT solver produces one satisfying assignment at a time; instead
of blocking just that minterm, the circuit is *cofactored* with respect to
the assignment of the quantified variables — capturing every compatible
assignment of the others in one shot — and the cofactor is disjoined into
the result and blocked.  Section 4 plugs circuit quantification in front
of it: quantifying the cheap variables first "dramatically decreases the
amount of decision (input) variables to be processed by SAT based
pre-image".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.aig.analysis import cone_size
from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, TRUE, Aig
from repro.aig.ops import or_, support
from repro.core.quantify import QuantifyOptions, quantify_exists
from repro.sat.solver import SolveResult
from repro.sweep.bddsweep import BddSweepTable
from repro.sweep.satsweep import SatSweeper
from repro.util.stats import StatsBag


@dataclass
class PartialOutcome:
    """Result of a partial quantification pass."""

    edge: int
    quantified: list[int]
    aborted: list[int]
    stats: StatsBag = field(default_factory=StatsBag)


class PartialQuantifier:
    """Quantifier with a size-growth abort rule.

    >>> # exists-quantify what is cheap, report the rest
    >>> # (see examples/partial_quantification.py for a full walkthrough)
    """

    def __init__(
        self,
        aig: Aig,
        options: QuantifyOptions | None = None,
        growth_factor: float = 1.5,
        sweeper: SatSweeper | None = None,
        bdd_table: BddSweepTable | None = None,
    ) -> None:
        if growth_factor <= 0:
            raise ValueError("growth_factor must be positive")
        self.aig = aig
        self.options = options if options is not None else QuantifyOptions()
        self.growth_factor = growth_factor
        self.sweeper = sweeper
        self.bdd_table = bdd_table

    def quantify(self, edge: int, variables: Iterable[int]) -> PartialOutcome:
        """Quantify every variable whose result stays within budget.

        Variables are tried in caller order, duplicates dropped; one that
        has left the support by its turn counts as quantified for free.
        """
        aig = self.aig
        stats = StatsBag()
        if self.sweeper is None and (
            self.options.sat_merge or self.options.optimize
        ):
            self.sweeper = SatSweeper(aig)
        if self.bdd_table is None and self.options.bdd_sweep:
            self.bdd_table = BddSweepTable(aig)
        current = edge
        quantified: list[int] = []
        aborted: list[int] = []
        for var in dict.fromkeys(variables):
            outcome = quantify_exists(
                aig,
                current,
                [var],
                self.options,
                sweeper=self.sweeper,
                bdd_table=self.bdd_table,
            )
            stats.merge(outcome.stats)
            if not outcome.quantified:
                quantified.append(var)  # free: out of support
                continue
            size_before = outcome.stats.get("initial_size")
            size_after = outcome.stats.get("final_size")
            if size_after <= self.growth_factor * max(size_before, 1):
                current = outcome.edge
                quantified.append(var)
                stats.incr("accepted")
            else:
                aborted.append(var)
                stats.incr("aborted")
                stats.incr("aborted_growth", size_after - size_before)
        stats.set("final_size", cone_size(aig, current))
        return PartialOutcome(
            edge=current, quantified=quantified, aborted=aborted, stats=stats
        )


def allsat_quantify(
    aig: Aig,
    edge: int,
    variables: list[int],
) -> tuple[int, StatsBag]:
    """``exists {variables} . edge`` by circuit-cofactoring enumeration.

    Returns ``(result_edge, stats)``; ``stats["cubes"]`` counts the
    enumeration iterations (the decision-variable cost metric of the
    paper's Section 4 discussion).
    """
    stats = StatsBag()
    present = support(aig, edge)
    variables = [v for v in variables if v in present]
    stats.set("decision_vars", len(variables))
    if not variables:
        stats.set("cubes", 0)
        return edge, stats
    mapper = CnfMapper(aig)
    target_lit = mapper.lit_for(edge)
    result = FALSE
    cubes = 0
    while True:
        if mapper.solver.solve([target_lit]) is not SolveResult.SAT:
            break
        model = mapper.model_inputs()
        assignment = {
            node: TRUE if model.get(node, False) else FALSE
            for node in variables
        }
        # Circuit cofactoring: everything compatible with this assignment.
        cofactored = aig.rebuild(edge, assignment)
        result = or_(aig, result, cofactored)
        cubes += 1
        if cofactored == TRUE:
            break
        # Block everything the cofactor covers.
        block_lit = mapper.lit_for(cofactored)
        if not mapper.solver.add_clause([-block_lit]):
            break
    stats.set("cubes", cubes)
    return result, stats
