"""SAT-based test generation and untestability proofs.

A test for fault ``F`` exists iff the *miter* between the good roots and
the fault-injected roots is satisfiable.  This is the same machinery the
merge phase uses for equivalence checks — the paper's observation that the
two problems coincide, run in the other direction: here UNSAT means
*redundant fault* instead of *merge point*.

Checks share one incremental CDCL session per generator, mirroring the
factorized ZChaff workflow: the good cone is encoded once; each fault adds
only its injected cone and a selector-guarded difference constraint.
"""

from __future__ import annotations

from typing import Sequence

from repro.aig.cnf import CnfMapper
from repro.aig.graph import Aig
from repro.atpg.faults import Fault
from repro.atpg.inject import inject_fault
from repro.sat.solver import Solver, SolveResult
from repro.util.stats import StatsBag


class SatTestGenerator:
    """Incremental SAT session generating tests for many faults."""

    def __init__(
        self,
        aig: Aig,
        roots: Sequence[int],
        conflict_budget: int | None = None,
    ) -> None:
        self.aig = aig
        self.roots = list(roots)
        self.conflict_budget = conflict_budget
        self.mapper = CnfMapper(aig, Solver())
        self.stats = StatsBag()

    def generate(self, fault: Fault) -> tuple[bool | None, dict[int, bool] | None]:
        """(testable?, pattern) — ``(False, None)`` proves redundancy.

        ``(None, None)`` means the conflict budget ran out.
        """
        self.stats.incr("sat_atpg_calls")
        faulty_roots = inject_fault(self.aig, self.roots, fault)
        solver = self.mapper.solver
        selector = solver.new_var()
        # selector -> (some root differs).  The difference disjunction
        # needs one auxiliary literal per root pair: d_i <-> g_i XOR f_i.
        difference_lits: list[int] = []
        for good, faulty in zip(self.roots, faulty_roots):
            if good == faulty:
                continue  # fault cannot influence this root
            lit_g = self.mapper.lit_for(good)
            lit_f = self.mapper.lit_for(faulty)
            d = solver.new_var()
            solver.add_clause([-d, lit_g, lit_f])
            solver.add_clause([-d, -lit_g, -lit_f])
            solver.add_clause([d, -lit_g, lit_f])
            solver.add_clause([d, lit_g, -lit_f])
            difference_lits.append(d)
        if not difference_lits:
            self.stats.incr("redundant_structural")
            return False, None
        solver.add_clause([-selector] + difference_lits)
        result = solver.solve(
            [selector], conflict_budget=self.conflict_budget
        )
        solver.add_clause([-selector])  # retire this fault's constraint
        if result is SolveResult.SAT:
            self.stats.incr("tests_found")
            pattern = self.mapper.model_inputs()
            return True, self._complete(pattern)
        if result is SolveResult.UNSAT:
            self.stats.incr("redundant_found")
            return False, None
        self.stats.incr("aborted")
        return None, None

    def _complete(self, pattern: dict[int, bool]) -> dict[int, bool]:
        """Total pattern over the cone inputs (don't-cares default 0)."""
        inputs = {
            node for node in self.aig.cone(self.roots)
            if self.aig.is_input(node)
        }
        return {node: pattern.get(node, False) for node in inputs}
