"""Circuit-SAT sweeping: the merge phase with a circuit solver back end.

The paper runs its step-3 equivalence checks through a general CNF solver
(ZChaff) and notes "we plan to experiment with circuit-SAT in the future".
:class:`CircuitSweeper` is that experiment plugged into the same sweeping
skeleton as :class:`repro.sweep.satsweep.SatSweeper`: identical candidate
detection through simulation signatures, identical forward merge order, but
every proof obligation is discharged by the justification-based
:class:`repro.sat.circuit.CircuitSolver` directly on the AIG — no Tseitin
encoding, no clause database.

The two sweepers are deliberately interchangeable (same ``sweep`` contract)
so the merge-engine benchmarks can swap them and compare check counts and
merge yields under both back ends.
"""

from __future__ import annotations

from typing import Sequence

from repro.aig.graph import Aig
from repro.sat.circuit import CircuitSolver
from repro.sweep.satsweep import SatSweeper
from repro.sweep.signatures import SignatureTable


class CircuitSweeper(SatSweeper):
    """Sweeping with circuit-SAT equivalence checks.

    Inherits :class:`repro.sweep.satsweep.SatSweeper`'s forward and
    backward passes unchanged: candidate classes come from phase-normalized
    simulation signatures, constant candidates are tried first, and
    counterexamples found by the solver refine the signature table for
    later checks.  Only the two primitive checks and the model read-back
    are replaced; the inherited CNF mapper is never used.
    """

    def __init__(
        self,
        aig: Aig,
        signatures: SignatureTable | None = None,
        conflict_budget: int = 3000,
        max_candidates: int = 8,
        sim_words: int = 4,
        seed: int = 2005,
    ) -> None:
        super().__init__(
            aig, signatures, conflict_budget, max_candidates, sim_words, seed
        )
        self.solver = CircuitSolver(aig, conflict_budget=conflict_budget)

    def fit_solver(self, roots: Sequence[int]) -> None:
        """Nothing to right-size: circuit SAT works on the AIG itself."""

    def check_equal(self, a: int, b: int) -> bool | None:
        """Is ``a == b`` for all inputs?  True / False / None (unknown)."""
        self.stats.incr("sat_checks")
        verdict = self.solver.check_equal(a, b, self.conflict_budget)
        if verdict is True:
            self.stats.incr("proved_equal")
        elif verdict is False:
            self.stats.incr("proved_different")
            self._learn_counterexample()
        else:
            self.stats.incr("unknown_checks")
        return verdict

    def check_constant(self, edge: int, value: bool) -> bool | None:
        """Is ``edge`` constantly ``value``?  True / False / None."""
        self.stats.incr("sat_checks")
        verdict = self.solver.check_constant(edge, value, self.conflict_budget)
        if verdict is True:
            self.stats.incr("proved_constant")
        elif verdict is False:
            self._learn_counterexample()
        else:
            self.stats.incr("unknown_checks")
        return verdict

    def _model_inputs(self) -> dict[int, bool]:
        return self.solver.model_inputs()
