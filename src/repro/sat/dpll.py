"""A deliberately simple DPLL solver used as a correctness oracle.

No watched literals, no learning — just unit propagation, pure-literal
elimination and chronological backtracking.  Slow but easy to audit, which
is exactly what the test suite wants when cross-checking the CDCL engine.
"""

from __future__ import annotations

from typing import Sequence

from repro.sat.cnf import CNF


class DpllSolver:
    """Reference DPLL solver over a :class:`CNF`.

    >>> f = CNF()
    >>> a, b = f.new_var(), f.new_var()
    >>> f.add_clause([a, b]); f.add_clause([-a]); f.add_clause([-b, a])
    >>> DpllSolver(f).solve()
    False
    """

    def __init__(self, cnf: CNF) -> None:
        self._cnf = cnf
        self.model: list[bool] = []

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Return True iff satisfiable; on success ``self.model`` is set."""
        clauses = [list(clause) for clause in self._cnf]
        for lit in assumptions:
            clauses.append([lit])
        assignment: dict[int, bool] = {}
        if self._search(clauses, assignment):
            self.model = [
                assignment.get(var, False)
                for var in range(1, self._cnf.num_vars + 1)
            ]
            return True
        self.model = []
        return False

    def _search(
        self, clauses: list[list[int]], assignment: dict[int, bool]
    ) -> bool:
        clauses = self._propagate(clauses, assignment)
        if clauses is None:
            return False
        if not clauses:
            return True
        var = abs(clauses[0][0])
        for value in (True, False):
            trial = dict(assignment)
            trial[var] = value
            branch = [list(c) for c in clauses]
            branch.append([var if value else -var])
            if self._search(branch, trial):
                assignment.clear()
                assignment.update(trial)
                return True
        return False

    @staticmethod
    def _propagate(
        clauses: list[list[int]], assignment: dict[int, bool]
    ) -> list[list[int]] | None:
        """Apply unit propagation; returns simplified clauses or None."""
        changed = True
        while changed:
            changed = False
            units = [c[0] for c in clauses if len(c) == 1]
            for unit in units:
                var, value = abs(unit), unit > 0
                if var in assignment and assignment[var] != value:
                    return None
                assignment[var] = value
            if units:
                simplified: list[list[int]] = []
                for clause in clauses:
                    reduced: list[int] = []
                    satisfied = False
                    for lit in clause:
                        var = abs(lit)
                        if var in assignment:
                            if assignment[var] == (lit > 0):
                                satisfied = True
                                break
                        else:
                            reduced.append(lit)
                    if satisfied:
                        continue
                    if not reduced:
                        return None
                    simplified.append(reduced)
                clauses = simplified
                changed = True
        return clauses


def brute_force_models(cnf: CNF) -> list[list[bool]]:
    """Enumerate all satisfying total assignments by exhaustion.

    Only usable for tiny formulas; the test oracle of last resort.
    """
    models = []
    n = cnf.num_vars
    for bits in range(1 << n):
        assignment = [(bits >> i) & 1 == 1 for i in range(n)]
        if cnf.evaluate(assignment):
            models.append(assignment)
    return models
