"""CNF formula container.

Literals use the DIMACS convention throughout the public API: variables are
positive integers ``1..num_vars`` and a negative integer denotes negation.
The CDCL solver converts to a dense internal encoding on entry.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import SatError

Clause = tuple[int, ...]


def neg(lit: int) -> int:
    """Return the negation of a DIMACS literal."""
    return -lit


def _validate_clause(lits: Iterable[int]) -> Clause:
    clause = tuple(int(lit) for lit in lits)
    for lit in clause:
        if lit == 0:
            raise SatError("literal 0 is not allowed inside a clause")
    return clause


class CNF:
    """A CNF formula: a bag of clauses over variables ``1..num_vars``.

    The container is deliberately dumb — it never simplifies.  Solvers and
    encoders own any normalization they need.

    >>> f = CNF()
    >>> a, b = f.new_var(), f.new_var()
    >>> f.add_clause([a, b])
    >>> f.add_clause([-a])
    >>> f.num_vars, f.num_clauses
    (2, 2)
    """

    def __init__(self, num_vars: int = 0) -> None:
        if num_vars < 0:
            raise SatError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: list[Clause] = []

    def new_var(self) -> int:
        """Allocate a fresh variable and return it as a positive literal."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        if count < 0:
            raise SatError("count must be non-negative")
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append a clause, growing ``num_vars`` to cover its literals."""
        clause = _validate_clause(lits)
        for lit in clause:
            var = abs(lit)
            if var > self.num_vars:
                self.num_vars = var
        self.clauses.append(clause)

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Evaluate under a total assignment (``assignment[var-1]``).

        Raises :class:`SatError` if the assignment is too short.
        """
        if len(assignment) < self.num_vars:
            raise SatError(
                f"assignment covers {len(assignment)} of {self.num_vars} variables"
            )
        for clause in self.clauses:
            satisfied = False
            for lit in clause:
                value = assignment[abs(lit) - 1]
                if (lit > 0) == value:
                    satisfied = True
                    break
            if not satisfied:
                return False
        return True

    def copy(self) -> "CNF":
        dup = CNF(self.num_vars)
        dup.clauses = list(self.clauses)
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CNF(vars={self.num_vars}, clauses={self.num_clauses})"
