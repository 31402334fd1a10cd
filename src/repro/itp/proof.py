"""Resolution refutations and their independent checker.

A :class:`ResolutionProof` is an immutable snapshot of a proof-logging
solver's :class:`repro.sat.solver.ProofLog`: clauses in DIMACS literals,
each derived clause carrying the chain of antecedent ids it resolves.
The checker replays every chain by literal-set resolution — each step
must resolve on exactly one complementary pair, antecedents must precede
the clause they derive, and the replayed literal set must equal the
recorded clause — and a refutation must end in the empty clause.

Nothing here trusts the solver: the checker is the trust anchor the
interpolation engine rests on, so it shares no code with the CDCL
implementation beyond the literal convention.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ProofError
from repro.sat.cnf import CNF
from repro.sat.solver import ProofLog, Solver


class ResolutionProof:
    """An immutable resolution proof over DIMACS literals.

    ``literals[i]`` is clause ``i``; ``chains[i]`` its antecedent ids
    (empty for an axiom).  ``root`` is the empty clause of a refutation,
    ``final`` the clause concluding the last UNSAT verdict (the root, or
    the negated assumption core).
    """

    __slots__ = ("literals", "chains", "root", "final")

    def __init__(
        self,
        literals: tuple[tuple[int, ...], ...],
        chains: tuple[tuple[int, ...], ...],
        root: int | None = None,
        final: int | None = None,
    ) -> None:
        if len(literals) != len(chains):
            raise ProofError("literals and chains must align")
        self.literals = literals
        self.chains = chains
        self.root = root
        self.final = final

    @classmethod
    def from_log(cls, log: ProofLog) -> "ResolutionProof":
        return cls(
            tuple(log.literals), tuple(log.chains), log.root, log.final
        )

    @classmethod
    def from_solver(cls, solver: Solver) -> "ResolutionProof":
        log = solver.proof
        if log is None:
            raise ProofError(
                "solver holds no proof; construct it with Solver(proof=True)"
            )
        return cls.from_log(log)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.literals)

    def axiom_ids(self) -> Iterator[int]:
        for index, chain in enumerate(self.chains):
            if not chain:
                yield index

    def antecedent_cone(self, index: int) -> list[int]:
        """Every clause id the derivation of ``index`` depends on,
        ascending (and therefore topologically sorted)."""
        seen = {index}
        stack = [index]
        while stack:
            for parent in self.chains[stack.pop()]:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return sorted(seen)

    def partition(self, split: int) -> tuple[CNF, CNF]:
        """The axioms as two CNFs: ids below ``split`` vs. the rest.

        This recovers the (A, B) pair an interpolation query was posed
        as, which is what ``verify_interpolant`` checks against.
        """
        cnf_a, cnf_b = CNF(), CNF()
        for index in self.axiom_ids():
            target = cnf_a if index < split else cnf_b
            target.add_clause(self.literals[index])
        return cnf_a, cnf_b

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def resolution_steps(
        self, index: int
    ) -> Iterator[tuple[int, int, frozenset[int]]]:
        """Replay one chain, yielding ``(antecedent_id, pivot, result)``.

        The pivot is the literal of the running clause that the
        antecedent resolves away.  Raises :class:`ProofError` on a step
        with no (or more than one) complementary pair, on an antecedent
        that does not precede the derived clause, and on a final literal
        set differing from the recorded clause.
        """
        chain = self.chains[index]
        if not chain:
            return
        if max(chain) >= index:
            raise ProofError(
                f"clause {index} resolves antecedent {max(chain)} that does "
                f"not precede it"
            )
        lits = set(self.literals[chain[0]])
        for antecedent in chain[1:]:
            other = self.literals[antecedent]
            pivots = [lit for lit in lits if -lit in other]
            if len(pivots) != 1:
                raise ProofError(
                    f"clause {index}: resolution with antecedent "
                    f"{antecedent} has {len(pivots)} complementary pairs "
                    f"(need exactly 1)"
                )
            pivot = pivots[0]
            lits.discard(pivot)
            lits.update(other)
            lits.discard(-pivot)
            yield antecedent, pivot, frozenset(lits)
        if lits != set(self.literals[index]):
            raise ProofError(
                f"clause {index} replays to {sorted(lits)}, recorded as "
                f"{sorted(self.literals[index])}"
            )

    def replay(self, index: int) -> frozenset[int]:
        """The literal set chain ``index`` derives (validating each step)."""
        result = frozenset(self.literals[index])
        for _, _, result in self.resolution_steps(index):
            pass
        return result

    def check(self) -> int:
        """Replay every derived chain; returns how many were checked."""
        checked = 0
        for index in range(len(self.literals)):
            if self.chains[index]:
                self.replay(index)
                checked += 1
        return checked

    def check_refutation(self) -> int:
        """Full check plus: the root exists and is the empty clause."""
        if self.root is None:
            raise ProofError("proof has no root (no refutation was logged)")
        if self.literals[self.root]:
            raise ProofError(
                f"root clause {self.root} is not empty: "
                f"{self.literals[self.root]}"
            )
        return self.check()
