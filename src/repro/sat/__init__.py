"""SAT substrate: CNF formulas and solvers.

The paper relies on ZChaff for the SAT-based merge checks of Section 2.1 and
for all fix-point / intersection tests of the traversal routine (Section 3).
This package provides the stand-in: a CDCL solver
(:class:`repro.sat.solver.Solver`) with an assumption-based incremental
interface so that "several checks [are factorized] together within a single
run" exactly as the paper describes, and a slow reference DPLL solver used
as a test oracle.  The CDCL solver, fed through
:class:`repro.aig.cnf.CnfMapper`, is the one SAT back end:
sweeping sessions and one-shot equivalence and certificate checks alike.
Formulas live in memory only: :class:`repro.sat.cnf.CNF` has no DIMACS
reader or writer, and an UNSAT verdict under assumptions reports its
assumption subset as :attr:`Solver.core`.
"""

from repro.sat.cnf import CNF, Clause, neg
from repro.sat.solver import ProofLog, Solver, SolveResult
from repro.sat.dpll import DpllSolver

__all__ = [
    "CNF",
    "Clause",
    "ProofLog",
    "Solver",
    "SolveResult",
    "DpllSolver",
    "neg",
]
