"""All-solutions SAT: model enumeration with blocking clauses.

This is the substrate for the SAT-based pre-image of Ganai et al. that
Section 4 of the paper combines with circuit quantification.  Models are
enumerated projected onto a chosen set of *important* variables; each model
is blocked by adding the negation of its projected cube.

Cube *generalization* at the CNF level is optional literal dropping: a
literal can be removed from the blocking cube when the remaining cube still
cannot be extended to a new solution class.  The stronger circuit-cofactoring
generalization lives at the AIG level in
:func:`repro.core.partial.allsat_quantify`.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.errors import SatError
from repro.sat.cnf import CNF
from repro.sat.solver import Solver, SolveResult

Cube = tuple[int, ...]


def enumerate_models(
    cnf: CNF,
    max_models: int | None = None,
) -> Iterator[list[bool]]:
    """Yield every satisfying total assignment of ``cnf``.

    Each model is blocked in full, so the iteration terminates after at most
    2^n models.
    """
    solver = Solver(cnf)
    produced = 0
    while True:
        if max_models is not None and produced >= max_models:
            return
        if solver.solve() is not SolveResult.SAT:
            return
        model = solver.model
        yield model
        produced += 1
        blocking = [
            -(var + 1) if model[var] else (var + 1)
            for var in range(cnf.num_vars)
        ]
        if not solver.add_clause(blocking):
            return


def enumerate_projected_cubes(
    cnf: CNF,
    important_vars: Sequence[int],
    max_cubes: int | None = None,
    generalize: Callable[[Solver, Cube], Cube] | None = None,
) -> Iterator[Cube]:
    """Yield cubes over ``important_vars`` covering all solutions.

    Every satisfying assignment of ``cnf`` agrees with at least one yielded
    cube on the important variables.  Cubes are disjoint unless a
    ``generalize`` callback widens them (widened cubes may overlap earlier
    ones but never re-cover: each is blocked as yielded).

    ``generalize`` receives the solver (holding the full model) and the
    full projected cube, and must return a sub-cube that still implies the
    formula's satisfiability region it came from; the returned cube is what
    gets yielded and blocked.
    """
    for var in important_vars:
        if not 1 <= var <= cnf.num_vars:
            raise SatError(f"important variable {var} out of range")
    solver = Solver(cnf)
    produced = 0
    while True:
        if max_cubes is not None and produced >= max_cubes:
            return
        if solver.solve() is not SolveResult.SAT:
            return
        cube: Cube = tuple(
            var if solver.value(var) else -var for var in important_vars
        )
        if generalize is not None:
            cube = generalize(solver, cube)
            if not cube:
                raise SatError("generalization returned an empty cube")
        yield cube
        produced += 1
        if not solver.add_clause([-lit for lit in cube]):
            return


def drop_literals_generalizer(
    check: Callable[[Cube], bool],
) -> Callable[[Solver, Cube], Cube]:
    """Build a generalizer that greedily drops literals from a cube.

    ``check(cube)`` must return True when the (sub-)cube is still entirely
    contained in the solution region being enumerated.  The greedy loop
    keeps a literal only when dropping it breaks containment.
    """

    def generalize(solver: Solver, cube: Cube) -> Cube:
        current = list(cube)
        index = 0
        while index < len(current) and len(current) > 1:
            candidate = current[:index] + current[index + 1:]
            if check(tuple(candidate)):
                current = candidate
            else:
                index += 1
        return tuple(current)

    return generalize
