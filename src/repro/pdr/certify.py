"""Independent checking of inductive-invariant certificates.

The PDR engine's PROVED verdict rests on its frame bookkeeping; this
module re-derives the claim from scratch so a bookkeeping bug surfaces
as a loud :class:`repro.errors.CertificateError` instead of a wrong
answer.  Nothing here shares state with the engine: the invariant is
rebuilt as AIG logic from the certificate's clause list alone, and each
of the three conditions is one SAT query on a fresh solver —

* initiation:   ``I ∧ ¬Inv``          is UNSAT;
* consecution:  ``Inv ∧ C ∧ T ∧ ¬Inv'`` is UNSAT (fresh two-frame
  unrolling, constraints at the source frame only — the same transition
  semantics every engine and ``Trace.validate`` use);
* safety:       ``Inv ∧ C ∧ ¬P``      is UNSAT.

``check_certificate`` is called by the engine itself before any PROVED
result escapes (always; there is no switch) and by the test
suite against results that crossed process or serialization boundaries.
"""

from __future__ import annotations

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.aig.ops import and_all, or_all
from repro.circuits.netlist import Netlist
from repro.errors import CertificateError
from repro.mc.result import InvariantCertificate
from repro.mc.unroll import Unroller
from repro.sat.solver import SolveResult, Solver


def invariant_edge(
    netlist: Netlist, certificate: InvariantCertificate
) -> int:
    """The certificate's CNF as a single AIG edge over the latches."""
    aig = netlist.aig
    latch_nodes = set(netlist.latch_nodes)
    clause_edges = []
    for clause in certificate.clauses:
        literal_edges = []
        for lit in clause:
            node = abs(lit)
            if node not in latch_nodes:
                raise CertificateError(
                    f"certificate literal {lit} is not a latch of "
                    f"{netlist.name!r}"
                )
            literal_edges.append(2 * node if lit > 0 else 2 * node + 1)
        clause_edges.append(or_all(aig, literal_edges))
    return and_all(aig, clause_edges)


def _edge_unsatisfiable(netlist: Netlist, edge: int) -> bool:
    if edge == FALSE:
        return True
    mapper = CnfMapper(netlist.aig, Solver())
    return mapper.solver.solve([mapper.lit_for(edge)]) is not SolveResult.SAT


def check_certificate(
    netlist: Netlist,
    certificate: InvariantCertificate,
) -> None:
    """Raise :class:`CertificateError` unless the certificate holds."""
    aig = netlist.aig
    inv = invariant_edge(netlist, certificate)
    if not _edge_unsatisfiable(
        netlist, aig.and_(netlist.init_state_edge(), edge_not(inv))
    ):
        raise CertificateError(
            "certificate fails initiation: the initial state violates "
            "the invariant"
        )
    if not _edge_unsatisfiable(
        netlist,
        aig.and_(
            inv,
            aig.and_(netlist.constraint_edge(),
                     edge_not(netlist.property_edge)),
        ),
    ):
        raise CertificateError(
            "certificate fails safety: the invariant admits a bad state"
        )
    solver = Solver()
    unroller = Unroller(netlist, solver, assert_constraints=False)
    unroller.ensure_frames(2)
    unroller.constrain_frame(0)
    solver.add_clause([unroller.edge_lit_in(unroller.frame(0), inv)])
    solver.add_clause(
        [unroller.edge_lit_in(unroller.frame(1), edge_not(inv))]
    )
    if solver.solve() is SolveResult.SAT:
        raise CertificateError(
            "certificate fails consecution: a constrained step escapes "
            "the invariant"
        )
