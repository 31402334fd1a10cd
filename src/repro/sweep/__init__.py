"""Merge-phase engines (Section 2.1 of the paper).

Three escalating ways to find merge points between the cofactor circuits:

1. structural hashing — free, courtesy of the AIG manager's hash-consing
   ("we exploit AIG semi-canonicity and hashing scheme to early detect
   functionally equivalent map points");
2. BDD sweeping — canonical BDDs under a node budget, cut points past it
   (:mod:`repro.sweep.bddsweep`, after Kuehlmann-Krohm [4]);
3. SAT-based checks for the remaining compare points, factorized inside an
   incremental solver that is recycled once it outgrows the cones being
   checked (:mod:`repro.sweep.satsweep`).

Simulation signatures (:mod:`repro.sweep.signatures`) pre-filter candidate
pairs for the SAT engine, and every SAT counterexample refines the
signatures — "any SAT solver solution thus potentially rules-out several
non matching couples".

:mod:`repro.sweep.fraig` repeats the SAT sweep and extracts the swept
cones into a fresh manager, so that superseded logic is really dropped.
"""

from repro.sweep.signatures import SignatureTable
from repro.sweep.satsweep import SatSweeper, prove_edges_equivalent
from repro.sweep.bddsweep import BddSweepTable, bdd_sweep
from repro.sweep.fraig import fraig, fraig_netlist, FraigResult

__all__ = [
    "SignatureTable",
    "SatSweeper",
    "prove_edges_equivalent",
    "BddSweepTable",
    "bdd_sweep",
    "fraig",
    "fraig_netlist",
    "FraigResult",
]
