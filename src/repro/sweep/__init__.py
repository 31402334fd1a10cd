"""Merge-phase engines (Section 2.1 of the paper).

Three escalating ways to find merge points between the cofactor circuits:

1. structural hashing — free, courtesy of the AIG manager's hash-consing
   ("we exploit AIG semi-canonicity and hashing scheme to early detect
   functionally equivalent map points");
2. BDD sweeping — canonical BDDs under a node budget, cut points past it
   (:mod:`repro.sweep.bddsweep`, after Kuehlmann-Krohm [4]);
3. SAT-based checks for the remaining compare points, factorized inside a
   single incremental solver (:mod:`repro.sweep.satsweep`).

Simulation signatures (:mod:`repro.sweep.signatures`) pre-filter candidate
pairs for the SAT engine, and every SAT counterexample refines the
signatures — "any SAT solver solution thus potentially rules-out several
non matching couples".
"""

from repro.sweep.signatures import SignatureTable
from repro.sweep.satsweep import SatSweeper, prove_edges_equivalent
from repro.sweep.circuitsweep import CircuitSweeper
from repro.sweep.bddsweep import bdd_sweep
from repro.sweep.fraig import fraig, fraig_in_place, fraig_netlist, FraigResult

__all__ = [
    "SignatureTable",
    "SatSweeper",
    "CircuitSweeper",
    "prove_edges_equivalent",
    "bdd_sweep",
    "fraig",
    "fraig_in_place",
    "fraig_netlist",
    "FraigResult",
]
