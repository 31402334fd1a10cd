"""Stuck-at-fault testing over AIG cones.

The paper closes its merge-phase discussion with: "the procedure is not far
from testing stuck-at-faults on comparison gates over the product machine of
the combined cofactors.  Anyway, as our main goal is finding merge points,
we are more interested in finding redundancies, than good test patterns for
faults."  This package builds that connection out in full:

* a single stuck-at fault model over AIG nodes and AND-gate pins with
  classic equivalence/dominance collapsing (:mod:`repro.atpg.faults`);
* fault injection by cone rebuilding (:mod:`repro.atpg.inject`);
* bit-parallel fault simulation with fault dropping
  (:mod:`repro.atpg.fsim`);
* PODEM test generation with five-valued composite simulation
  (:mod:`repro.atpg.podem`);
* SAT-based test generation and untestability proofs
  (:mod:`repro.atpg.satgen`);
* redundancy removal — the synthesis transformation the paper actually
  wants from the fault view (:mod:`repro.atpg.redundancy`);
* the merge bridge itself: equivalence checking as a test for a stuck-at
  fault on the comparison gate (:mod:`repro.atpg.equivalence`).
"""

from repro.atpg.faults import (
    OUTPUT,
    Fault,
    collapse_faults,
    full_fault_list,
)
from repro.atpg.inject import inject_fault
from repro.atpg.fsim import FaultSimulator, fault_coverage
from repro.atpg.podem import PodemGenerator, PodemResult
from repro.atpg.satgen import SatTestGenerator
from repro.atpg.redundancy import remove_redundancies, find_redundant_faults
from repro.atpg.equivalence import check_equal_via_atpg

__all__ = [
    "OUTPUT",
    "Fault",
    "FaultSimulator",
    "PodemGenerator",
    "PodemResult",
    "SatTestGenerator",
    "check_equal_via_atpg",
    "collapse_faults",
    "fault_coverage",
    "find_redundant_faults",
    "full_fault_list",
    "inject_fault",
    "remove_redundancies",
]
