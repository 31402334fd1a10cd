"""Equivalence checking as stuck-at-fault testing on a comparison gate.

Section 2.1's closing remark: the merge procedure "is not far from testing
stuck-at-faults on comparison gates over the product machine of the
combined ... cofactors".  This module implements the remark literally:

1. build the comparison gate ``m = a XNOR b`` (the product machine's
   comparator);
2. pose the single fault *m stuck-at-1*;
3. a test for the fault is an input where ``m = 0``, i.e. ``a != b``;
4. untestable (redundant) means the comparator is constantly 1: the two
   circuits are equivalent and ``b`` may be merged into ``a``.

Either test generator (PODEM or SAT) can discharge the fault, so this
bridge doubles as a cross-check between the ATPG engines and the sweeping
engines.
"""

from __future__ import annotations

from repro.aig.graph import Aig
from repro.aig.ops import xnor
from repro.atpg.faults import OUTPUT, Fault
from repro.atpg.podem import PodemGenerator, PodemVerdict
from repro.atpg.satgen import SatTestGenerator
from repro.errors import AigError


def check_equal_via_atpg(
    aig: Aig,
    a: int,
    b: int,
    engine: str = "sat",
    budget: int = 20_000,
) -> tuple[bool | None, dict[int, bool] | None]:
    """Equivalence of two edges posed as a comparison-gate fault.

    Returns ``(verdict, counterexample)`` with the same contract as
    :func:`repro.sweep.satsweep.prove_edges_equivalent`: ``True`` means
    the stuck-at-1 fault on the comparator is redundant (edges equal);
    ``False`` comes with the distinguishing test pattern; ``None`` means
    the budget ran out.

    ``engine`` picks the test generator: ``"sat"`` or ``"podem"``.
    """
    if engine not in ("sat", "podem"):
        raise AigError(f"unknown ATPG engine: {engine!r}")
    if a == b:
        return True, None
    comparator = xnor(aig, a, b)
    # The XNOR may constant-fold (e.g. b == NOT a); handle directly.
    if comparator == 1:
        return True, None
    if comparator == 0:
        from repro.aig.ops import support_many

        pattern = {n: False for n in support_many(aig, [a, b])}
        return False, pattern
    # Stuck-at-1 on the comparator *function*: when the comparator edge is
    # complemented, that is stuck-at-0 on the underlying node.
    node = comparator >> 1
    fault = Fault(node, OUTPUT, not (comparator & 1))
    if engine == "podem":
        generator = PodemGenerator(aig, [comparator], backtrack_limit=budget)
        result = generator.generate(fault)
        if result.verdict is PodemVerdict.REDUNDANT:
            return True, None
        if result.verdict is PodemVerdict.TEST_FOUND:
            return False, result.pattern
        return None, None
    sat_generator = SatTestGenerator(aig, [comparator], conflict_budget=budget)
    testable, pattern = sat_generator.generate(fault)
    if testable is False:
        return True, None
    if testable is True:
        return False, pattern
    return None, None
