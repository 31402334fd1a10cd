"""Fault injection by cone rebuilding.

The faulty circuit is expressed inside the same AIG manager: the cone of
the targets is rebuilt with the faulty gate's behaviour substituted.  The
good and faulty circuits then share all logic outside the fault's output
cone — exactly the "product machine" construction the paper alludes to for
its comparison-gate view of equivalence checking.
"""

from __future__ import annotations

from typing import Sequence

from repro.aig.graph import FALSE, TRUE, Aig
from repro.atpg.faults import OUTPUT, Fault, _check_fault


def _constant(value: bool) -> int:
    return TRUE if value else FALSE


def inject_fault(
    aig: Aig, roots: Sequence[int], fault: Fault
) -> list[int]:
    """Rebuild ``roots`` with ``fault`` in effect; returns faulty edges.

    Output faults tie the node's value to the stuck constant; pin faults
    replace one consumed fanin value.  The rebuilt edges live in the same
    manager, so a miter between good and faulty roots is a few extra XOR
    gates.
    """
    _check_fault(aig, fault)
    if fault.pin == OUTPUT:
        return [
            aig.rebuild(root, {fault.node: _constant(fault.stuck_at)})
            for root in roots
        ]
    # Pin fault: rebuild the faulty gate by hand, then substitute it.
    f0, f1 = aig.fanins(fault.node)
    if fault.pin == 0:
        faulty_gate = aig.and_(_constant(fault.stuck_at), f1)
    else:
        faulty_gate = aig.and_(f0, _constant(fault.stuck_at))
    return [
        aig.rebuild(root, {fault.node: faulty_gate}) for root in roots
    ]
