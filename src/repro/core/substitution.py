"""Quantification by substitution — "in-lining" (Section 3).

Backward reachability must compute

    pre(S)(s, i)  =  exists x' .  S(x')  AND  (x' == delta(s, i))

Because the transition relation of a deterministic netlist is exactly a
conjunction of next-state definitions, the quantification of every
next-state variable collapses to functional composition:

    exists x . (x == g) AND f(x)   ==   f(g)

so ``pre(S) = S(delta(s, i))`` — one :func:`repro.aig.ops.compose` call and
*no* quantifier for the x' variables at all.  Only the primary inputs
``i`` remain to be quantified (by the circuit-based engine or left to a
SAT enumerator).
"""

from __future__ import annotations

from typing import Mapping

from repro.aig.graph import Aig
from repro.aig.ops import and_all, compose, xnor
from repro.errors import AigError


def preimage_by_substitution(
    aig: Aig,
    state_set: int,
    next_state_functions: Mapping[int, int],
) -> int:
    """Apply the in-lining rule: ``pre(S) = S(delta)`` over state inputs.

    ``next_state_functions`` maps each state-variable input node of the
    state set to its next-state function edge (over current-state and
    primary-input variables).  Variables of the state set missing from the
    map are left untouched, and entries outside its cone are never read:
    the rebuild visits the cone only.
    """
    return compose(aig, state_set, next_state_functions)


def preimage_relational(
    aig: Aig,
    state_set: int,
    next_state_functions: Mapping[int, int],
    next_state_placeholders: Mapping[int, int],
) -> int:
    """The *relational* pre-image the in-lining rule avoids.

    Builds ``S(x') AND  AND_k (x'_k XNOR delta_k)`` explicitly, leaving the
    x' variables to be quantified by the caller.  Exists only as the
    baseline for experiment T5: the in-lining rule gives the same function
    after quantifying the placeholders.

    ``next_state_placeholders`` maps state-variable input nodes (as used in
    ``state_set``) to fresh placeholder input nodes x'.
    """
    for node in next_state_placeholders.values():
        if not aig.is_input(node):
            raise AigError("placeholders must be input nodes")
    renamed = compose(
        aig,
        state_set,
        {
            old: 2 * new
            for old, new in next_state_placeholders.items()
        },
    )
    constraints = [
        xnor(aig, 2 * next_state_placeholders[node], fn)
        for node, fn in next_state_functions.items()
        if node in next_state_placeholders
    ]
    return aig.and_(renamed, and_all(aig, constraints))
