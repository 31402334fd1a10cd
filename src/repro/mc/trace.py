"""Counterexample trace reconstruction helpers.

Backward reachability and pre-image folding both end with an initial (or
unrolled) state known to lie in ``pre^j(bad)``: the concrete input choices
of the remaining ``j`` steps still have to be found.  Each step is a small
SAT problem — fix the current state, ask for inputs steering into the next
distance layer — posed with assumptions on one incremental solver.  The
distance layers share their cones, so the walk encodes each node once:
a traversal hands in the :class:`~repro.aig.cnf.CnfMapper` of its epoch
(which has most of the layers encoded already), and other callers get one
fresh mapper for the whole walk.
"""

from __future__ import annotations

from repro.aig.cnf import CnfMapper
from repro.circuits.netlist import Netlist
from repro.core.substitution import preimage_by_substitution
from repro.errors import ModelCheckingError
from repro.sat.solver import SolveResult, Solver


def _state_assumptions(
    mapper: CnfMapper, lit: int, state: dict[int, bool]
) -> list[int]:
    """``lit`` plus one assumption pinning each state variable."""
    assumptions = [lit]
    for node, value in state.items():
        input_lit = mapper.input_literal(node)
        assumptions.append(input_lit if value else -input_lit)
    return assumptions


def step_into(
    netlist: Netlist,
    state: dict[int, bool],
    target_edge: int,
    mapper: CnfMapper,
) -> tuple[dict[int, bool], dict[int, bool]]:
    """Find inputs taking ``state`` into ``target_edge`` in one step.

    Returns ``(inputs, next_state)``.  Raises if no such input exists —
    callers only invoke this when membership in the pre-image is known.
    The query is posed on ``mapper``, which must be over ``netlist.aig``.
    """
    aig = netlist.aig
    # target(delta(s, i)) with s fixed must be satisfiable over i, under
    # the environment constraints.
    shifted = preimage_by_substitution(aig, target_edge, netlist.next_functions())
    shifted = aig.and_(shifted, netlist.constraint_edge())
    assumptions = _state_assumptions(mapper, mapper.lit_for(shifted), state)
    if mapper.solver.solve(assumptions) is not SolveResult.SAT:
        raise ModelCheckingError(
            "state claimed to be in the pre-image has no successor in the "
            "target set (engine bug)"
        )
    model = mapper.model_inputs()
    inputs = {
        node: model.get(node, False) for node in netlist.input_nodes
    }
    next_state = netlist.simulate_step(state, inputs)
    return inputs, next_state


def find_violation_inputs(
    netlist: Netlist,
    state: dict[int, bool],
    mapper: CnfMapper | None = None,
) -> dict[int, bool] | None:
    """Inputs making the property fail *in* ``state`` (None if impossible).

    Needed when the property reads primary inputs: a state can only be
    called bad together with an input vector witnessing the violation.
    The query is posed on ``mapper`` (over ``netlist.aig``) if given, else
    on a fresh one.
    """
    aig = netlist.aig
    if mapper is None:
        mapper = CnfMapper(aig, Solver())
    lit = mapper.lit_for(
        aig.and_(netlist.property_edge ^ 1, netlist.constraint_edge())
    )
    assumptions = _state_assumptions(mapper, lit, state)
    if mapper.solver.solve(assumptions) is not SolveResult.SAT:
        return None
    model = mapper.model_inputs()
    return {node: model.get(node, False) for node in netlist.input_nodes}


def concretize_suffix(
    netlist: Netlist,
    state: dict[int, bool],
    targets: list[int],
    mapper: CnfMapper | None = None,
) -> tuple[list[dict[int, bool]], list[dict[int, bool]]]:
    """Walk a state through the distance layers down to the bad states.

    ``targets[0]`` is the bad-state set and ``targets[j]`` its j-step
    pre-image; ``state`` must satisfy ``targets[-1]``.  Returns the suffix
    ``(states, inputs)`` excluding the given state itself.  Every step is
    posed on ``mapper`` (over ``netlist.aig``), by default one fresh
    mapper for the whole walk.
    """
    if mapper is None:
        mapper = CnfMapper(netlist.aig, Solver())
    states: list[dict[int, bool]] = []
    inputs: list[dict[int, bool]] = []
    current = dict(state)
    for layer in range(len(targets) - 2, -1, -1):
        step_inputs, current = step_into(
            netlist, current, targets[layer], mapper
        )
        inputs.append(step_inputs)
        states.append(dict(current))
    return states, inputs

