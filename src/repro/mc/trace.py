"""Counterexample trace reconstruction helpers.

Backward reachability and pre-image folding both end with an initial (or
unrolled) state known to lie in ``pre^j(bad)``: the concrete input choices
of the remaining ``j`` steps still have to be found.  Each step asks, for
the fixed current state ``s``, for inputs ``i`` with
``target(delta(s, i)) AND C(s, i)``.

Simulation answers first, as in the paper's sweeping, where simulation
does the cheap work and SAT only decides what simulation cannot.  One
packed-int pass over the next-state functions and the constraints, with
``s`` pinned in every pattern and 64 random input patterns drawn from
``random.Random(step index)``, gives the successors; a second pass
evaluates the target layer on them.  A set bit is a concrete witness of
exactly the formula above, so a hit is an exact membership test, not a
guess, and the walk takes the lowest one.  Seeds come from the step
index, so a walk repeats exactly.

Only on a miss does SAT decide: the target layer is in-lined through the
next-state functions and posed with the state pinned by assumptions on
one incremental solver.  That query is the same for every state, and the
distance layers share their cones, so a walk encodes each node once: a
traversal hands in the :class:`~repro.aig.cnf.CnfMapper` of its checks
(which has most of the layers encoded already), and other callers get
one fresh mapper for the whole walk, made on the first miss.  The
violation inputs of the final state (``NOT P AND C``) are found in the
same order.  :func:`initial_violation` is the depth-0 check that
interpolation and PDR make before their searches.
"""

from __future__ import annotations

import random
from typing import Mapping

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.aig.simulate import simulate, word_mask
from repro.circuits.netlist import Netlist
from repro.core.substitution import preimage_by_substitution
from repro.errors import ModelCheckingError
from repro.mc.result import Trace
from repro.sat.solver import SolveResult, Solver
from repro.util.stats import StatsBag

# One 64-pattern word per input; an input-free design has one pattern,
# since every word is then all-ones or all-zero.
_MASK = word_mask(1)


def _pattern_words(
    netlist: Netlist, state: Mapping[int, bool], seed: int
) -> dict[int, int]:
    """Seeded random input words, with ``state`` pinned in every pattern."""
    rng = random.Random(seed)
    words = {node: rng.getrandbits(64) for node in netlist.input_nodes}
    for node, value in state.items():
        words[node] = _MASK if value else 0
    return words


def _lowest_pattern(
    words: Mapping[int, int], hits: int, nodes
) -> dict[int, bool]:
    """The values of ``nodes`` in the lowest pattern set in ``hits``."""
    bit = (hits & -hits).bit_length() - 1
    return {node: bool(words[node] >> bit & 1) for node in nodes}


def _state_assumptions(
    mapper: CnfMapper, lit: int, state: dict[int, bool]
) -> list[int]:
    """``lit`` plus one assumption pinning each state variable."""
    assumptions = [lit]
    for node, value in state.items():
        input_lit = mapper.input_literal(node)
        assumptions.append(input_lit if value else -input_lit)
    return assumptions


def _model_inputs(netlist: Netlist, mapper: CnfMapper) -> dict[int, bool]:
    model = mapper.model_inputs()
    return {node: model.get(node, False) for node in netlist.input_nodes}


def simulate_into(
    netlist: Netlist, state: dict[int, bool], target_edge: int, seed: int
) -> tuple[dict[int, bool], dict[int, bool]] | None:
    """``(inputs, next_state)`` of a simulated step into ``target_edge``.

    Tries the 64 input patterns drawn from ``random.Random(seed)``;
    returns None when none of them reaches the target under the
    constraints.
    """
    aig, next_functions = netlist.aig, netlist.next_functions()
    constraint = netlist.constraint_edge()
    words = _pattern_words(netlist, state, seed)
    values = simulate(aig, words, [*next_functions.values(), constraint], 1)
    successor = dict(words)
    for node, edge in next_functions.items():
        successor[node] = values[edge]
    target = simulate(aig, successor, [target_edge], 1)[target_edge]
    hits = values[constraint] & target
    if not hits:
        return None
    return (
        _lowest_pattern(words, hits, netlist.input_nodes),
        _lowest_pattern(successor, hits, next_functions),
    )


def step_into(
    netlist: Netlist,
    state: dict[int, bool],
    target_edge: int,
    mapper: CnfMapper,
) -> tuple[dict[int, bool], dict[int, bool]]:
    """Find inputs taking ``state`` into ``target_edge`` in one step by SAT.

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
    inputs = _model_inputs(netlist, mapper)
    return inputs, netlist.simulate_step(state, inputs)


def find_violation_inputs(
    netlist: Netlist,
    state: dict[int, bool],
    mapper: CnfMapper | None = None,
) -> dict[int, bool] | None:
    """Inputs making the property fail *in* ``state`` (None if impossible).

    Needed when the property reads primary inputs: a state can only be
    called bad together with an input vector witnessing the violation.
    Simulation (seed 0) tries first; on a miss the query is posed on
    ``mapper`` (over ``netlist.aig``) if given, else on a fresh one.
    """
    aig = netlist.aig
    prop, constraint = netlist.property_edge, netlist.constraint_edge()
    words = _pattern_words(netlist, state, 0)
    values = simulate(aig, words, [prop, constraint], 1)
    hits = (values[prop] ^ _MASK) & values[constraint]
    if hits:
        return _lowest_pattern(words, hits, netlist.input_nodes)
    if mapper is None:
        mapper = CnfMapper(aig, Solver())
    lit = mapper.lit_for(aig.and_(prop ^ 1, constraint))
    assumptions = _state_assumptions(mapper, lit, state)
    if mapper.solver.solve(assumptions) is not SolveResult.SAT:
        return None
    return _model_inputs(netlist, mapper)


def initial_violation(netlist: Netlist, stats: StatsBag) -> Trace | None:
    """The length-0 trace if an initial state violates the property.

    Asks SAT for ``init AND C AND NOT P`` on a fresh solver, counted in
    ``stats`` as one ``sat_calls``; no call is made when the query folds
    to FALSE in the manager.
    """
    aig = netlist.aig
    bad0 = aig.and_(
        netlist.init_state_edge(),
        aig.and_(netlist.constraint_edge(), edge_not(netlist.property_edge)),
    )
    if bad0 == FALSE:
        return None
    mapper = CnfMapper(aig, Solver())
    stats.incr("sat_calls")
    if mapper.solver.solve([mapper.lit_for(bad0)]) is not SolveResult.SAT:
        return None
    state = netlist.init_assignment()
    return Trace(
        states=[state], inputs=[],
        violation_inputs=find_violation_inputs(netlist, state),
    )


def concretize_suffix(
    netlist: Netlist,
    state: dict[int, bool],
    targets: list[int],
    mapper: CnfMapper | None = None,
    stats: StatsBag | None = None,
) -> tuple[list[dict[int, bool]], list[dict[int, bool]]]:
    """Walk a state through the distance layers down to the bad states.

    ``targets[0]`` is the bad-state set and each ``targets[j]`` lies in
    the pre-image of ``targets[j-1]`` (a traversal layer, or the j-step
    pre-image itself); ``state`` must satisfy ``targets[-1]``.  Returns
    the suffix ``(states, inputs)`` excluding the given state itself.
    Step ``k`` simulates with seed ``k``; a step that simulation misses
    is posed on ``mapper`` (over ``netlist.aig``), by default one fresh
    mapper for the whole walk.  ``stats`` counts the steps that
    simulation answered as ``trace_sim_steps`` and those that fell back
    to SAT as ``trace_sat_steps``.
    """
    states: list[dict[int, bool]] = []
    inputs: list[dict[int, bool]] = []
    current = dict(state)
    solved = 0
    for step, layer in enumerate(range(len(targets) - 2, -1, -1)):
        found = simulate_into(netlist, current, targets[layer], step)
        if found is None:
            if mapper is None:
                mapper = CnfMapper(netlist.aig, Solver())
            solved += 1
            found = step_into(netlist, current, targets[layer], mapper)
        step_inputs, current = found
        inputs.append(step_inputs)
        states.append(current)
    if stats is not None:
        stats.incr("trace_sim_steps", len(inputs) - solved)
        stats.incr("trace_sat_steps", solved)
    return states, inputs
