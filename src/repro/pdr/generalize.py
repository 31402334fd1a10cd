"""Cube generalization: ternary expansion and unsat-core dropping.

Two independent widenings keep PDR's reasoning per-query cheap:

* **Ternary-simulation expansion** (SAT side).  A model gives one
  concrete predecessor (or bad) state; most of its latches are
  irrelevant to where it steps under the model's inputs.  Each latch is
  tentatively set to X and the targets re-evaluated in three-valued
  logic; latches whose X never reaches a target output are dropped, so
  one SAT model covers a whole cube of states.  A bit-parallel binary
  pre-filter (one :func:`repro.aig.simulate.simulate` call evaluating
  every single-latch flip at once) rules out the latches that provably
  matter before the exact ternary walk runs.  The expansion guarantee —
  *every* completion of the cube reaches the targets under the fixed
  inputs — is exactly what makes obligation chains replayable as
  concrete counterexample traces.

* **Unsat-core dropping** (UNSAT side).  When a consecution query
  refutes a cube, :attr:`repro.sat.solver.Solver.core` names the primed
  assumption literals the refutation actually used; the rest of the
  cube is dropped outright, and the survivors are attacked one by one
  with further queries.  Every candidate must keep excluding the
  initial state — a clause the initial state violates would break the
  certificate's initiation check.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.aig.graph import Aig
from repro.aig.simulate import _eval_plan, cone_plan
from repro.circuits.netlist import Netlist
from repro.pdr.frames import cube_excludes_init, state_to_cube
from repro.util.stats import StatsBag

Targets = Sequence[tuple[int, bool]]

# Flat three-valued encoding used by the ternary walk below.
_F, _T, _X = 0, 1, 2


def _ternary_eval(
    aig: Aig,
    assignment: Mapping[int, bool | None],
    targets: Targets,
) -> bool:
    """True iff every target edge evaluates to its required value in
    three-valued logic (``None`` = X) under the assignment.

    Runs on the cached levelized cone plan: one pass over flat int
    arrays (0/1/2 = False/True/X), no cone recomputation and no dict
    lookups per node.  This is PDR's per-candidate inner loop.
    """
    plan = cone_plan(aig, [edge for edge, _ in targets])
    values = [_F] * plan.size
    for index, node in plan.inputs:
        value = assignment.get(node, False)
        if value is None:
            values[index] = _X
        elif value:
            values[index] = _T
    for dst, src0, neg0, src1, neg1 in plan.ops:
        a = values[src0]
        if neg0 and a != _X:
            a ^= 1
        b = values[src1]
        if neg1 and b != _X:
            b ^= 1
        if a == _F or b == _F:
            values[dst] = _F
        elif a == _X or b == _X:
            values[dst] = _X
        else:
            values[dst] = _T
    pos = plan.pos
    for edge, required in targets:
        value = values[pos.get(edge >> 1, 0)]
        if value != _X and edge & 1:
            value ^= 1
        if value == _X or (value == _T) is not required:
            return False
    return True


def _flip_candidates(
    netlist: Netlist,
    state: Mapping[int, bool],
    inputs: Mapping[int, bool],
    targets: Targets,
) -> list[int]:
    """Latches whose single flip leaves every target at its required
    value — the only possible ternary drops, found with one bit-parallel
    simulation (pattern 0 is the base assignment, pattern k flips the
    k-th latch).  Lanes are packed integers straight into the plan
    evaluator."""
    latch_nodes = netlist.latch_nodes
    patterns = len(latch_nodes) + 1
    mask = (1 << patterns) - 1
    plan = cone_plan(netlist.aig, [edge for edge, _ in targets])
    input_ints: dict[int, int] = {}
    for node, value in inputs.items():
        input_ints[node] = mask if value else 0
    for k, node in enumerate(latch_nodes):
        base = mask if state[node] else 0
        input_ints[node] = base ^ (1 << (k + 1))
    values = _eval_plan(plan, input_ints, mask)
    pos = plan.pos
    ok = mask
    for edge, required in targets:
        vector = values[pos.get(edge >> 1, 0)]
        if edge & 1:
            vector ^= mask
        ok &= vector if required else vector ^ mask
    return [
        node
        for k, node in enumerate(latch_nodes)
        if (ok >> (k + 1)) & 1
    ]


def expand_cube(
    netlist: Netlist,
    state: Mapping[int, bool],
    inputs: Mapping[int, bool],
    targets: Targets,
    stats: StatsBag,
) -> frozenset[int]:
    """Widen a concrete state to a cube whose every completion satisfies
    the targets under the fixed inputs.

    Greedy: latches surviving the flip pre-filter are X-ed one at a
    time; a drop is kept only if the exact ternary evaluation still
    forces every target.  The returned cube contains the surviving
    literals of ``state``.
    """
    if not targets:
        # Nothing to preserve: any single literal suffices to name the
        # cube, but an empty target list only arises for latch-free or
        # degenerate calls — keep the full state and let the caller cope.
        return state_to_cube(state)
    candidates = _flip_candidates(netlist, state, inputs, targets)
    assignment: dict[int, bool | None] = dict(inputs)
    assignment.update(state)
    dropped = 0
    for node in candidates:
        saved = assignment[node]
        assignment[node] = None
        if _ternary_eval(netlist.aig, assignment, targets):
            dropped += 1
        else:
            assignment[node] = saved
    stats.incr("pdr_ternary_dropped", dropped)
    return frozenset(
        node if assignment[node] else -node
        for node in netlist.latch_nodes
        if assignment[node] is not None
    )


# ---------------------------------------------------------------------- #
# UNSAT-side generalization
# ---------------------------------------------------------------------- #


def shrink_with_core(
    cube: frozenset[int],
    core: frozenset[int],
    init: Mapping[int, bool],
) -> frozenset[int]:
    """Keep the cube literals the refutation used, preserving initiation.

    If the core alone no longer excludes the initial state (or is
    empty), one deterministic literal of the original cube that
    disagrees with the initial state is restored — such a literal always
    exists because obligation cubes never contain the initial state.
    """
    shrunk = cube & core
    if shrunk and cube_excludes_init(shrunk, init):
        return shrunk
    rescue = min(
        (
            lit for lit in cube
            if (lit > 0) != init[abs(lit)]
        ),
        key=abs,
    )
    return shrunk | {rescue}


def generalize_cube(
    pool,
    level: int,
    cube: frozenset[int],
    init: Mapping[int, bool],
    stats: StatsBag,
) -> frozenset[int]:
    """Drop further literals from an already-blocked cube.

    Each surviving literal is attacked with its own consecution query;
    a successful drop immediately re-shrinks with the new core.  The
    cube stays init-excluding throughout, so its negation is always a
    sound lemma.
    """
    for lit in sorted(cube, key=abs):
        if lit not in cube or len(cube) == 1:
            continue
        candidate = cube - {lit}
        if not cube_excludes_init(candidate, init):
            continue
        verdict, payload, _ = pool.relative_query(level, candidate)
        if verdict == "unsat":
            cube = shrink_with_core(candidate, payload, init)
            stats.incr("pdr_core_dropped")
    return cube
