"""Bit-parallel AIG simulation.

Simulation drives the sweeping engines: random patterns partition nodes into
candidate-equivalence classes, and every SAT counterexample is fed back as
one more pattern ("any SAT solver solution thus potentially rules-out
several non matching couples").  A node's value over ``words * 64``
patterns is one Python integer: bit ``i`` is the node's value under
pattern ``i``.  A packed-int AND/XOR is one arbitrary-precision machine op,
so the per-node cost is a few interpreter ops.  The kernel runs on a
*levelized cone plan*: one topological pass over flat integer arrays, with
no per-node dict lookups.

Plans are cached on the :class:`~repro.aig.graph.Aig` instance keyed by the
target node set.  The manager is append-only, so a plan — the cone's
topological order compiled to positional fanin/negation columns — stays
valid forever; repeated simulations of the same targets (PDR's ternary
generalization, FRAIG resimulation) skip the cone walk entirely.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.aig.graph import Aig
from repro.errors import AigError

# Plans are tiny (five int tuples per AND) but target sets are open-ended —
# FRAIG asks for one fresh node at a time — so the per-manager plan cache is
# bounded with the same wholesale-amnesia discipline as the BDD caches.
_MAX_PLANS = 256


class ConePlan:
    """A levelized, position-indexed evaluation plan for one target set.

    ``ops`` holds one ``(dst, src0, neg0, src1, neg1)`` tuple per AND node
    in topological order; ``inputs`` holds ``(pos, node)`` for the cone's
    inputs; ``pos`` maps node ids to value-array positions (position 0 is
    the constant-FALSE node) and ``nodes`` is the inverse column.
    Positions index a flat value list, so an evaluator is one loop with
    no dict access.
    """

    __slots__ = ("size", "inputs", "ops", "pos", "nodes")

    def __init__(self, aig: Aig, nodes: tuple[int, ...]) -> None:
        pos: dict[int, int] = {0: 0}
        node_ids: list[int] = [0]
        inputs: list[tuple[int, int]] = []
        ops: list[tuple[int, int, int, int, int]] = []
        for node in aig.cone([2 * n for n in nodes]):
            index = len(pos)
            pos[node] = index
            node_ids.append(node)
            if aig.is_input(node):
                inputs.append((index, node))
            else:
                f0, f1 = aig.fanins(node)
                ops.append(
                    (index, pos[f0 >> 1], f0 & 1, pos[f1 >> 1], f1 & 1)
                )
        self.size = len(pos)
        self.inputs = inputs
        self.ops = ops
        self.pos = pos
        self.nodes = node_ids


def cone_plan(aig: Aig, edges: Sequence[int]) -> ConePlan:
    """The (cached) levelized plan for the cone of ``edges``."""
    key = tuple(sorted({edge >> 1 for edge in edges}))
    plans = aig.__dict__.get("_sim_plans")
    if plans is None:
        plans = aig.__dict__["_sim_plans"] = {}
    plan = plans.get(key)
    if plan is None:
        if len(plans) >= _MAX_PLANS:
            plans.clear()
        plan = ConePlan(aig, key)
        plans[key] = plan
    return plan


def word_mask(words: int) -> int:
    """The all-ones value over ``words * 64`` patterns."""
    return (1 << (words * 64)) - 1


def _eval_plan(
    plan: ConePlan,
    input_ints: Mapping[int, int],
    mask: int,
) -> list[int]:
    """One topological pass; returns the flat per-position value list."""
    values = [0] * plan.size
    for index, node in plan.inputs:
        values[index] = input_ints.get(node, 0)
    for dst, src0, neg0, src1, neg1 in plan.ops:
        a = values[src0]
        if neg0:
            a ^= mask
        b = values[src1]
        if neg1:
            b ^= mask
        values[dst] = a & b
    return values


def simulate(
    aig: Aig,
    input_words: Mapping[int, int],
    targets: Sequence[int],
    words: int,
) -> dict[int, int]:
    """Simulate the cones of ``targets`` over ``words * 64`` patterns.

    ``input_words`` maps input *nodes* to packed pattern values below
    ``word_mask(words)``; inputs missing from the map are constant zero.
    Returns a map from each target *edge* to its packed value.
    """
    plan = cone_plan(aig, targets)
    mask = word_mask(words)
    values = _eval_plan(plan, input_words, mask)
    pos = plan.pos
    result: dict[int, int] = {}
    for edge in targets:
        value = values[pos.get(edge >> 1, 0)]
        result[edge] = value ^ mask if edge & 1 else value
    return result


def simulate_nodes(
    aig: Aig,
    input_words: Mapping[int, int],
    targets: Sequence[int],
    words: int,
) -> dict[int, int]:
    """Like :func:`simulate` but returns *node* values for whole cones.

    The sweeping engines need per-node signatures, not just root values.
    """
    plan = cone_plan(aig, targets)
    values = _eval_plan(plan, input_words, word_mask(words))
    return dict(zip(plan.nodes, values))


def random_input_words(
    aig: Aig, words: int, seed: int = 0
) -> dict[int, int]:
    """Uniform random patterns for every input of the manager."""
    rng = random.Random(seed)
    return {node: rng.getrandbits(64 * words) for node in aig.inputs}


def eval_edge(aig: Aig, edge: int, assignment: Mapping[int, bool]) -> bool:
    """Evaluate one edge under a Boolean input assignment (by node id)."""
    plan = cone_plan(aig, (edge,))
    values = [0] * plan.size
    for index, node in plan.inputs:
        if assignment.get(node, False):
            values[index] = 1
    for dst, src0, neg0, src1, neg1 in plan.ops:
        values[dst] = (values[src0] ^ neg0) & (values[src1] ^ neg1)
    return bool((values[plan.pos.get(edge >> 1, 0)] ^ edge) & 1)


def truth_table(aig: Aig, edge: int, input_order: Sequence[int]) -> int:
    """Exhaustive truth table of ``edge`` over ``input_order`` as a bitmask.

    Bit ``i`` of the result is the function value when input ``k`` takes
    bit ``k`` of ``i``.  Limited to 16 inputs (65536 rows).
    """
    n = len(input_order)
    if n > 16:
        raise AigError("truth_table supports at most 16 inputs")
    rows = 1 << n
    plan = cone_plan(aig, (edge,))
    mask = (1 << rows) - 1
    # Input k's column is the standard block pattern 0101.., 0011.., ...
    # built directly as packed integers.
    input_ints: dict[int, int] = {}
    for k, node in enumerate(input_order):
        block = 1 << k
        pattern = ((1 << block) - 1) << block
        period = block * 2
        full = 0
        for shift in range(0, rows, period):
            full |= pattern << shift
        input_ints[node] = full & mask
    values = _eval_plan(plan, input_ints, mask)
    value = values[plan.pos.get(edge >> 1, 0)]
    if edge & 1:
        value ^= mask
    return value
