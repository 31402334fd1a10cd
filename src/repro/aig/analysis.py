"""Structural analysis helpers: cone sizes, levels, sharing statistics.

The experiments report circuit sizes before and after quantification;
the sizes the ``benchmarks/bench_*`` modules write to
``benchmarks/results.txt`` come from these functions.
"""

from __future__ import annotations

from typing import Sequence

from repro.aig.graph import Aig


def cone_size(aig: Aig, edge: int) -> int:
    """Number of AND nodes in the cone of an edge (the paper's size metric).

    Read from the manager's cone memo: sizing a cone asked about before
    walks nothing.
    """
    return aig.cone_entry(edge >> 1).ands


def cone_size_many(aig: Aig, edges: Sequence[int]) -> int:
    """AND nodes in the union of the cones (counts shared logic once)."""
    if len({edge >> 1 for edge in edges}) == 1:
        return cone_size(aig, edges[0])
    return sum(1 for node in aig.cone(edges) if aig.is_and(node))


def level_of(aig: Aig, edge: int) -> int:
    """Logic depth of an edge."""
    return aig.level(edge >> 1)


def shared_nodes(aig: Aig, a: int, b: int) -> int:
    """AND nodes common to the cones of two edges.

    The merge phase exists to push this number up: "merge together as many
    internal nodes of f0 and f1 as possible".
    """
    cone_a = {n for n in aig.cone([a]) if aig.is_and(n)}
    cone_b = {n for n in aig.cone([b]) if aig.is_and(n)}
    return len(cone_a & cone_b)


def sharing_ratio(aig: Aig, a: int, b: int) -> float:
    """Fraction of the union of the two cones that is shared."""
    cone_a = {n for n in aig.cone([a]) if aig.is_and(n)}
    cone_b = {n for n in aig.cone([b]) if aig.is_and(n)}
    union = cone_a | cone_b
    if not union:
        return 1.0
    return len(cone_a & cone_b) / len(union)
