"""Boolean algebra over AIG edges.

All operators create nodes in the given manager and return edges.  The
quantification engine is built from exactly these pieces: cofactors for the
Shannon split, ``or_`` for the disjunction of cofactors, and ``compose`` for
quantification by substitution (in-lining, Section 3 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.errors import AigError


def or_(aig: Aig, a: int, b: int) -> int:
    """``a OR b`` via De Morgan."""
    return edge_not(aig.and_(edge_not(a), edge_not(b)))


def xor(aig: Aig, a: int, b: int) -> int:
    """``a XOR b`` as two ANDs (the standard AIG decomposition)."""
    return or_(aig, aig.and_(a, edge_not(b)), aig.and_(edge_not(a), b))


def xnor(aig: Aig, a: int, b: int) -> int:
    return edge_not(xor(aig, a, b))


def ite(aig: Aig, cond: int, then_edge: int, else_edge: int) -> int:
    """If-then-else: ``cond ? then : else``."""
    return or_(
        aig,
        aig.and_(cond, then_edge),
        aig.and_(edge_not(cond), else_edge),
    )


def implies_edge(aig: Aig, a: int, b: int) -> int:
    """``a -> b``."""
    return edge_not(aig.and_(a, edge_not(b)))


def and_all(aig: Aig, edges: Iterable[int]) -> int:
    """Conjunction of many edges as a balanced tree (keeps levels low)."""
    work = list(edges)
    if not work:
        return TRUE
    while len(work) > 1:
        merged = []
        for i in range(0, len(work) - 1, 2):
            merged.append(aig.and_(work[i], work[i + 1]))
        if len(work) % 2:
            merged.append(work[-1])
        work = merged
    return work[0]


def or_all(aig: Aig, edges: Iterable[int]) -> int:
    """Disjunction of many edges as a balanced tree."""
    return edge_not(and_all(aig, [edge_not(e) for e in edges]))


def support(aig: Aig, edge: int) -> set[int]:
    """The set of input *nodes* the edge structurally depends on.

    Read from the manager's cone memo: repeated support queries for the
    same cone (the quantification loop, netlist validation) walk it once.
    """
    return set(aig.cone_entry(edge >> 1).inputs)


def support_many(aig: Aig, edges: Sequence[int]) -> set[int]:
    """The union of the edges' supports."""
    return set().union(*(aig.cone_entry(edge >> 1).inputs for edge in edges))


def cofactor(aig: Aig, edge: int, var_node: int, value: bool,
             cache: dict[int, int] | None = None) -> int:
    """Shannon cofactor: the function with input ``var_node`` fixed.

    This is the entry point of circuit-based quantification: Section 2 of
    the paper forms both cofactors and disjoins them.
    """
    if not aig.is_input(var_node):
        raise AigError(f"node {var_node} is not an input")
    return aig.rebuild(edge, {var_node: TRUE if value else FALSE}, cache)


def compose(aig: Aig, edge: int, substitution: Mapping[int, int],
            cache: dict[int, int] | None = None) -> int:
    """Substitute edges for input nodes (functional composition).

    Quantification by substitution ("in-lining") is
    ``exists x' . S(x') AND (x' == delta(s, i))  ==  S(delta(s, i))`` —
    one :func:`compose` call with the next-state functions.
    """
    for node in substitution:
        if not aig.is_input(node):
            raise AigError(f"substituted node {node} is not an input")
    return aig.rebuild(edge, dict(substitution), cache)


def transfer(
    src: Aig,
    edge: int,
    dst: Aig,
    leaf_map: Mapping[int, int],
    cache: dict[int, int] | None = None,
) -> int:
    """Copy the cone of ``edge`` from one manager into another.

    ``leaf_map`` maps every input node of the cone (src node ids) to a dst
    edge.  ``cache`` (src node -> dst edge) can be shared across calls so
    one pass copies common logic once.  Used by netlist cloning and the
    product construction.
    """
    if cache is None:
        cache = {}
    cache.setdefault(0, FALSE)
    root = edge >> 1
    stack = [root]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        if src.is_input(node):
            if node not in leaf_map:
                raise AigError(f"input node {node} missing from leaf_map")
            cache[node] = leaf_map[node]
            stack.pop()
            continue
        f0, f1 = src.fanins(node)
        n0, n1 = f0 >> 1, f1 >> 1
        pending = False
        if n0 not in cache:
            stack.append(n0)
            pending = True
        if n1 not in cache:
            stack.append(n1)
            pending = True
        if pending:
            continue
        stack.pop()
        cache[node] = dst.and_(
            cache[n0] ^ (f0 & 1), cache[n1] ^ (f1 & 1)
        )
    return cache[root] ^ (edge & 1)


def constant_value(edge: int) -> bool | None:
    """``True``/``False`` for the constant edges, ``None`` otherwise."""
    if edge == TRUE:
        return True
    if edge == FALSE:
        return False
    return None
