"""Truth-table-based local rewriting (the "category 2" optimizations).

Section 2.2 of the paper keeps a second class of size reductions that look
at the final function ("minimizing, factorizing, rewriting ... the final
resulting function").  This pass re-synthesizes small cuts from their truth
tables via Shannon decomposition with memoized sub-functions, and keeps the
new cone only when it is smaller.

The synthesis is deliberately simple — a recursive Shannon/ISOP hybrid on at
most ``k`` variables — but because it is applied over all cuts of the cone
with global structural hashing, it recovers most of the easy factorizations
the paper alludes to.
"""

from __future__ import annotations

from repro.aig.cuts import cut_truth_table, enumerate_cuts
from repro.aig.graph import FALSE, TRUE, Aig, edge_not
from repro.aig.ops import ite


def synthesize_from_truth_table(
    aig: Aig,
    mask: int,
    leaf_edges: list[int],
    cache: dict[tuple[int, tuple[int, ...]], int] | None = None,
) -> int:
    """Build an AIG edge computing the given truth table over leaf edges.

    Shannon-decomposes on the variable whose cofactors are simplest, with
    constant/equal-cofactor shortcuts; memoizes on (mask, leaves).
    """
    if cache is None:
        cache = {}
    return _synth(aig, mask, tuple(leaf_edges), cache)


def _synth(
    aig: Aig,
    mask: int,
    leaves: tuple[int, ...],
    cache: dict[tuple[int, tuple[int, ...]], int],
) -> int:
    n = len(leaves)
    rows = 1 << n
    full = (1 << rows) - 1
    mask &= full
    if mask == 0:
        return FALSE
    if mask == full:
        return TRUE
    if n == 1:
        return leaves[0] if mask == 0b10 else edge_not(leaves[0])
    key = (mask, leaves)
    hit = cache.get(key)
    if hit is not None:
        return hit
    # Cofactor masks w.r.t. each variable; pick the variable where the two
    # cofactors are most constrained (max constant/equal shortcuts).
    best = None
    for position in range(n):
        negative, positive = _cofactor_masks(mask, position, n)
        score = 0
        half_rows = 1 << (n - 1)
        half_full = (1 << half_rows) - 1
        for cof in (negative, positive):
            if cof in (0, half_full):
                score += 2
        if negative == positive:
            score += 3
        candidate = (score, position, negative, positive)
        if best is None or candidate > best:
            best = candidate
    _, position, negative, positive = best
    sub_leaves = leaves[:position] + leaves[position + 1:]
    if negative == positive:
        result = _synth(aig, negative, sub_leaves, cache)
    else:
        then_edge = _synth(aig, positive, sub_leaves, cache)
        else_edge = _synth(aig, negative, sub_leaves, cache)
        result = ite(aig, leaves[position], then_edge, else_edge)
    cache[key] = result
    return result


def _cofactor_masks(mask: int, position: int, n: int) -> tuple[int, int]:
    """Split a truth table on variable ``position``; returns (neg, pos)."""
    negative = 0
    positive = 0
    out_row_neg = 0
    out_row_pos = 0
    for row in range(1 << n):
        bit = (mask >> row) & 1
        if (row >> position) & 1:
            positive |= bit << out_row_pos
            out_row_pos += 1
        else:
            negative |= bit << out_row_neg
            out_row_neg += 1
    return negative, positive


def rewrite_root(
    aig: Aig,
    edge: int,
    k: int = 4,
    max_cuts_per_node: int = 6,
) -> int:
    """Rewrite the cone of ``edge``; returns a (possibly) smaller new edge.

    Processes the cone bottom-up.  For each node, tries every k-cut, builds
    the cut function from its truth table over *rewritten* leaves, and keeps
    the best replacement edge.  Each choice is only locally best — a
    smaller sub-cone can share less with its siblings — so the rewritten
    cone is compared with the original at the end and the original edge is
    returned when the rewrite is larger: size never increases.
    """
    if edge in (FALSE, TRUE):
        return edge
    cuts = enumerate_cuts(aig, [edge], k=k, max_cuts_per_node=max_cuts_per_node)
    rebuilt: dict[int, int] = {}  # old node -> new edge
    synth_cache: dict[tuple[int, tuple[int, ...]], int] = {}
    for node in aig.cone([edge]):
        if aig.is_input(node):
            rebuilt[node] = 2 * node
            continue
        f0, f1 = aig.fanins(node)
        default = aig.and_(
            rebuilt[f0 >> 1] ^ (f0 & 1),
            rebuilt[f1 >> 1] ^ (f1 & 1),
        )
        best_edge = default
        best_size = aig.cone_and_count(default)
        for cut in cuts.get(node, ()):
            if node in cut or not cut:
                continue
            if any(leaf not in rebuilt for leaf in cut):
                continue
            mask, leaf_order = cut_truth_table(aig, node, cut)
            leaf_edges = [rebuilt[leaf] for leaf in leaf_order]
            candidate = synthesize_from_truth_table(
                aig, mask, leaf_edges, synth_cache
            )
            size = aig.cone_and_count(candidate)
            if size < best_size:
                best_size = size
                best_edge = candidate
        rebuilt[node] = best_edge
    rewritten = rebuilt[edge >> 1] ^ (edge & 1)
    if aig.cone_and_count(rewritten) > aig.cone_and_count(edge):
        return edge
    return rewritten
