"""Don't-care machinery for the optimization phase (Section 2.2).

When representing ``f0 OR f1`` we never need ``f1`` to be right where
``f0`` is already 1: the *onset of f0 is an input don't-care set for f1*
(and symmetrically).  A node ``n`` in f1's cone may be replaced by ``n'``
whenever the input-DC rule ``NOT f0  ->  (n' == n)`` holds, checked as
``UNSAT( NOT f0  AND  (n XOR n') )``: the paper's "the transformed node
is required to match the original one outside the don't care set".

Candidate ``n'`` are constants (redundancy removal) and existing nodes
modulo complementation (merge), pre-filtered by care-set simulation so the
SAT engine only sees plausible pairs.  The simulation patterns are the
shared sweeper's :class:`~repro.sweep.signatures.SignatureTable` patterns:
random words plus every counterexample a failed check has produced, the
DC checks' own included, so a candidate refuted once is not proposed
again.
"""

from __future__ import annotations

from repro.aig.graph import FALSE, TRUE, Aig
from repro.aig.ops import xor
from repro.aig.simulate import simulate_nodes, word_mask
from repro.sweep.satsweep import SatSweeper
from repro.sweep.signatures import SignatureTable
from repro.util.stats import StatsBag


# Merge candidates proposed per node.
MAX_MERGE_CANDIDATES = 4


class DontCareOracle:
    """SAT-backed validity checks for node transformations under DCs.

    All probes run through the shared :class:`SatSweeper` solver, so one
    clause database serves the optimization phase until it outgrows the
    cones being optimized (see :meth:`SatSweeper.fit_solver`).
    """

    def __init__(self, aig: Aig, sweeper: SatSweeper) -> None:
        self.aig = aig
        self.sweeper = sweeper
        self.stats = StatsBag()

    def valid_under_input_dc(
        self, care_edge: int, original: int, replacement: int
    ) -> bool | None:
        """Input-DC rule: does ``original == replacement`` hold within care?

        ``care_edge`` is the care set (``NOT f0`` when f0's onset is the DC
        set).  True means the replacement is safe.
        """
        difference = self.aig.and_(
            care_edge, xor(self.aig, original, replacement)
        )
        if difference == FALSE:
            self.stats.incr("input_dc_trivial")
            return True
        self.stats.incr("input_dc_checks")
        verdict = self.sweeper.check_constant(difference, False)
        return verdict


def care_set_candidates(
    aig: Aig,
    f0: int,
    f1: int,
    signatures: SignatureTable,
) -> dict[int, list[int]]:
    """Simulation-based candidate transformations for nodes of f1's cone.

    The cones of ``f0`` and ``f1`` are simulated on the table's patterns
    (see :meth:`SignatureTable.patterns`).  Patterns where ``f0`` is 1 are
    don't-cares, so signatures are compared only on care patterns
    (``f0 == 0``).  Returns node -> candidate replacement edges, most
    promising first: constants, then up to ``MAX_MERGE_CANDIDATES``
    merges with other nodes (modulo complement).  Purely heuristic —
    every candidate still goes through the :class:`DontCareOracle`.
    """
    input_words, words = signatures.patterns([f0, f1])
    values = simulate_nodes(aig, input_words, [f0, f1], words)
    mask = word_mask(words)
    care = values[f0 >> 1] ^ (0 if f0 & 1 else mask)  # patterns with f0 == 0
    f1_cone = [n for n in aig.cone([f1]) if aig.is_and(n)]
    # Index care-masked signatures of *all* cone nodes (f0's included —
    # merging into f0's cone is where the sharing payoff is) so merge
    # candidates can be found in both polarities.
    by_masked: dict[int, list[tuple[int, bool]]] = {}
    for node in aig.cone([f0, f1]):
        value = values[node]
        by_masked.setdefault(value & care, []).append((node, False))
        by_masked.setdefault(~value & care, []).append((node, True))
    candidates: dict[int, list[int]] = {}
    for node in f1_cone:
        entries: list[int] = []
        masked = values[node] & care
        if not masked:
            entries.append(FALSE)
        if masked == care:
            entries.append(TRUE)
        added = 0
        for other, complemented in by_masked.get(masked, ()):
            if other == node or other == 0:
                continue
            entries.append((2 * other) ^ int(complemented))
            added += 1
            if added >= MAX_MERGE_CANDIDATES:
                break
        if entries:
            candidates[node] = entries
    return candidates
