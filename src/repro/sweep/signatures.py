"""Random-simulation signatures for candidate-equivalence detection.

Two nodes can only be functionally equivalent (or antivalent) if their
simulation values agree (or are complements) on every pattern.  The table
maintains per-node signatures, groups nodes into candidate classes by
phase-normalized signature, and accepts counterexample patterns from failed
SAT checks to split classes — the feedback loop the paper describes.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from repro.aig.graph import Aig
from repro.aig.simulate import simulate_nodes, word_mask

_WORD_BITS = 64


class SignatureTable:
    """Per-node simulation signatures over a growing pattern set.

    A signature is one packed integer over ``words * 64`` patterns (bit
    ``i`` is the value under pattern ``i``).  New counterexample patterns
    are buffered and appended in batches of 64 (one extra word), so the
    cones are re-simulated once per batch rather than once per pattern.
    """

    def __init__(
        self,
        aig: Aig,
        roots: Sequence[int],
        words: int = 4,
        seed: int = 2005,
    ) -> None:
        self.aig = aig
        self.roots = list(roots)
        self.words = words
        self._rng = random.Random(seed)
        self._input_words: dict[int, int] = {}
        self._add_inputs(self.roots)
        self._pending: list[Mapping[int, bool]] = []
        self._node_sigs: dict[int, int] = {}
        self._frozen = False
        self._resimulate()

    # ------------------------------------------------------------------ #
    # Simulation management
    # ------------------------------------------------------------------ #

    def _add_inputs(self, roots: Sequence[int]) -> None:
        """Draw random words for the inputs of ``roots`` not yet seen."""
        for node in self.aig.cone(roots):
            if self.aig.is_input(node) and node not in self._input_words:
                self._input_words[node] = self._rng.getrandbits(
                    _WORD_BITS * self.words
                )

    def _resimulate(self) -> None:
        self._node_sigs = simulate_nodes(
            self.aig, self._input_words, self.roots, self.words
        )

    def add_pattern(self, assignment: Mapping[int, bool]) -> None:
        """Queue a counterexample pattern (input node -> value).

        Patterns are folded in lazily; while a sweep is in flight the table
        is frozen (see :meth:`freeze`) so that signature keys stay mutually
        comparable within that sweep.
        """
        self._pending.append(dict(assignment))
        if not self._frozen and len(self._pending) >= _WORD_BITS:
            self.flush()

    def freeze(self) -> None:
        """Suspend automatic flushing (keys stay stable until :meth:`thaw`)."""
        self._frozen = True

    def thaw(self) -> None:
        """Re-enable flushing and fold any queued patterns."""
        self._frozen = False
        self.flush()

    def _with_pending(self) -> tuple[dict[int, int], int]:
        """Input words with the queued patterns appended, and their width."""
        if not self._pending:
            return self._input_words, self.words
        column = dict.fromkeys(self._input_words, 0)
        for bit, pattern in enumerate(self._pending):
            for node, value in pattern.items():
                if value and node in column:
                    column[node] |= 1 << bit
        shift = _WORD_BITS * self.words
        extended = {
            node: value | column[node] << shift
            for node, value in self._input_words.items()
        }
        extra = (len(self._pending) + _WORD_BITS - 1) // _WORD_BITS
        return extended, self.words + extra

    def flush(self) -> None:
        """Fold queued patterns into the input words and resimulate."""
        if not self._pending:
            return
        self._input_words, self.words = self._with_pending()
        self._pending.clear()
        self._resimulate()

    def refresh_roots(self, roots: Sequence[int]) -> None:
        """Extend the table to cover additional root cones."""
        self.roots = list(dict.fromkeys(list(self.roots) + list(roots)))
        self._add_inputs(self.roots)
        self._resimulate()

    def patterns(self, roots: Sequence[int]) -> tuple[dict[int, int], int]:
        """The table's input patterns for simulating the cone of ``roots``.

        Returns ``(input_words, words)``: the random words plus every
        learned counterexample, queued ones included.  Inputs the table has
        not seen yet get their random words now; nothing is re-simulated.
        """
        self._add_inputs(roots)
        return self._with_pending()

    # ------------------------------------------------------------------ #
    # Signatures
    # ------------------------------------------------------------------ #

    def node_signature(self, node: int) -> int:
        """Packed simulation value of a node (pending patterns excluded)."""
        sig = self._node_sigs.get(node)
        if sig is None:
            # Node created after the last resimulation: simulate its cone.
            self._node_sigs.update(
                simulate_nodes(
                    self.aig, self._input_words, [2 * node], self.words
                )
            )
            sig = self._node_sigs[node]
        return sig

    def edge_signature(self, edge: int) -> int:
        sig = self.node_signature(edge >> 1)
        return sig ^ word_mask(self.words) if edge & 1 else sig

    def signature_key(self, node: int) -> tuple[bool, int]:
        """Phase-normalized hashable signature.

        Returns ``(phase, key)`` where nodes with equal keys are candidates:
        equal phase suggests equivalence, opposite phase antivalence.
        """
        sig = self.node_signature(node)
        phase = bool(sig & 1)
        return phase, sig ^ word_mask(self.words) if phase else sig

    def edges_may_be_equal(self, a: int, b: int) -> bool:
        """Necessary condition for edge equivalence (signature equality)."""
        return self.edge_signature(a) == self.edge_signature(b)

    def classes(self, nodes: Iterable[int]) -> dict[int, list[tuple[int, bool]]]:
        """Group nodes into candidate classes.

        Returns key -> list of (node, phase).  Nodes in one class with equal
        phases are equivalence candidates; opposite phases, antivalence.
        """
        table: dict[int, list[tuple[int, bool]]] = {}
        for node in nodes:
            phase, key = self.signature_key(node)
            table.setdefault(key, []).append((node, phase))
        return table

    def is_candidate_constant(self, node: int) -> bool | None:
        """If the node's signature is all-0 or all-1, the suggested constant."""
        sig = self.node_signature(node)
        if sig == 0:
            return False
        if sig == word_mask(self.words):
            return True
        return None
