"""Random-simulation signatures for candidate-equivalence detection.

Two nodes can only be functionally equivalent (or antivalent) if their
simulation values agree (or are complements) on every pattern.  The table
maintains per-node signatures, groups nodes into candidate classes by
phase-normalized signature, and accepts counterexample patterns from failed
SAT checks to split classes — the feedback loop the paper describes.

The table is incremental.  The :class:`~repro.aig.graph.Aig` manager is
append-only, so a node's function never changes and its signature is
computed once, when the node is first seen: through the roots given to the
constructor or :meth:`SignatureTable.refresh_roots`, the cones handed to
:meth:`SignatureTable.patterns`, or a :meth:`SignatureTable.node_signature`
look-up.  Learning a node walks down only to nodes the table already knows
and simulates just the new ones; a new input gets its random words at that
moment, drawn in :meth:`Aig.cone` order.  A flush simulates only the new
word column over the known nodes and shifts it in.  Every signature the
table returns therefore equals a from-scratch :func:`simulate_nodes` run
over the table's input words and width, and no signature changes while the
table is frozen.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from repro.aig.graph import Aig
from repro.aig.simulate import ConePlan, _eval_plan, _run_ops, word_mask

# ``simulate_nodes`` is the from-scratch reference the table agrees with;
# perfbench/tracing.py wraps it under this module's name.
from repro.aig.simulate import simulate_nodes  # noqa: F401

_WORD_BITS = 64


class SignatureTable:
    """Per-node simulation signatures over a growing pattern set.

    A signature is one packed integer over ``words * 64`` patterns (bit
    ``i`` is the value under pattern ``i``).  New counterexample patterns
    are buffered and appended in batches of 64 (one extra word), so the
    known nodes are simulated once per batch rather than once per pattern.

    Known nodes sit at the positions of one
    :class:`~repro.aig.simulate.ConePlan`, extended in place as nodes are
    learned; ``_sigs`` holds their signatures by position.
    """

    def __init__(
        self,
        aig: Aig,
        roots: Sequence[int],
        words: int = 4,
        seed: int = 2005,
    ) -> None:
        self.aig = aig
        self.words = words
        self._rng = random.Random(seed)
        self._pending: list[Mapping[int, bool]] = []
        self._frozen = False
        self._plan = ConePlan(aig, ())
        self._sigs: list[int] = [0]
        self._learn(roots)

    # ------------------------------------------------------------------ #
    # Simulation management
    # ------------------------------------------------------------------ #

    def _learn(self, edges: Sequence[int]) -> None:
        """Simulate the nodes of the cones of ``edges`` not seen yet.

        New inputs draw their random words here, in cone order; new AND
        nodes are evaluated from their fanins at the current width.
        """
        plan, sigs = self._plan, self._sigs
        first_input, first_op = len(plan.inputs), len(plan.ops)
        plan.extend(self.aig, self.aig.cone(edges, plan.pos))
        sigs.extend([0] * (plan.size - len(sigs)))
        for index, _ in plan.inputs[first_input:]:
            sigs[index] = self._rng.getrandbits(_WORD_BITS * self.words)
        _run_ops(plan.ops[first_op:], sigs, word_mask(self.words))

    def _input_words(self) -> dict[int, int]:
        sigs = self._sigs
        return {node: sigs[index] for index, node in self._plan.inputs}

    def _pending_column(self) -> tuple[dict[int, int], int]:
        """The queued patterns as input words, and their width in words."""
        column = {node: 0 for _, node in self._plan.inputs}
        for bit, pattern in enumerate(self._pending):
            for node, value in pattern.items():
                if value and node in column:
                    column[node] |= 1 << bit
        return column, (len(self._pending) + _WORD_BITS - 1) // _WORD_BITS

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

    def flush(self) -> None:
        """Fold queued patterns in: simulate their column, shift it in."""
        if not self._pending:
            return
        column, extra = self._pending_column()
        values = _eval_plan(self._plan, column, word_mask(extra))
        shift = _WORD_BITS * self.words
        self._sigs = [
            sig | value << shift for sig, value in zip(self._sigs, values)
        ]
        self.words += extra
        self._pending.clear()

    def refresh_roots(self, roots: Sequence[int]) -> None:
        """Extend the table to cover additional root cones."""
        self._learn(list(dict.fromkeys(roots)))

    def patterns(self, roots: Sequence[int]) -> tuple[dict[int, int], int]:
        """The table's input patterns for simulating the cone of ``roots``.

        Returns ``(input_words, words)``: the random words plus every
        learned counterexample, queued ones included.  The cone of
        ``roots`` is learned first, so its inputs have their words.
        """
        self._learn(roots)
        input_words = self._input_words()
        if not self._pending:
            return input_words, self.words
        column, extra = self._pending_column()
        shift = _WORD_BITS * self.words
        extended = {
            node: value | column[node] << shift
            for node, value in input_words.items()
        }
        return extended, self.words + extra

    # ------------------------------------------------------------------ #
    # Signatures
    # ------------------------------------------------------------------ #

    def node_signature(self, node: int) -> int:
        """Packed simulation value of a node (pending patterns excluded)."""
        index = self._plan.pos.get(node)
        if index is None:
            self._learn([2 * node])
            index = self._plan.pos[node]
        return self._sigs[index]

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
