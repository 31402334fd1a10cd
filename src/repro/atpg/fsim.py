"""Bit-parallel single stuck-at fault simulation.

One packed Python integer carries ``words * 64`` test patterns per node,
so each fault costs one bit-parallel resimulation of its output cone.
Detected faults are dropped from the active list (classic fault dropping),
which makes coverage sweeps over random patterns cheap enough for the
benchmark harness.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.aig.graph import Aig
from repro.aig.simulate import simulate
from repro.atpg.faults import Fault, full_fault_list, collapse_faults
from repro.atpg.inject import inject_fault
from repro.util.stats import StatsBag


class FaultSimulator:
    """Fault simulation session over fixed target roots.

    >>> from repro.aig.graph import Aig
    >>> aig = Aig()
    >>> a, b = aig.add_inputs(2)
    >>> f = aig.and_(a, b)
    >>> sim = FaultSimulator(aig, [f])
    >>> len(sim.remaining)        # collapsed faults of a single AND cone
    7
    """

    def __init__(
        self,
        aig: Aig,
        roots: Sequence[int],
        faults: Sequence[Fault] | None = None,
        collapse: bool = True,
    ) -> None:
        self.aig = aig
        self.roots = list(roots)
        if faults is None:
            faults = full_fault_list(aig, self.roots)
            if collapse:
                faults = collapse_faults(aig, faults)
        self.remaining: list[Fault] = list(faults)
        self.detected: dict[Fault, dict[int, bool]] = {}
        self.stats = StatsBag()
        # Faulty root edges are cached per fault: injection only rebuilds
        # the fault's output cone thanks to structural hashing.
        self._faulty_roots: dict[Fault, list[int]] = {}

    def _roots_for(self, fault: Fault) -> list[int]:
        cached = self._faulty_roots.get(fault)
        if cached is None:
            cached = inject_fault(self.aig, self.roots, fault)
            self._faulty_roots[fault] = cached
        return cached

    def simulate_patterns(
        self, input_words: Mapping[int, int], words: int
    ) -> list[Fault]:
        """Run all remaining faults against ``words * 64`` packed patterns.

        ``input_words`` maps input nodes to packed pattern values (as
        produced by :func:`repro.aig.simulate.random_input_words`).  Newly
        detected faults are dropped and returned; the first detecting
        pattern is recorded per fault in :attr:`detected`.
        """
        good = simulate(self.aig, input_words, self.roots, words)
        newly_detected: list[Fault] = []
        still_remaining: list[Fault] = []
        for fault in self.remaining:
            faulty_roots = self._roots_for(fault)
            faulty = simulate(self.aig, input_words, faulty_roots, words)
            difference = 0
            for root, froot in zip(self.roots, faulty_roots):
                difference |= good[root] ^ faulty[froot]
            self.stats.incr("fault_simulations")
            if difference:
                bit = (difference & -difference).bit_length() - 1
                self.detected[fault] = {
                    node: bool(value >> bit & 1)
                    for node, value in input_words.items()
                }
                newly_detected.append(fault)
                self.stats.incr("faults_detected")
            else:
                still_remaining.append(fault)
        self.remaining = still_remaining
        return newly_detected

    def run_random(
        self, words: int = 4, rounds: int = 4, seed: int = 2005
    ) -> float:
        """Random-pattern campaign; returns the final fault coverage."""
        rng = random.Random(seed)
        input_nodes = [
            node for node in self.aig.cone(self.roots)
            if self.aig.is_input(node)
        ]
        for _ in range(rounds):
            if not self.remaining:
                break
            patterns = {
                node: rng.getrandbits(64 * words) for node in input_nodes
            }
            self.simulate_patterns(patterns, words)
        return self.coverage

    @property
    def coverage(self) -> float:
        """Fraction of the original fault list detected so far."""
        total = len(self.detected) + len(self.remaining)
        if total == 0:
            return 1.0
        return len(self.detected) / total


def fault_coverage(
    aig: Aig,
    roots: Sequence[int],
    words: int = 4,
    rounds: int = 4,
    seed: int = 2005,
    collapse: bool = True,
) -> tuple[float, FaultSimulator]:
    """Convenience wrapper: random-pattern coverage of the cones of roots."""
    simulator = FaultSimulator(aig, roots, collapse=collapse)
    coverage = simulator.run_random(words=words, rounds=rounds, seed=seed)
    return coverage, simulator
