"""IC3 / property-directed reachability (Bradley, VMCAI 2011).

Where interpolation (:mod:`repro.itp`) refutes one monolithic unrolling
per iteration, PDR never unrolls: it maintains a trace of frames
``F_0 = I ⊆ F_1 ⊆ … ⊆ F_N`` over-approximating bounded reachability and
works exclusively with single-step queries against per-frame incremental
solvers.  One major iteration:

* **strengthen** — while ``F_N ∧ C ∧ ¬P`` is satisfiable, the bad state
  read off the model is ternary-expanded into a cube and handed to the
  proof-obligation queue.  An obligation ``(s, k)`` asks whether some
  ``F_{k-1}`` state steps into ``s``: if yes, the predecessor becomes an
  obligation at ``k-1`` (reaching ``k-1 = 0`` means the chain starts at
  the initial state — a concrete, replay-valid counterexample); if no,
  the unsat core generalizes ``s`` to a short clause pushed as far
  forward as it stays inductive;
* **propagate** — every clause at level ``k`` that also holds one step
  after ``F_k`` moves to ``k+1``; if some delta set empties,
  ``F_k = F_{k+1}`` is an inductive invariant and the property is
  PROVED.

Every PROVED verdict ships an explicit
:class:`repro.mc.result.InvariantCertificate` and (by default) has it
re-checked by :func:`repro.pdr.certify.check_certificate` on a fresh,
independent solver before the result is returned.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.aig.cnf import CnfMapper
from repro.aig.graph import FALSE, edge_not
from repro.circuits.netlist import Netlist
from repro.errors import ResourceLimit
from repro.mc.result import (
    InvariantCertificate,
    Status,
    Trace,
    VerificationResult,
)
from repro.mc.trace import find_violation_inputs
from repro.obs import probes as _obs
from repro.pdr.certify import check_certificate
from repro.pdr.frames import FrameTrace, cube_excludes_init, state_to_cube
from repro.pdr.generalize import (
    expand_cube,
    generalize_cube,
    shrink_with_core,
)
from repro.pdr.options import PdrOptions
from repro.pdr.solver_pool import SolverPool
from repro.sat.solver import SolveResult, Solver
from repro.util.stats import StatsBag


@dataclass
class _Obligation:
    """A cube that must be shown unreachable within ``level`` steps.

    ``inputs`` are the concrete input values driving this cube into its
    ``successor`` (for the final, bad-cube obligation they are the
    violating inputs themselves); the chain of successors reconstructs
    the counterexample when an obligation's cube captures the initial
    state.
    """

    cube: frozenset[int]
    level: int
    inputs: dict[int, bool] = field(default_factory=dict)
    successor: "_Obligation | None" = None


class _Pdr:
    """One PDR run over one netlist."""

    def __init__(self, netlist: Netlist, options: PdrOptions) -> None:
        self.netlist = netlist
        self.options = options
        self.stats = StatsBag()
        self.init = netlist.init_assignment()
        self.next_functions = netlist.next_functions()
        self.frames = FrameTrace()
        self.pool = SolverPool(netlist, self.frames, self.stats)
        self._tick = 0          # heap tie-breaker (insertion order)
        self._obligations = 0   # processed, against max_obligations

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def run(self) -> VerificationResult:
        failed0 = self._check_initial_states()
        if failed0 is not None:
            return failed0
        if self.pool.bad_edge == FALSE or not self.netlist.num_latches:
            # No latch state to traverse, or no reachable bad valuation
            # at all: the empty (TRUE) invariant certifies the property,
            # via the same safety query as any other certificate.
            return self._proved(level=0)
        try:
            return self._major_loop()
        except ResourceLimit:
            self.stats.set("pdr_obligation_limit", 1.0)
            return self._result(Status.UNKNOWN)

    def _major_loop(self) -> VerificationResult:
        options = self.options
        while True:
            level = self.frames.num_frames
            while (hit := self.pool.intersects_bad(level)) is not None:
                state, inputs = hit
                cube = self._expand(
                    state,
                    inputs,
                    [(self.netlist.property_edge, False)],
                )
                with _obs.span("pdr.block_cube", "frames", frame=level):
                    trace = self._block(
                        _Obligation(cube, level, inputs=inputs)
                    )
                if trace is not None:
                    return self._result(Status.FAILED, trace=trace)
            if level >= options.max_frames:
                return self._result(Status.UNKNOWN)
            self.frames.extend()
            with _obs.span("pdr.propagate", "frames",
                           frame=self.frames.num_frames):
                fixpoint = self._propagate()
            if fixpoint is not None:
                return self._proved(level=fixpoint)

    # ------------------------------------------------------------------ #
    # Depth 0
    # ------------------------------------------------------------------ #

    def _check_initial_states(self) -> VerificationResult | None:
        """Does the initial state already violate the property?"""
        netlist = self.netlist
        aig = netlist.aig
        bad0 = aig.and_(
            netlist.init_state_edge(),
            aig.and_(netlist.constraint_edge(),
                     edge_not(netlist.property_edge)),
        )
        if bad0 == FALSE:
            return None
        mapper = CnfMapper(aig, Solver())
        self.stats.incr("sat_calls")
        if mapper.solver.solve([mapper.lit_for(bad0)]) is not SolveResult.SAT:
            return None
        state = netlist.init_assignment()
        trace = Trace(
            states=[state], inputs=[],
            violation_inputs=find_violation_inputs(netlist, state),
        )
        return self._result(Status.FAILED, trace=trace)

    # ------------------------------------------------------------------ #
    # Blocking (the proof-obligation queue)
    # ------------------------------------------------------------------ #

    def _block(self, bad: _Obligation) -> Trace | None:
        """Discharge one bad cube; a trace means a real counterexample."""
        queue: list[tuple[int, int, _Obligation]] = []
        self._push_obligation(queue, bad)
        while queue:
            _, _, obligation = heapq.heappop(queue)
            self._obligations += 1
            if _obs.ENABLED:
                _obs.tick("pdr", (len(queue), self.frames), self.stats)
            if self._obligations > self.options.max_obligations:
                raise ResourceLimit(
                    f"PDR exceeded {self.options.max_obligations} "
                    f"proof obligations"
                )
            covered = self.frames.blocking_level(
                obligation.cube, obligation.level
            )
            if covered is not None:
                # Already excluded up to `covered`; keep the frontier
                # clean above it if there is an above.
                self._reschedule(queue, obligation, covered + 1)
                continue
            verdict, payload, inputs = self.pool.relative_query(
                obligation.level, obligation.cube
            )
            if verdict == "sat":
                predecessor = self._predecessor(
                    payload, inputs, obligation
                )
                if not cube_excludes_init(predecessor.cube, self.init):
                    return self._trace_from_chain(predecessor)
                self._push_obligation(queue, predecessor)
                self._push_obligation(queue, obligation)
                continue
            cube = shrink_with_core(obligation.cube, payload, self.init)
            if self.options.generalize:
                cube = generalize_cube(
                    self.pool, obligation.level, cube, self.init,
                    self.stats,
                )
            level = self._push_forward(cube, obligation.level)
            self._add_lemma(cube, level)
            self._reschedule(queue, obligation, level + 1)
        return None

    def _push_obligation(
        self, queue: list, obligation: _Obligation
    ) -> None:
        self._tick += 1
        heapq.heappush(queue, (obligation.level, self._tick, obligation))

    def _reschedule(
        self, queue: list, obligation: _Obligation, level: int
    ) -> None:
        """Chase a blocked obligation at the next frame (if one exists)."""
        if level <= self.frames.num_frames:
            obligation.level = level
            self._push_obligation(queue, obligation)

    def _predecessor(
        self,
        state: dict[int, bool],
        inputs: dict[int, bool],
        obligation: _Obligation,
    ) -> _Obligation:
        """Turn a consecution model into the next (expanded) obligation."""
        targets = [
            (self.next_functions[abs(lit)], lit > 0)
            for lit in sorted(obligation.cube, key=abs)
        ]
        cube = self._expand(state, inputs, targets)
        self.stats.incr("pdr_ctis")
        return _Obligation(
            cube, obligation.level - 1, inputs=inputs,
            successor=obligation,
        )

    def _expand(
        self,
        state: dict[int, bool],
        inputs: dict[int, bool],
        targets: list[tuple[int, bool]],
    ) -> frozenset[int]:
        """Ternary-expand a model state, always preserving constraints.

        Constraints join the targets so that *every* completion of the
        cube admits the fixed inputs — the property that keeps obligation
        chains replayable and lemmas sound over constrained transitions.
        """
        if not self.options.ternary:
            return state_to_cube(state)
        targets = list(targets) + [
            (edge, True) for edge in self.netlist.constraints
        ]
        return expand_cube(
            self.netlist, state, inputs, targets, self.stats
        )

    def _push_forward(self, cube: frozenset[int], level: int) -> int:
        """Advance a freshly blocked cube while it stays inductive."""
        while level < self.frames.num_frames and \
                self.pool.push_query(level, cube):
            level += 1
        return level

    def _add_lemma(self, cube: frozenset[int], level: int) -> None:
        lemma, retired = self.frames.add(cube, level)
        for old in retired:
            self.pool.detach(old)
        if lemma is not None:
            self.pool.attach(lemma)
        self.stats.max("pdr_lemmas", float(self.frames.added))

    # ------------------------------------------------------------------ #
    # Propagation and fix-point
    # ------------------------------------------------------------------ #

    def _propagate(self) -> int | None:
        """Push clauses forward; the first empty delta set is a fix-point."""
        for level in range(1, self.frames.num_frames):
            for lemma in self.frames.at_level(level):
                if lemma.retired:
                    continue
                if self.pool.push_query(level, lemma.cube):
                    for old in self.frames.promote(lemma):
                        self.pool.detach(old)
                    self.pool.attach_promoted(lemma)
                    self.stats.incr("pdr_pushed")
            if not self.frames.at_level(level):
                return level
        return None

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def _proved(self, level: int) -> VerificationResult:
        certificate = InvariantCertificate(
            clauses=self.frames.invariant_clauses(level), level=level
        )
        if self.options.certify:
            check_certificate(self.netlist, certificate)
            self.stats.incr("certificates_checked")
        self.stats.set(
            "invariant_clauses", float(certificate.num_clauses)
        )
        return self._result(Status.PROVED, certificate=certificate)

    def _trace_from_chain(self, obligation: _Obligation) -> Trace:
        """Replay an obligation chain that reached the initial state.

        Every cube on the chain was ternary-expanded with its step's
        inputs fixed, so simulating those inputs from the concrete
        initial state walks exactly through the cubes down to the
        violation.
        """
        state = dict(self.init)
        states = [dict(state)]
        inputs: list[dict[int, bool]] = []
        current = obligation
        while current.successor is not None:
            inputs.append(dict(current.inputs))
            state = self.netlist.simulate_step(state, current.inputs)
            states.append(dict(state))
            current = current.successor
        self.stats.set("cex_depth", float(len(inputs)))
        return Trace(
            states=states,
            inputs=inputs,
            violation_inputs=dict(current.inputs),
        )

    def _result(
        self,
        status: Status,
        trace: Trace | None = None,
        certificate: InvariantCertificate | None = None,
    ) -> VerificationResult:
        self.stats.set("pdr_frames", float(self.frames.num_frames))
        self.stats.set("pdr_obligations", float(self._obligations))
        self.stats.set(
            "pdr_lemmas_active", float(self.frames.lemma_count())
        )
        self.stats.set(
            "pdr_lemmas_subsumed", float(self.frames.subsumed)
        )
        return VerificationResult(
            status=status,
            engine="pdr",
            trace=trace,
            iterations=self.frames.num_frames,
            stats=self.stats,
            certificate=certificate,
        )


def pdr_reachability(
    netlist: Netlist, options: PdrOptions | None = None
) -> VerificationResult:
    """Prove or refute an invariant with IC3/PDR."""
    if options is None:
        options = PdrOptions()
    netlist.validate()
    return _Pdr(netlist, options).run()
