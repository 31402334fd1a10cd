"""Verification outcomes shared by every engine.

Besides the in-memory types, this module owns their wire format:
:meth:`Trace.to_dict` / :meth:`VerificationResult.to_dict` produce
JSON-serializable payloads that round-trip through
:meth:`Trace.from_dict` / :meth:`VerificationResult.from_dict`.  There
is one encoding, positional: both directions take the netlist, and
assignments are bit-strings over its latch and input registration
order.  That is stable across AIG node renumbering, which is what the
portfolio's structural-hash result cache needs: a record written by one
manager must decode into a valid trace for a differently-numbered
manager of the same circuit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.circuits.netlist import Netlist
from repro.util.stats import StatsBag

_MISSING = "x"


def _encode_bits(
    assignment: Mapping[int, bool] | None, nodes: list[int]
) -> str | None:
    if assignment is None:
        return None
    return "".join(
        _MISSING if node not in assignment else str(int(assignment[node]))
        for node in nodes
    )


def _decode_bits(bits: str | None, nodes: list[int]) -> dict[int, bool] | None:
    if bits is None:
        return None
    if len(bits) != len(nodes):
        raise ValueError("bit-string length does not match netlist")
    return {
        node: bit == "1"
        for node, bit in zip(nodes, bits)
        if bit != _MISSING
    }


class Status(enum.Enum):
    """Verdict of a verification run."""

    PROVED = "proved"          # the invariant holds in all reachable states
    FAILED = "failed"          # a counterexample trace exists
    UNKNOWN = "unknown"        # resource limit / incomplete method

    @property
    def is_conclusive(self) -> bool:
        """True for PROVED and FAILED, False for UNKNOWN."""
        return self is not Status.UNKNOWN

    def __bool__(self) -> bool:
        # ``if result.status:`` used to be truthy only for PROVED, which
        # silently conflated FAILED with UNKNOWN.  The ambiguity is now a
        # loud error instead of a wrong branch.
        raise TypeError(
            "Status truthiness is ambiguous; use status.is_conclusive, "
            "or the result's .proved / .failed properties"
        )


@dataclass
class Trace:
    """A concrete counterexample: states and the inputs between them.

    ``states[0]`` is the initial state; ``states[-1]`` violates the
    property.  ``inputs[k]`` drives the transition from ``states[k]`` to
    ``states[k+1]`` (so ``len(inputs) == len(states) - 1``).  When the
    property reads primary inputs (e.g. an arbiter judged on its request
    lines), ``violation_inputs`` carries the input vector that exhibits
    the violation in the final state.
    """

    states: list[dict[int, bool]]
    inputs: list[dict[int, bool]]
    violation_inputs: dict[int, bool] | None = None

    @property
    def depth(self) -> int:
        return len(self.states) - 1

    def validate(self, netlist: Netlist) -> bool:
        """Replay the trace on the netlist; True iff it is a real violation.

        Besides exact state replay, every step (including the violating
        one) must satisfy the netlist's environment constraints — a trace
        using forbidden inputs is not a counterexample.
        """
        if len(self.inputs) != len(self.states) - 1:
            return False
        init = netlist.init_assignment()
        if any(self.states[0].get(n) != v for n, v in init.items()):
            return False
        current = dict(self.states[0])
        for step_inputs, claimed in zip(self.inputs, self.states[1:]):
            if not netlist.constraints_hold(current, step_inputs):
                return False
            current = netlist.simulate_step(current, step_inputs)
            if any(current.get(n) != claimed.get(n) for n in current):
                return False
        if self.violation_inputs is not None and not netlist.constraints_hold(
            self.states[-1], self.violation_inputs
        ):
            return False
        return not netlist.property_holds(
            self.states[-1], self.violation_inputs
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self, netlist: Netlist) -> dict:
        """JSON-serializable form, positional over ``netlist``."""
        latches = netlist.latch_nodes
        inputs = netlist.input_nodes
        return {
            "format": "positional",
            "states": [_encode_bits(state, latches) for state in self.states],
            "inputs": [_encode_bits(step, inputs) for step in self.inputs],
            "violation_inputs": _encode_bits(self.violation_inputs, inputs),
        }

    @classmethod
    def from_dict(cls, payload: dict, netlist: Netlist) -> "Trace":
        """Rebuild a trace serialized by :meth:`to_dict` over ``netlist``.

        Records written before the ``"format"`` key existed are
        positional too.
        """
        fmt = payload.get("format", "positional")
        if fmt != "positional":
            raise ValueError(f"unknown trace payload format {fmt!r}")
        latches = netlist.latch_nodes
        inputs = netlist.input_nodes
        return cls(
            states=[_decode_bits(bits, latches) for bits in payload["states"]],
            inputs=[_decode_bits(bits, inputs) for bits in payload["inputs"]],
            violation_inputs=_decode_bits(
                payload.get("violation_inputs"), inputs
            ),
        )


@dataclass
class InvariantCertificate:
    """An inductive strengthening proving a PROVED verdict.

    ``clauses`` is a CNF over the latch variables: each literal is a
    signed latch node id (``+node`` = latch true, ``-node`` = latch
    false).  The conjunction ``Inv`` of the clauses is the certificate's
    claim, checkable by anyone with three SAT queries:

    * initiation — ``I ∧ ¬Inv`` is UNSAT (the initial state satisfies
      every clause);
    * consecution — ``Inv ∧ C ∧ T ∧ ¬Inv'`` is UNSAT (one constrained
      step stays inside Inv);
    * safety — ``Inv ∧ C ∧ ¬P`` is UNSAT (Inv excludes every bad state).

    :func:`repro.pdr.check_certificate` runs exactly those queries on a
    fresh solver; the ``pdr`` engine does so before returning any PROVED
    result.  An empty clause list is the trivial
    certificate ``Inv = TRUE`` (the property can never be violated by any
    state at all).
    """

    clauses: list[tuple[int, ...]]
    level: int = 0                 # the frame the fix-point closed at

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def to_dict(self, netlist: Netlist) -> dict:
        """JSON-serializable form, positional over ``netlist``.

        Literals are signed 1-based latch *positions* in the netlist's
        registration order — stable across AIG renumbering, matching the
        trace encoding the result cache relies on.
        """
        position = {
            node: k + 1 for k, node in enumerate(netlist.latch_nodes)
        }
        return {
            "format": "positional",
            "level": self.level,
            "clauses": [
                [
                    position[abs(lit)] if lit > 0 else -position[abs(lit)]
                    for lit in clause
                ]
                for clause in self.clauses
            ],
        }

    @classmethod
    def from_dict(
        cls, payload: dict, netlist: Netlist
    ) -> "InvariantCertificate":
        fmt = payload.get("format", "positional")
        if fmt != "positional":
            raise ValueError(f"unknown certificate payload format {fmt!r}")
        latches = netlist.latch_nodes
        decoded = [
            tuple(
                latches[abs(lit) - 1] if lit > 0 else -latches[abs(lit) - 1]
                for lit in clause
            )
            for clause in payload["clauses"]
        ]
        return cls(clauses=decoded, level=int(payload.get("level", 0)))


@dataclass
class VerificationResult:
    """What an engine reports back."""

    status: Status
    engine: str
    trace: Trace | None = None
    iterations: int = 0            # traversal steps / BMC depth / k
    stats: StatsBag = field(default_factory=StatsBag)
    certificate: InvariantCertificate | None = None

    @property
    def proved(self) -> bool:
        return self.status is Status.PROVED

    @property
    def failed(self) -> bool:
        return self.status is Status.FAILED

    def to_dict(self, netlist: Netlist) -> dict:
        """JSON-serializable form; the trace and certificate encode
        positionally over ``netlist`` (see :meth:`Trace.to_dict`)."""
        return {
            "status": self.status.value,
            "engine": self.engine,
            "iterations": self.iterations,
            "trace": (
                self.trace.to_dict(netlist) if self.trace is not None else None
            ),
            "certificate": (
                self.certificate.to_dict(netlist)
                if self.certificate is not None
                else None
            ),
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, payload: dict, netlist: Netlist
    ) -> "VerificationResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        trace = None
        if payload.get("trace") is not None:
            trace = Trace.from_dict(payload["trace"], netlist)
        certificate = None
        if payload.get("certificate") is not None:
            certificate = InvariantCertificate.from_dict(
                payload["certificate"], netlist
            )
        stats_payload = payload.get("stats") or {}
        if "values" not in stats_payload:
            # Pre-"format" cache records stored a flat value map with the
            # gauge names alongside it at the top level.
            stats_payload = {
                "values": stats_payload,
                "gauges": payload.get("gauges", []),
            }
        return cls(
            status=Status(payload["status"]),
            engine=payload["engine"],
            trace=trace,
            iterations=int(payload.get("iterations", 0)),
            stats=StatsBag.from_dict(stats_payload),
            certificate=certificate,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VerificationResult({self.status.value}, engine={self.engine}, "
            f"iterations={self.iterations})"
        )
