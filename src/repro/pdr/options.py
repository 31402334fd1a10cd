"""Typed options of the ``pdr`` engine.

Kept dependency-free (like :mod:`repro.itp.options`) so the engine
registry can import it without pulling the PDR machinery — the
registration in :mod:`repro.mc.engine` needs the dataclass at import
time, the engine itself only on first use.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PdrOptions:
    """Configuration of the IC3/PDR engine.

    ``max_frames`` bounds the length of the frame trace (the engine
    answers UNKNOWN once it would have to open a deeper frame).  The
    cap on proof obligations is the module constant
    :data:`repro.pdr.engine.MAX_OBLIGATIONS`, a safety valve against
    pathological instances rather than a tuning knob.

    ``generalize`` enables unsat-core literal dropping on blocked cubes
    (lemmas shrink from full state assignments to a few literals);
    ``ternary`` enables ternary-simulation expansion of the cubes read
    off SAT models (predecessors and bad states cover many concrete
    states per query).  Both default on; turning them off yields the
    textbook unoptimized algorithm, useful for differential testing.

    The inductive-invariant certificate of every PROVED result is
    re-checked with three SAT queries on a fresh, independent solver
    before the result is returned; there is no switch, since a bad
    certificate is an engine bug, not a verdict.
    """

    max_frames: int = 100
    generalize: bool = True
    ternary: bool = True
