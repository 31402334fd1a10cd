"""Typed options of the ``itp`` engine.

Kept dependency-free (like :mod:`repro.portfolio.options`) so the engine
registry can import it without pulling the interpolation machinery — the
registration in :mod:`repro.mc.engine` needs the dataclass at import
time, the engine itself only on first use.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ItpOptions:
    """Configuration of interpolation-based reachability.

    ``max_depth`` bounds the unrolling depth ``k`` (doubled after every
    spurious hit); ``max_iterations`` caps the interpolant iterations of
    one fixed-depth round before deepening is forced.  Every refutation
    is replayed through the independent resolution checker.
    """

    max_depth: int = 100
    max_iterations: int = 64
