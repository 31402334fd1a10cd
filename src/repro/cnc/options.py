"""Typed options for the cube-and-conquer engine."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelCheckingError


@dataclass
class CncOptions:
    """Knobs of the ``cnc`` engine (see :mod:`repro.cnc.engine`).

    ``max_depth`` is the BMC-style unrolling bound: the engine builds one
    combinational "violation within <= max_depth steps" target and splits
    *that*, so one deep bound becomes many parallel solver calls instead
    of a depth sweep.  ``cube_depth`` and ``candidates_limit`` shape the
    Cube stage (tree depth and the lookahead's top-K trial set);
    ``workers`` sizes the conquer pool (0 solves the cubes in-process,
    sequentially and deterministically).  Cubes are solved without a
    conflict or time budget, so each ends SAT or UNSAT unless its
    worker crashes.
    """

    max_depth: int = 100
    cube_depth: int = 4
    candidates_limit: int = 10
    workers: int = 2

    def validate(self) -> None:
        if self.max_depth < 0:
            raise ModelCheckingError("cnc max_depth must be >= 0")
        if self.cube_depth < 0:
            raise ModelCheckingError("cnc cube_depth must be >= 0")
        if self.candidates_limit < 1:
            raise ModelCheckingError("cnc candidates_limit must be >= 1")
        if self.workers < 0:
            raise ModelCheckingError("cnc workers must be >= 0")
