"""Cube-and-conquer parallel SAT for CircuitSAT/AIG instances.

The first engine that scales *inside* a single instance: a lookahead
Cube stage splits one hard target into many genuinely smaller
subproblems (:mod:`repro.cnc.lookahead`, :mod:`repro.cnc.cube`), a
multiprocessing conquer pool races them (:mod:`repro.cnc.conquer`), and
:mod:`repro.cnc.engine` packages the scheme as the registered ``cnc``
model-checking engine plus :func:`split_solve`, the split machinery
for one combinational target edge.
"""

from repro.cnc.conquer import ConquerTask, CubeOutcome, conquer, make_task
from repro.cnc.cube import (
    CubeLeaf,
    CubeLiteral,
    CubeTree,
    assume_literal,
    build_cube_tree,
)
from repro.cnc.engine import SplitOutcome, cnc_verify, split_solve
from repro.cnc.lookahead import (
    LookaheadResult,
    analyze,
    gate_weights,
    ternary_eval,
    ternary_lookahead,
)
from repro.cnc.options import CncOptions

__all__ = [
    "CncOptions",
    "ConquerTask",
    "CubeLeaf",
    "CubeLiteral",
    "CubeOutcome",
    "CubeTree",
    "LookaheadResult",
    "SplitOutcome",
    "analyze",
    "assume_literal",
    "build_cube_tree",
    "cnc_verify",
    "conquer",
    "gate_weights",
    "make_task",
    "split_solve",
    "ternary_eval",
    "ternary_lookahead",
]
