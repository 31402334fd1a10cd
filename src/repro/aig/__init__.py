"""And-Inverter Graph substrate.

The paper represents every state set as a single-output Boolean circuit over
an AIG (Kuehlmann et al. [3]).  This package provides the graph itself with
the semi-canonical structural hashing scheme the merge phase relies on
(step 1 of Section 2.1), plus the algebra the quantification and traversal
engines need: cofactoring, composition (for quantification by substitution),
bit-parallel simulation and Tseitin CNF encoding.

Edges ("literals") are plain ints: ``2*node + complement``.  The constant
FALSE edge is 0 and TRUE is 1.  Managers are append-only; algorithms that
shrink circuits build replacement cones and call :meth:`Aig.extract` to
compact.

Circuits are read and written as netlists, by :mod:`repro.circuits`
(``.net``, ``.bench`` and ``.blif``); this package has no file format
of its own.
"""

from repro.aig.graph import Aig, FALSE, TRUE, edge_node, edge_is_complement, edge_not
from repro.aig.ops import (
    and_all,
    cofactor,
    compose,
    implies_edge,
    ite,
    or_,
    or_all,
    support,
    xor,
    xnor,
)
from repro.aig.cnf import CnfMapper
from repro.aig.simulate import eval_edge, simulate, truth_table
from repro.aig.analysis import cone_size, level_of

__all__ = [
    "Aig",
    "FALSE",
    "TRUE",
    "edge_node",
    "edge_is_complement",
    "edge_not",
    "and_all",
    "or_",
    "or_all",
    "xor",
    "xnor",
    "ite",
    "implies_edge",
    "cofactor",
    "compose",
    "support",
    "CnfMapper",
    "simulate",
    "eval_edge",
    "truth_table",
    "cone_size",
    "level_of",
]
