"""Tseitin encoding of AIG cones into CNF.

:class:`CnfMapper` keeps a persistent node-to-variable map over one solver
instance, so several cones (and several checks) share a clause database —
the exact workflow the paper built on top of ZChaff: "we load the clause
database once and for-all, and we factorize several checks together within
a single ZChaff run".  It is the one solver-backed Tseitin encoder: the
time-frame expansion of :class:`repro.mc.unroll.Unroller` runs its cone
loop over per-frame node maps.
"""

from __future__ import annotations

from repro.aig.graph import FALSE, TRUE, Aig
from repro.errors import AigError
from repro.sat.solver import Solver


class CnfMapper:
    """Incrementally encode AIG nodes as CNF variables in one solver.

    >>> aig = Aig()
    >>> a, b = aig.add_input(), aig.add_input()
    >>> f = aig.and_(a, b)
    >>> mapper = CnfMapper(aig, Solver())
    >>> lit = mapper.lit_for(f)
    >>> mapper.solver.solve([lit])         # is a AND b satisfiable?
    <SolveResult.SAT: 'sat'>
    """

    def __init__(self, aig: Aig, solver: Solver | None = None) -> None:
        self.aig = aig
        self.solver = solver if solver is not None else Solver()
        self._node_var: dict[int, int] = {}
        # (node, var) of every encoded input, in encoding order: a model
        # read-back touches only these, not every encoded AND node.
        self._input_vars: list[tuple[int, int]] = []
        self._const_var: int | None = None

    @property
    def num_nodes(self) -> int:
        """Number of AIG nodes encoded so far (the constant excluded)."""
        return len(self._node_var)

    @property
    def const_var(self) -> int | None:
        """The solver variable pinned FALSE for constant edges (if any)."""
        return self._const_var

    def _var_for_const(self) -> int:
        if self._const_var is None:
            self._const_var = self.solver.new_var()
            self.solver.add_clause([-self._const_var])  # constant FALSE
        return self._const_var

    def var_for_node(
        self, node: int, frame: dict[int, int] | None = None
    ) -> int:
        """The solver variable carrying this node's value (encode if new).

        ``frame`` is a node map to read and extend in place of the
        mapper's own: it must be cone-closed (every mapped node's cone is
        mapped) and already hold every input of the node's cone, as a
        time frame of :class:`repro.mc.unroll.Unroller` does.  The
        constant variable is shared by all maps.
        """
        node_var = self._node_var if frame is None else frame
        existing = node_var.get(node)
        if existing is not None:
            return existing
        if node == 0:
            return self._var_for_const()
        # Encode the not-yet-encoded part of the cone, fanins first.  The
        # walk stops at encoded nodes, whose cones are encoded already.
        # Fanins are read straight from the manager's arrays (-1 marks an
        # input; a cone never holds the constant node).
        aig, solver = self.aig, self.solver
        fanin0, fanin1 = aig._fanin0, aig._fanin1
        add_and_gate = solver.add_and_gate
        for cone_node in aig.cone([2 * node], node_var):
            f0 = fanin0[cone_node]
            if f0 == -1:
                var = node_var[cone_node] = solver.new_var()
                self._input_vars.append((cone_node, var))
                continue
            f1 = fanin1[cone_node]
            a = node_var[f0 >> 1] if f0 > 1 else self._var_for_const()
            b = node_var[f1 >> 1] if f1 > 1 else self._var_for_const()
            node_var[cone_node] = add_and_gate(
                -a if f0 & 1 else a, -b if f1 & 1 else b
            )
        return node_var[node]

    def lit_for(self, edge: int, frame: dict[int, int] | None = None) -> int:
        """DIMACS literal equivalent to the edge (encoding its cone).

        The constant node is backed by a variable pinned to false, so the
        FALSE edge maps to that (unsatisfiable) literal and TRUE to its
        negation.  ``frame`` is as for :meth:`var_for_node`.
        """
        if edge == FALSE:
            return self._var_for_const()
        if edge == TRUE:
            return -self._var_for_const()
        var = self.var_for_node(edge >> 1, frame)
        return -var if edge & 1 else var

    def input_literal(self, input_node: int) -> int:
        """The literal of a primary input (useful for model extraction)."""
        if not self.aig.is_input(input_node):
            raise AigError(f"node {input_node} is not an input")
        return self.var_for_node(input_node)

    def model_inputs(self) -> dict[int, bool]:
        """Read back input values from the solver's last model."""
        if not self._input_vars:
            return {}
        model = self.solver.model
        return {
            node: model[var - 1]
            for node, var in self._input_vars
            if var <= len(model)
        }
