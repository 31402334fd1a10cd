"""Tseitin encoding of AIG cones into CNF.

:class:`CnfMapper` keeps a persistent node-to-variable map over one solver
instance, so several cones (and several checks) share a clause database —
the exact workflow the paper built on top of ZChaff: "we load the clause
database once and for-all, and we factorize several checks together within
a single ZChaff run".
"""

from __future__ import annotations

from repro.aig.graph import FALSE, TRUE, Aig
from repro.errors import AigError
from repro.sat.cnf import CNF
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

    def _var_for_const(self) -> int:
        if self._const_var is None:
            self._const_var = self.solver.new_var()
            self.solver.add_clause([-self._const_var])  # constant FALSE
        return self._const_var

    def var_for_node(self, node: int) -> int:
        """The solver variable carrying this node's value (encode if new)."""
        existing = self._node_var.get(node)
        if existing is not None:
            return existing
        if node == 0:
            return self._var_for_const()
        # Encode the not-yet-encoded part of the cone, fanins first.  The
        # walk stops at encoded nodes, whose cones are encoded already.
        # Fanins are read straight from the manager's arrays (-1 marks an
        # input; a cone never holds the constant node).
        aig, solver, node_var = self.aig, self.solver, self._node_var
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

    def lit_for(self, edge: int) -> int:
        """DIMACS literal equivalent to the edge (encoding its cone).

        The constant node is backed by a variable pinned to false, so the
        FALSE edge maps to that (unsatisfiable) literal and TRUE to its
        negation.
        """
        if edge == FALSE:
            return self._var_for_const()
        if edge == TRUE:
            return -self._var_for_const()
        var = self.var_for_node(edge >> 1)
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


def edge_to_cnf(aig: Aig, edge: int) -> tuple[CNF, int, dict[int, int]]:
    """Standalone Tseitin encoding of one edge.

    Returns ``(cnf, root_literal, input_node_to_var)``.  Asserting
    ``root_literal`` makes the CNF equisatisfiable with the edge function.
    """
    cnf = CNF()
    node_var: dict[int, int] = {}
    const_var: int | None = None

    def const() -> int:
        nonlocal const_var
        if const_var is None:
            const_var = cnf.new_var()
            cnf.add_clause([-const_var])
        return const_var

    def lit_of(e: int) -> int:
        node = e >> 1
        var = const() if node == 0 else node_var[node]
        return -var if e & 1 else var

    for node in aig.cone([edge]):
        if aig.is_input(node):
            node_var[node] = cnf.new_var()
            continue
        f0, f1 = aig.fanins(node)
        a, b = lit_of(f0), lit_of(f1)
        out = cnf.new_var()
        node_var[node] = out
        cnf.add_clause([-out, a])
        cnf.add_clause([-out, b])
        cnf.add_clause([out, -a, -b])
    inputs = {node: var for node, var in node_var.items() if aig.is_input(node)}
    if edge == FALSE:
        return cnf, const(), inputs   # pinned-false literal: asserting it is UNSAT
    if edge == TRUE:
        return cnf, -const(), inputs
    return cnf, lit_of(edge), inputs
