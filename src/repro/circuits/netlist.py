"""Sequential circuit model: latches + next-state functions + properties.

A :class:`Netlist` owns one AIG manager.  State variables and primary
inputs are AIG inputs; each latch carries a next-state edge and an initial
value.  An invariant property is a single edge that must hold in every
reachable state ("Given an invariant property P we start reachability from
its complement...").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.aig.graph import TRUE, Aig, edge_not
from repro.aig.ops import and_all, support
from repro.aig.simulate import eval_edge
from repro.errors import NetlistError


@dataclass
class Latch:
    """One state element."""

    node: int              # the AIG input node acting as the state variable
    next_edge: int | None  # next-state function (over inputs and latches)
    init: bool             # initial value
    name: str


class Netlist:
    """A deterministic sequential circuit over one AIG manager.

    >>> n = Netlist("toggler")
    >>> t = n.add_latch("t", init=False)
    >>> n.set_next(t, edge_not(t))
    >>> n.set_property(TRUE)    # trivially safe
    >>> n.validate()
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.aig = Aig()
        self._input_nodes: list[int] = []
        self._latches: list[Latch] = []
        self._latch_by_node: dict[int, Latch] = {}
        self._outputs: dict[str, int] = {}
        self._property: int | None = None
        self._constraints: list[int] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_aig(
        cls,
        aig: Aig,
        *,
        input_nodes: Sequence[int],
        latches: Sequence[Latch],
        property_edge: int | None = None,
        constraints: Sequence[int] = (),
        outputs: Mapping[str, int] | None = None,
        name: str = "",
    ) -> "Netlist":
        """Re-anchor a netlist onto an existing manager.

        Used by transformations (e.g. FRAIG preprocessing) that rebuild
        the logic in a fresh ``Aig`` and need a netlist over it without
        re-creating the leaves through :meth:`add_input`/:meth:`add_latch`.
        The given nodes/edges must already live in ``aig``; the result is
        validated before being returned.
        """
        netlist = cls(name)
        netlist.aig = aig
        netlist._input_nodes = list(input_nodes)
        netlist._latches = list(latches)
        netlist._latch_by_node = {latch.node: latch for latch in latches}
        if outputs:
            netlist._outputs = dict(outputs)
        netlist._property = property_edge
        netlist._constraints = list(constraints)
        netlist.validate()
        return netlist

    def add_input(self, name: str | None = None) -> int:
        """A primary (free) input; returns its edge."""
        edge = self.aig.add_input(
            name if name is not None else f"in{len(self._input_nodes)}"
        )
        self._input_nodes.append(edge >> 1)
        return edge

    def add_inputs(self, count: int, prefix: str = "in") -> list[int]:
        return [self.add_input(f"{prefix}{k}") for k in range(count)]

    def add_latch(self, name: str | None = None, init: bool = False) -> int:
        """A state variable; returns its edge.  Set its next edge later."""
        label = name if name is not None else f"l{len(self._latches)}"
        edge = self.aig.add_input(label)
        latch = Latch(node=edge >> 1, next_edge=None, init=init, name=label)
        self._latches.append(latch)
        self._latch_by_node[latch.node] = latch
        return edge

    def add_latches(
        self, count: int, prefix: str = "l", init: int = 0
    ) -> list[int]:
        """``count`` latches; bit ``k`` of ``init`` is latch k's init value."""
        return [
            self.add_latch(f"{prefix}{k}", init=bool((init >> k) & 1))
            for k in range(count)
        ]

    def set_next(self, latch_edge: int, next_edge: int) -> None:
        """Define the next-state function of a latch (by its edge)."""
        node = latch_edge >> 1
        if latch_edge & 1:
            raise NetlistError("pass the positive latch edge to set_next")
        latch = self._latch_by_node.get(node)
        if latch is None:
            raise NetlistError(f"node {node} is not a latch")
        latch.next_edge = next_edge

    def set_output(self, name: str, edge: int) -> None:
        self._outputs[name] = edge

    def set_property(self, edge: int) -> None:
        """The invariant: this edge must be 1 in every reachable state."""
        self._property = edge

    def add_constraint(self, edge: int) -> None:
        """An environment assumption over inputs and state.

        Constraints restrict the executions the engines consider: every
        step of a path (including the violating one) must satisfy every
        constraint.  Image computations conjoin them before quantifying,
        and the SAT-based engines assert them in every time frame.
        """
        self._constraints.append(edge)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def input_nodes(self) -> list[int]:
        return list(self._input_nodes)

    @property
    def latch_nodes(self) -> list[int]:
        return [latch.node for latch in self._latches]

    @property
    def latches(self) -> list[Latch]:
        return list(self._latches)

    @property
    def num_latches(self) -> int:
        return len(self._latches)

    @property
    def num_inputs(self) -> int:
        return len(self._input_nodes)

    @property
    def outputs(self) -> dict[str, int]:
        return dict(self._outputs)

    @property
    def property_edge(self) -> int:
        if self._property is None:
            raise NetlistError("no property set")
        return self._property

    @property
    def has_property(self) -> bool:
        return self._property is not None

    @property
    def constraints(self) -> list[int]:
        return list(self._constraints)

    def constraint_edge(self) -> int:
        """Conjunction of all constraints (``TRUE`` when unconstrained)."""
        if not self._constraints:
            return TRUE
        return and_all(self.aig, self._constraints)

    def constraints_hold(
        self, state: Mapping[int, bool], inputs: Mapping[int, bool]
    ) -> bool:
        """Evaluate every constraint under one concrete step."""
        assignment = dict(inputs)
        assignment.update(state)
        return all(
            eval_edge(self.aig, edge, assignment)
            for edge in self._constraints
        )

    def next_functions(self) -> dict[int, int]:
        """Map latch node -> next-state edge (validation included)."""
        result: dict[int, int] = {}
        for latch in self._latches:
            if latch.next_edge is None:
                raise NetlistError(f"latch {latch.name} has no next function")
            result[latch.node] = latch.next_edge
        return result

    def init_assignment(self) -> dict[int, bool]:
        """Latch node -> initial value."""
        return {latch.node: latch.init for latch in self._latches}

    def init_state_edge(self) -> int:
        """Characteristic function of the (single) initial state."""
        literals = []
        for latch in self._latches:
            edge = 2 * latch.node
            literals.append(edge if latch.init else edge_not(edge))
        return and_all(self.aig, literals)

    # ------------------------------------------------------------------ #
    # Validation and simulation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Raise :class:`NetlistError` on dangling or ill-scoped logic."""
        legal = set(self._input_nodes) | set(self._latch_by_node)
        for latch in self._latches:
            if latch.next_edge is None:
                raise NetlistError(f"latch {latch.name} has no next function")
            used = support(self.aig, latch.next_edge)
            if not used <= legal:
                raise NetlistError(
                    f"next function of {latch.name} uses foreign inputs "
                    f"{sorted(used - legal)}"
                )
        if self._property is not None:
            used = support(self.aig, self._property)
            if not used <= legal:
                raise NetlistError("property uses foreign inputs")
        for index, edge in enumerate(self._constraints):
            used = support(self.aig, edge)
            if not used <= legal:
                raise NetlistError(f"constraint {index} uses foreign inputs")

    def simulate_step(
        self,
        state: Mapping[int, bool],
        inputs: Mapping[int, bool],
    ) -> dict[int, bool]:
        """One clock tick: returns the next state (latch node -> value)."""
        assignment = dict(inputs)
        assignment.update(state)
        return {
            latch.node: eval_edge(self.aig, latch.next_edge, assignment)
            for latch in self._latches
        }

    def run_trace(
        self,
        input_sequence: Sequence[Mapping[int, bool]],
        state: Mapping[int, bool] | None = None,
    ) -> list[dict[int, bool]]:
        """Simulate from the initial (or given) state; returns state list.

        The returned list has ``len(input_sequence) + 1`` entries, starting
        with the initial state.
        """
        current = dict(state) if state is not None else self.init_assignment()
        states = [dict(current)]
        for step_inputs in input_sequence:
            current = self.simulate_step(current, step_inputs)
            states.append(dict(current))
        return states

    def property_holds(
        self, state: Mapping[int, bool], inputs: Mapping[int, bool] | None = None
    ) -> bool:
        assignment = dict(inputs) if inputs else {}
        assignment.update(state)
        return eval_edge(self.aig, self.property_edge, assignment)

    # ------------------------------------------------------------------ #
    # Cloning (used by traversal engines for private working copies)
    # ------------------------------------------------------------------ #

    def clone(self) -> tuple["Netlist", dict[int, int]]:
        """Deep-copy into a fresh manager, dropping unreferenced logic.

        Returns ``(clone, node_map)`` where ``node_map`` maps this
        netlist's input/latch nodes to the clone's nodes.  Latch order,
        names, init values, outputs, property and constraints are
        preserved.  A traversal engine clones its netlist once and works
        on the copy, so the caller's manager never grows.
        """
        from repro.aig.ops import transfer

        duplicate = Netlist(self.name)
        leaf_map: dict[int, int] = {}
        latch_node_set = set(self._latch_by_node)
        input_node_set = set(self._input_nodes)
        for node in self.aig.inputs:
            if node in latch_node_set:
                latch = self._latch_by_node[node]
                leaf_map[node] = duplicate.add_latch(latch.name, latch.init)
            elif node in input_node_set:
                leaf_map[node] = duplicate.add_input(self.aig.input_name(node))
            else:
                # Foreign scratch input (e.g. post-image placeholder):
                # recreate it to keep identities stable, but unregistered.
                leaf_map[node] = duplicate.aig.add_input(
                    self.aig.input_name(node)
                )
        cache: dict[int, int] = {}
        for latch in self._latches:
            if latch.next_edge is not None:
                duplicate.set_next(
                    leaf_map[latch.node],
                    transfer(
                        self.aig, latch.next_edge, duplicate.aig, leaf_map, cache
                    ),
                )
        for out_name, edge in self._outputs.items():
            duplicate.set_output(
                out_name,
                transfer(self.aig, edge, duplicate.aig, leaf_map, cache),
            )
        if self._property is not None:
            duplicate.set_property(
                transfer(self.aig, self._property, duplicate.aig, leaf_map, cache)
            )
        for edge in self._constraints:
            duplicate.add_constraint(
                transfer(self.aig, edge, duplicate.aig, leaf_map, cache)
            )
        node_map = {node: leaf_map[node] >> 1 for node in leaf_map}
        return duplicate, node_map

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, latches={self.num_latches}, "
            f"inputs={self.num_inputs}, ands={self.aig.num_ands})"
        )
