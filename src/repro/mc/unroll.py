"""Time-frame expansion of a netlist into one incremental SAT instance.

Used by BMC, k-induction, interpolation and PDR.  Each frame gets fresh
solver variables for inputs and latches; the combinational logic is
Tseitin-encoded per frame into the *same* solver, so deeper checks reuse
everything learned on the shallow ones.  The encoding is
:class:`repro.aig.cnf.CnfMapper`'s, run over each frame's node map.
"""

from __future__ import annotations

from repro.aig.cnf import CnfMapper
from repro.aig.graph import Aig
from repro.aig.ops import support
from repro.circuits.netlist import Netlist
from repro.errors import ModelCheckingError
from repro.sat.solver import Solver


class Unroller:
    """Frame-by-frame CNF encoding of a sequential netlist."""

    def __init__(
        self,
        netlist: Netlist,
        solver: Solver | None = None,
        assert_constraints: bool = True,
    ) -> None:
        netlist.validate()
        self.netlist = netlist
        self.aig: Aig = netlist.aig
        self.solver = solver if solver is not None else Solver()
        # Encodes every frame; its own node map stays empty.
        self._mapper = CnfMapper(self.aig, self.solver)
        self._next_functions = netlist.next_functions()
        # Per frame: node -> solver variable, for the latch and input
        # nodes and every AND node encoded over them.
        self._frames: list[dict[int, int]] = []
        # Interpolation partitions clauses by *when* they are added, so
        # the itp engine needs to place each frame's environment
        # constraints itself (via constrain_frame) instead of having
        # ensure_frames assert them eagerly.
        self._auto_constraints = assert_constraints

    # ------------------------------------------------------------------ #
    # Frame construction
    # ------------------------------------------------------------------ #

    @property
    def num_frames(self) -> int:
        return len(self._frames)

    def _new_frame(self) -> dict[int, int]:
        frame: dict[int, int] = {}
        for node in self.netlist.latch_nodes + self.netlist.input_nodes:
            frame[node] = self.solver.new_var()
        return frame

    def ensure_frames(self, count: int) -> None:
        """Encode frames until at least ``count`` exist (frame 0 included).

        Unless the unroller was built with ``assert_constraints=False``,
        environment constraints of the netlist are asserted as unit
        clauses in every frame: all paths the solver considers are
        constraint-satisfying executions.  In the opt-out mode the
        caller owns constraint placement (see :meth:`constrain_frame`).
        """
        while len(self._frames) < count:
            if not self._frames:
                frame = self._new_frame()
                self._frames.append(frame)
                self._assert_constraints(frame)
                continue
            previous = self._frames[-1]
            frame = self._new_frame()
            # Tie each latch variable of the new frame to the next-state
            # function evaluated over the previous frame.
            for latch_node, next_edge in self._next_functions.items():
                next_lit = self.edge_lit_in(previous, next_edge)
                latch_lit = frame[latch_node]
                self.solver.add_clause([-latch_lit, next_lit])
                self.solver.add_clause([latch_lit, -next_lit])
            self._frames.append(frame)
            self._assert_constraints(frame)

    def _assert_constraints(self, frame: dict[int, int]) -> None:
        if not self._auto_constraints:
            return
        self._constrain(frame)

    def _constrain(self, frame: dict[int, int]) -> None:
        for edge in self.netlist.constraints:
            self.solver.add_clause([self.edge_lit_in(frame, edge)])

    def constrain_frame(self, index: int) -> None:
        """Assert the netlist's environment constraints at one frame.

        Only needed with ``assert_constraints=False``, where the caller
        owns constraint placement (the interpolation engine keeps frame
        0 in its A partition and guards later frames with selectors).
        """
        self._constrain(self.frame(index))

    @property
    def const_var(self) -> int | None:
        """The solver variable pinned FALSE for constant edges (if any)."""
        return self._mapper.const_var

    def frame(self, index: int) -> dict[int, int]:
        self.ensure_frames(index + 1)
        return self._frames[index]

    # ------------------------------------------------------------------ #
    # Edge encoding inside a frame
    # ------------------------------------------------------------------ #

    def edge_lit_in(self, frame: dict[int, int], edge: int) -> int:
        """Tseitin-encode an AIG edge over one frame's leaf variables.

        Gate encodings are cached inside the frame map (keyed by AND node),
        so repeated calls share clauses.  Every input of the edge's cone
        must be a latch or input of the frame; that is checked before any
        clause is added, so a rejected edge leaves the frame as it was.
        """
        node = edge >> 1
        if node and node not in frame:
            missing = support(self.aig, edge) - frame.keys()
            if missing:
                raise ModelCheckingError(
                    f"input nodes {sorted(missing)} missing from frame"
                )
        return self._mapper.lit_for(edge, frame)

    # ------------------------------------------------------------------ #
    # Convenience literals
    # ------------------------------------------------------------------ #

    def latch_lit(self, frame_index: int, latch_node: int) -> int:
        return self.frame(frame_index)[latch_node]

    def input_lit(self, frame_index: int, input_node: int) -> int:
        return self.frame(frame_index)[input_node]

    def property_lit(self, frame_index: int) -> int:
        """Literal of the property edge evaluated at a frame."""
        frame = self.frame(frame_index)
        return self.edge_lit_in(frame, self.netlist.property_edge)

    def assert_initial_state(self) -> None:
        """Pin frame 0's latches to the netlist's initial values."""
        frame = self.frame(0)
        for node, value in self.netlist.init_assignment().items():
            lit = frame[node]
            self.solver.add_clause([lit if value else -lit])

    def state_distinct_clauses(self, i: int, j: int) -> None:
        """Add "state_i != state_j" (for unique-path induction)."""
        frame_i, frame_j = self.frame(i), self.frame(j)
        difference_lits = []
        for node in self.netlist.latch_nodes:
            diff = self.solver.new_var()
            a, b = frame_i[node], frame_j[node]
            # diff <-> a XOR b
            self.solver.add_clause([-diff, a, b])
            self.solver.add_clause([-diff, -a, -b])
            self.solver.add_clause([diff, -a, b])
            self.solver.add_clause([diff, a, -b])
            difference_lits.append(diff)
        self.solver.add_clause(difference_lits)

    # ------------------------------------------------------------------ #
    # Model readback
    # ------------------------------------------------------------------ #

    def read_state(self, frame_index: int) -> dict[int, bool]:
        frame = self._frames[frame_index]
        return {
            node: self.solver.value(frame[node])
            for node in self.netlist.latch_nodes
        }

    def read_inputs(self, frame_index: int) -> dict[int, bool]:
        frame = self._frames[frame_index]
        return {
            node: self.solver.value(frame[node])
            for node in self.netlist.input_nodes
        }
