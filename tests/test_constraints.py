"""Tests for environment constraints (assume-invariants).

The canonical scenario: the *buggy* arbiter (grants = requests, no token)
violates mutual exclusion only when two requests arrive together.  Under
the constraint "at most one request per cycle" every engine must prove
it safe; without the constraint every engine must find the collision.
"""

import pytest

from repro.aig.graph import TRUE, edge_not
from repro.aig.ops import and_all
from repro.circuits.generators import arbiter
from repro.circuits.netlist import Netlist
from repro.circuits.parse import parse_netlist, serialize_netlist
from repro.errors import NetlistError
from repro.mc.engine import verify
from repro.mc.result import Status


def at_most_one_request(netlist: Netlist) -> int:
    aig = netlist.aig
    requests = [2 * node for node in netlist.input_nodes]
    return and_all(
        aig,
        [
            edge_not(aig.and_(requests[i], requests[j]))
            for i in range(len(requests))
            for j in range(i + 1, len(requests))
        ],
    )


def constrained_buggy_arbiter(clients: int = 3) -> Netlist:
    netlist = arbiter(clients, safe=False)
    netlist.add_constraint(at_most_one_request(netlist))
    return netlist


ENGINES = [
    "reach_aig", "reach_aig_fwd", "reach_bdd", "reach_bdd_fwd",
    "k_induction",
]


class TestNetlistApi:
    def test_default_unconstrained(self):
        netlist = arbiter(3)
        assert netlist.constraints == []
        assert netlist.constraint_edge() == TRUE

    def test_constraint_edge_conjunction(self):
        netlist = arbiter(3)
        first = 2 * netlist.input_nodes[0]
        second = 2 * netlist.input_nodes[1]
        netlist.add_constraint(first)
        netlist.add_constraint(second)
        assert len(netlist.constraints) == 2
        assert netlist.constraint_edge() == netlist.aig.and_(first, second)

    def test_constraints_hold_evaluation(self):
        netlist = constrained_buggy_arbiter(3)
        state = netlist.init_assignment()
        one_request = {n: False for n in netlist.input_nodes}
        one_request[netlist.input_nodes[0]] = True
        assert netlist.constraints_hold(state, one_request)
        two_requests = dict(one_request)
        two_requests[netlist.input_nodes[1]] = True
        assert not netlist.constraints_hold(state, two_requests)

    def test_validate_rejects_foreign_constraint(self):
        netlist = arbiter(3)
        # An AIG-level input the netlist does not know about is foreign.
        foreign = netlist.aig.add_input("foreign")
        netlist.add_constraint(foreign)
        with pytest.raises(NetlistError):
            netlist.validate()

    def test_clone_preserves_constraints(self):
        netlist = constrained_buggy_arbiter(3)
        clone, _ = netlist.clone()
        assert len(clone.constraints) == 1
        state = clone.init_assignment()
        two = {n: False for n in clone.input_nodes}
        two[clone.input_nodes[0]] = True
        two[clone.input_nodes[1]] = True
        assert not clone.constraints_hold(state, two)

    def test_native_format_roundtrip(self):
        netlist = constrained_buggy_arbiter(3)
        recovered = parse_netlist(serialize_netlist(netlist))
        assert len(recovered.constraints) == 1
        result = verify(recovered, method="reach_bdd")
        assert result.status is Status.PROVED


class TestEngineSemantics:
    def test_unconstrained_buggy_arbiter_fails_everywhere(self):
        for engine in ENGINES:
            result = verify(arbiter(3, safe=False), method=engine)
            assert result.status is Status.FAILED, engine

    @pytest.mark.parametrize("engine", ENGINES)
    def test_constraint_makes_buggy_arbiter_safe(self, engine):
        result = verify(constrained_buggy_arbiter(3), method=engine)
        assert result.status is Status.PROVED, engine

    def test_bmc_finds_nothing_under_constraint(self):
        result = verify(
            constrained_buggy_arbiter(3), method="bmc", max_depth=8
        )
        assert result.status is Status.UNKNOWN

    def test_bmc_still_finds_violation_without_constraint(self):
        result = verify(arbiter(3, safe=False), method="bmc", max_depth=8)
        assert result.status is Status.FAILED

    def test_partially_constrained_still_fails_with_legal_trace(self):
        # Constrain only requests 0 and 1 to be exclusive; 0 and 2 can
        # still collide, so the property remains violated — but the trace
        # must respect the constraint.
        netlist = arbiter(3, safe=False)
        aig = netlist.aig
        r0, r1 = (2 * n for n in netlist.input_nodes[:2])
        netlist.add_constraint(edge_not(aig.and_(r0, r1)))
        for engine in ("reach_aig", "reach_aig_fwd", "reach_bdd"):
            result = verify(
                arbiter_with_partial_constraint(), method=engine
            )
            assert result.status is Status.FAILED, engine
            assert result.trace.validate(arbiter_with_partial_constraint())

    def test_constraint_on_state_restricts_violations(self):
        # A counter that "fails" above 5, constrained to stay below 4 by
        # a state constraint: the violation becomes unreachable.
        netlist = Netlist("limited")
        from repro.aig.ops import xor

        bits = [netlist.add_latch(f"b{k}") for k in range(3)]
        aig = netlist.aig
        carry = TRUE
        for bit in bits:
            netlist.set_next(bit, xor(aig, bit, carry))
            carry = aig.and_(bit, carry)
        value_ge_6 = aig.and_(bits[1], bits[2])      # >= 6
        netlist.set_property(edge_not(value_ge_6))
        netlist.add_constraint(edge_not(bits[2]))     # stay below 4
        netlist.validate()
        for engine in ("reach_aig", "reach_bdd"):
            assert verify(netlist, method=engine).status is Status.PROVED

    def test_folded_bmc_respects_constraints(self):
        result = verify(
            constrained_buggy_arbiter(3),
            method="bmc",
            max_depth=6,
            preimage_folds=2,
        )
        assert result.status is Status.UNKNOWN


def arbiter_with_partial_constraint() -> Netlist:
    netlist = arbiter(3, safe=False)
    aig = netlist.aig
    r0, r1 = (2 * n for n in netlist.input_nodes[:2])
    netlist.add_constraint(edge_not(aig.and_(r0, r1)))
    return netlist


class TestTraceValidation:
    def test_validate_rejects_constraint_violating_trace(self):
        netlist = constrained_buggy_arbiter(3)
        # Hand-build the collision trace that the constraint forbids.
        unconstrained = verify(arbiter(3, safe=False), method="reach_aig")
        assert unconstrained.status is Status.FAILED
        assert not unconstrained.trace.validate(netlist)

    def test_partial_constraint_trace_uses_legal_inputs(self):
        result = verify(arbiter_with_partial_constraint(), method="reach_aig")
        assert result.status is Status.FAILED
        netlist = arbiter_with_partial_constraint()
        nodes = netlist.input_nodes
        violation = result.trace.violation_inputs
        assert violation is not None
        assert not (violation[nodes[0]] and violation[nodes[1]])
