"""The image engine's input-elimination modes, and its fold consumers.

``ImageComputer`` decides how primary inputs leave a pre-image or the bad
states: circuit quantification, all-SAT enumeration, or partial
quantification with all-SAT on the residual.  All three compute the same
state set; BMC and k-induction fold those pre-images into their targets
without changing a verdict or a trace depth.
"""

import pytest

from repro.aig.graph import edge_not
from repro.aig.ops import and_all, support
from repro.circuits import generators as G
from repro.circuits.netlist import Netlist
from repro.core import images as images_module
from repro.core.images import ImageComputer
from repro.mc.bmc import bmc
from repro.mc.induction import k_induction
from tests.conftest import edges_equivalent

MODES = ["circuit", "allsat", "hybrid"]


def constrained_input_design() -> Netlist:
    """A one-hot FSM whose environment forbids advancing out of state 1,
    with a property that reads both inputs.  The bad states and the first
    pre-images all change when the constraint is dropped.
    """
    net = G.one_hot_fsm(5, safe=False)
    aig = net.aig
    advance, glitch = (2 * node for node in net.input_nodes)
    state = [2 * node for node in net.latch_nodes]
    net.add_constraint(edge_not(aig.and_(advance, state[1])))
    net.set_property(
        and_all(
            aig,
            [
                net.property_edge,
                edge_not(aig.and_(advance, state[1])),
                edge_not(aig.and_(glitch, state[2])),
            ],
        )
    )
    return net


def computers(net: Netlist) -> dict[str, ImageComputer]:
    return {mode: ImageComputer(net, elimination=mode) for mode in MODES}


class TestEliminationModes:
    @pytest.fixture(autouse=True)
    def tight_growth_budget(self, monkeypatch):
        # Forces the hybrid mode to hand variables on to all-SAT.
        monkeypatch.setattr(images_module, "HYBRID_GROWTH_FACTOR", 0.1)

    def test_bad_states_agree(self):
        net = constrained_input_design()
        results = {
            mode: computer.bad_states()
            for mode, computer in computers(net).items()
        }
        nodes = net.latch_nodes + net.input_nodes
        for mode in ("allsat", "hybrid"):
            assert edges_equivalent(
                net.aig, results["circuit"].edge, results[mode].edge, nodes
            ), mode

    def test_preimages_agree(self):
        net = constrained_input_design()
        images = computers(net)
        nodes = net.latch_nodes + net.input_nodes
        frontier = images["circuit"].bad_states().edge
        for _ in range(3):
            results = {
                mode: computer.preimage(frontier)
                for mode, computer in images.items()
            }
            for mode in ("allsat", "hybrid"):
                assert edges_equivalent(
                    net.aig,
                    results["circuit"].edge,
                    results[mode].edge,
                    nodes,
                ), mode
            frontier = results["circuit"].edge
        assert results["hybrid"].stats.get("hybrid_residual_vars") >= 1

    def test_results_are_state_sets(self):
        net = constrained_input_design()
        for mode, computer in computers(net).items():
            edge = computer.preimage(computer.bad_states().edge).edge
            assert not set(net.input_nodes) & support(net.aig, edge), mode


class TestPreimageFolds:
    """Folding pre-images into the target keeps every verdict and depth."""

    @pytest.mark.parametrize(
        "engine",
        [
            lambda net, folds: bmc(net, max_depth=8, preimage_folds=folds),
            lambda net, folds: k_induction(
                net, max_k=8, preimage_folds=folds
            ),
        ],
        ids=["bmc", "k_induction"],
    )
    @pytest.mark.parametrize(
        "build",
        [lambda: G.bug_at_depth(3), lambda: G.mod_counter(3, 6)],
        ids=["bug_at_depth_3", "mod_counter_3_6"],
    )
    def test_two_folds_match_unfolded(self, engine, build):
        plain = engine(build(), 0)
        folded = engine(build(), 2)
        assert folded.status is plain.status
        if plain.trace is None:
            assert folded.trace is None
        else:
            assert folded.trace.depth == plain.trace.depth
            assert folded.trace.validate(build())
