"""Tests for the traversal engines: AIG backward (the paper) vs BDD."""

import pytest

from repro.circuits import generators as G
from repro.core.quantify import QuantifyOptions
from repro.errors import ModelCheckingError
from repro.mc.reach_aig import BackwardReachability, ReachOptions
from repro.mc.reach_bdd import (
    bdd_backward_reachability,
    bdd_forward_reachability,
)
from repro.mc.result import Status


SAFE_CASES = [
    ("mod_counter", lambda: G.mod_counter(4, 10)),
    ("ring_counter", lambda: G.ring_counter(4)),
    ("arbiter", lambda: G.arbiter(3)),
    ("fifo", lambda: G.fifo_level(3, safe=True)),
    ("traffic", lambda: G.traffic_light()),
    ("lfsr", lambda: G.lfsr(4)),
]

BUGGY_CASES = [
    ("mod_counter", lambda: G.mod_counter(4, 10, safe=False), 9),
    ("ring_counter", lambda: G.ring_counter(5, safe=False), 4),
    ("bug3", lambda: G.bug_at_depth(3), 3),
    ("fifo", lambda: G.fifo_level(3, safe=False), 1),
    ("arbiter", lambda: G.arbiter(3, safe=False), 0),
]


class TestAigBackward:
    @pytest.mark.parametrize("name,build", SAFE_CASES)
    def test_proves_safe_designs(self, name, build):
        result = BackwardReachability(build()).run()
        assert result.status is Status.PROVED, name

    @pytest.mark.parametrize("name,build,depth", BUGGY_CASES)
    def test_finds_bugs_with_shortest_traces(self, name, build, depth):
        net = build()
        result = BackwardReachability(net).run()
        assert result.status is Status.FAILED, name
        assert result.trace is not None
        assert result.trace.validate(net), name
        assert result.trace.depth == depth, name

    def test_caller_manager_untouched(self):
        net = G.mod_counter(4, 10)
        nodes_before = net.aig.num_nodes
        BackwardReachability(net).run()
        assert net.aig.num_nodes == nodes_before

    def test_iteration_limit_gives_unknown(self):
        net = G.mod_counter(4, 12, safe=False)
        result = BackwardReachability(
            net, ReachOptions(max_iterations=2)
        ).run()
        assert result.status is Status.UNKNOWN

    def test_compaction_keeps_results_correct(self):
        net = G.mod_counter(4, 12, safe=False)
        result = BackwardReachability(
            net, ReachOptions(compact_every=1)
        ).run()
        assert result.status is Status.FAILED
        assert result.trace.depth == 11
        assert result.stats.get("compactions") >= 1

    def test_no_compaction_mode(self):
        net = G.mod_counter(3, 6, safe=False)
        result = BackwardReachability(
            net, ReachOptions(compact_every=0)
        ).run()
        assert result.status is Status.FAILED

    @pytest.mark.parametrize("preset", ["shannon", "hash", "bdd", "sat", "full"])
    def test_quantifier_presets_agree(self, preset):
        net = G.fifo_level(2, safe=True)
        result = BackwardReachability(
            net,
            ReachOptions(quantify=QuantifyOptions.preset(preset)),
        ).run()
        assert result.status is Status.PROVED, preset

    def test_missing_property_rejected(self):
        from repro.circuits.netlist import Netlist
        from repro.aig.graph import edge_not

        net = Netlist()
        t = net.add_latch("t")
        net.set_next(t, edge_not(t))
        with pytest.raises(ModelCheckingError):
            BackwardReachability(net)

    def test_invalid_mode_rejected(self):
        net = G.mod_counter(2, 3)
        with pytest.raises(ModelCheckingError):
            BackwardReachability(
                net, ReachOptions(input_elimination="quantum")
            )

    def test_per_iteration_frontier_stats(self):
        net = G.mod_counter(4, 12, safe=False)
        result = BackwardReachability(net).run()
        assert "frontier_size_1" in result.stats


class TestInputEliminationModes:
    @pytest.mark.parametrize(
        "mode", ["circuit", "allsat", "hybrid"]
    )
    def test_safe_design_all_modes(self, mode):
        net = G.fifo_level(3, safe=True)
        result = BackwardReachability(
            net, ReachOptions(input_elimination=mode)
        ).run()
        assert result.status is Status.PROVED, mode

    @pytest.mark.parametrize(
        "mode", ["circuit", "allsat", "hybrid"]
    )
    def test_buggy_design_all_modes(self, mode):
        net = G.fifo_level(3, safe=False)
        result = BackwardReachability(
            net, ReachOptions(input_elimination=mode)
        ).run()
        assert result.status is Status.FAILED, mode
        assert result.trace.validate(G.fifo_level(3, safe=False))

    def test_hybrid_reports_residuals(self):
        net = G.arbiter(3)
        result = BackwardReachability(
            net,
            ReachOptions(
                input_elimination="hybrid",
                partial_growth_factor=0.1,   # force aborts
                quantify=QuantifyOptions.preset("hash"),
            ),
        ).run()
        assert result.status is Status.PROVED
        # With such a tight budget at least one variable went to all-SAT.
        assert result.stats.get("hybrid_residual_vars", 0) >= 1


class TestBddEngines:
    @pytest.mark.parametrize("name,build", SAFE_CASES)
    def test_backward_proves_safe(self, name, build):
        result = bdd_backward_reachability(build())
        assert result.status is Status.PROVED, name

    @pytest.mark.parametrize("name,build,depth", BUGGY_CASES)
    def test_backward_finds_bugs(self, name, build, depth):
        net = build()
        result = bdd_backward_reachability(net)
        assert result.status is Status.FAILED, name
        assert result.trace.validate(net), name
        assert result.trace.depth == depth, name

    @pytest.mark.parametrize("name,build", SAFE_CASES)
    def test_forward_proves_safe(self, name, build):
        result = bdd_forward_reachability(build())
        assert result.status is Status.PROVED, name

    def test_forward_finds_bugs(self):
        result = bdd_forward_reachability(G.bug_at_depth(4))
        assert result.status is Status.FAILED

    def test_iteration_limit(self):
        result = bdd_backward_reachability(
            G.mod_counter(4, 12, safe=False), max_iterations=3
        )
        assert result.status is Status.UNKNOWN


class TestEnginesAgree:
    """AIG and BDD traversals must produce identical verdicts and depths."""

    @pytest.mark.parametrize("name,build,depth", BUGGY_CASES)
    def test_bug_depth_agreement(self, name, build, depth):
        aig_result = BackwardReachability(build()).run()
        bdd_result = bdd_backward_reachability(build())
        assert aig_result.status == bdd_result.status == Status.FAILED
        assert aig_result.trace.depth == bdd_result.trace.depth

    @pytest.mark.parametrize("name,build", SAFE_CASES)
    def test_iteration_agreement_on_safe(self, name, build):
        aig_result = BackwardReachability(build()).run()
        bdd_result = bdd_backward_reachability(build())
        assert aig_result.status == bdd_result.status == Status.PROVED
        assert aig_result.iterations == bdd_result.iterations, name
