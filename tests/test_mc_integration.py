"""Cross-engine integration tests through the unified front-end.

Every engine must agree on every benchmark: same verdict, and for buggy
designs a validated trace of the same (shortest) depth where the engine is
shortest-path (reachability) or depth-incremental (BMC, induction base).
"""

import pytest

from repro.api.registry import iter_engines
from repro.circuits import generators as G
from repro.mc import Status, verify
from repro.mc.result import Trace

ALL_METHODS = ["reach_aig", "reach_bdd", "bmc", "k_induction"]


class TestVerdictMatrix:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_buggy_counter(self, method):
        result = verify(
            G.mod_counter(4, 9, safe=False), method=method, max_depth=20
        )
        assert result.status is Status.FAILED
        assert result.trace.depth == 8

    @pytest.mark.parametrize(
        "method", ["reach_aig", "reach_bdd", "k_induction"]
    )
    def test_safe_counter(self, method):
        result = verify(G.mod_counter(4, 9), method=method, max_depth=20)
        assert result.status is Status.PROVED

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_buggy_ring(self, method):
        result = verify(
            G.ring_counter(5, safe=False), method=method, max_depth=20
        )
        assert result.status is Status.FAILED
        assert result.trace.depth == 4

    @pytest.mark.parametrize(
        "method",
        ["reach_aig", "reach_aig_allsat", "reach_aig_hybrid", "reach_bdd"],
    )
    def test_safe_fifo_all_traversals(self, method):
        result = verify(
            G.fifo_level(3, safe=True), method=method, max_depth=30
        )
        assert result.status is Status.PROVED

    def test_unknown_method_rejected(self):
        from repro.errors import ModelCheckingError

        with pytest.raises(ModelCheckingError):
            verify(G.traffic_light(), method="prayer")

    def test_trace_validation_is_enforced(self):
        # Hand the verifier a fabricated bad trace through a stubbed engine
        # by checking Trace.validate directly.
        net = G.mod_counter(3, 5, safe=False)
        bogus = Trace(states=[{n: True for n in net.latch_nodes}], inputs=[])
        assert not bogus.validate(net)


class TestEngineNames:
    @pytest.mark.parametrize(
        "spec",
        [spec for spec in iter_engines() if not spec.composite],
        ids=lambda spec: spec.name,
    )
    def test_result_names_its_engine(self, spec):
        """Forced-option variants report their own name, not the base's."""
        result = verify(G.fifo_level(3, safe=False), method=spec.name)
        assert result.status is Status.FAILED
        assert result.engine == spec.name


class TestTraceProperties:
    def test_trace_inputs_drive_state_sequence(self):
        net = G.fifo_level(3, safe=False)
        result = verify(net, method="reach_aig", max_depth=20)
        trace = result.trace
        current = dict(trace.states[0])
        for step_inputs, expected in zip(trace.inputs, trace.states[1:]):
            current = net.simulate_step(current, step_inputs)
            assert current == expected

    def test_trace_starts_at_init(self):
        net = G.ring_counter(4, safe=False)
        result = verify(net, method="reach_bdd", max_depth=20)
        assert result.trace.states[0] == net.init_assignment()

    def test_violation_inputs_present_for_arbiter(self):
        net = G.arbiter(3, safe=False)
        result = verify(net, method="reach_aig", max_depth=10)
        assert result.trace.violation_inputs is not None
        assert not net.property_holds(
            result.trace.states[-1], result.trace.violation_inputs
        )


class TestScalingSanity:
    """Moderately larger instances stay correct (and fast enough)."""

    def test_wider_counter(self):
        result = verify(
            G.mod_counter(6, 50, safe=False), method="bmc", max_depth=60
        )
        assert result.status is Status.FAILED
        assert result.trace.depth == 49

    def test_wider_counter_reach_bdd(self):
        result = verify(
            G.mod_counter(6, 50, safe=False), method="reach_bdd", max_depth=60
        )
        assert result.status is Status.FAILED
        assert result.trace.depth == 49

    def test_bigger_arbiter(self):
        result = verify(G.arbiter(5), method="reach_aig", max_depth=10)
        assert result.status is Status.PROVED

    def test_gray_counter_induction(self):
        result = verify(G.gray_counter(4), method="k_induction", max_depth=4)
        assert result.status is Status.PROVED
