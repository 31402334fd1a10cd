"""Positional result payloads decoded over a re-read netlist.

The result cache stores a verdict under the circuit's structural hash
and serves it to any later run on the same circuit, which may have been
read from a file into a manager with different node ids.  These tests
take that path: encode a result over one netlist, write the netlist out
in the ``.net`` format, parse it back, decode the JSON payload over the
parsed copy, and check that the counterexample still replays and the
invariant certificate still checks there.
"""

import json

import pytest

from repro.api import engine_names, get_engine
from repro.circuits import generators as G
from repro.circuits.library import handshake, mul_miter2
from repro.circuits.parse import parse_netlist, serialize_netlist
from repro.mc import verify
from repro.mc.result import Status, VerificationResult
from repro.pdr import check_certificate

FAILING = {
    "mod_counter": lambda: G.mod_counter(3, 5, safe=False),
    "ring_counter": lambda: G.ring_counter(4, safe=False),
    "johnson_counter": lambda: G.johnson_counter(3, safe=False),
    "up_down": lambda: G.up_down_counter(3, safe=False),
    "arbiter": lambda: G.arbiter(3, safe=False),
    "fifo_level": lambda: G.fifo_level(2, safe=False),
    "one_hot_fsm": lambda: G.one_hot_fsm(4, safe=False),
    "bug_at_depth": lambda: G.bug_at_depth(3),
    "handshake": lambda: handshake(False),
    "mul_miter2": lambda: mul_miter2(False),
}

PROVING = {
    "mod_counter": lambda: G.mod_counter(3, 5),
    "ring_counter": lambda: G.ring_counter(4),
    "johnson_counter": lambda: G.johnson_counter(3),
    "up_down": lambda: G.up_down_counter(3),
    "gray_counter": lambda: G.gray_counter(3),
    "arbiter": lambda: G.arbiter(3),
    "fifo_level": lambda: G.fifo_level(2),
    "one_hot_fsm": lambda: G.one_hot_fsm(4),
    "traffic_light": G.traffic_light,
    "handshake": lambda: handshake(True),
}


def _reread(netlist):
    return parse_netlist(serialize_netlist(netlist))


def _through_json(result, netlist):
    return json.loads(json.dumps(result.to_dict(netlist)))


def test_reread_renumbers_some_latches():
    # Positions, not node ids, must carry the payload: for some designs
    # the parsed copy numbers its latches differently.
    moved = [
        name
        for name, build in PROVING.items()
        if build().latch_nodes != _reread(build()).latch_nodes
    ]
    assert moved


@pytest.mark.parametrize("design", sorted(FAILING))
def test_counterexample_replays_on_reread_netlist(design):
    netlist = FAILING[design]()
    result = verify(netlist, method="bmc", max_depth=30)
    assert result.failed
    reread = _reread(netlist)
    recovered = VerificationResult.from_dict(
        _through_json(result, netlist), reread
    )
    assert recovered.failed
    assert recovered.iterations == result.iterations
    assert recovered.trace.depth == result.trace.depth
    assert recovered.trace.validate(reread)


@pytest.mark.parametrize("design", sorted(PROVING))
def test_certificate_checks_on_reread_netlist(design):
    netlist = PROVING[design]()
    result = verify(netlist, method="pdr")
    assert result.proved
    reread = _reread(netlist)
    recovered = VerificationResult.from_dict(
        _through_json(result, netlist), reread
    )
    assert recovered.proved
    assert recovered.certificate.level == result.certificate.level
    assert recovered.certificate.num_clauses == result.certificate.num_clauses
    check_certificate(reread, recovered.certificate)


def _run(name, netlist):
    spec = get_engine(name)
    options = {"budget": 10.0} if spec.composite else {}
    return spec.verify(netlist, max_depth=20, **options)


@pytest.mark.parametrize("name", engine_names())
def test_every_engine_failure_decodes_on_reread_netlist(name):
    netlist = G.fifo_level(2, safe=False)
    result = _run(name, netlist)
    assert result.failed
    reread = _reread(netlist)
    recovered = VerificationResult.from_dict(
        _through_json(result, netlist), reread
    )
    assert recovered.failed
    assert recovered.engine == result.engine
    assert recovered.stats.as_dict() == result.stats.as_dict()
    assert recovered.trace.validate(reread)


@pytest.mark.parametrize("name", engine_names())
def test_every_engine_verdict_decodes_on_reread_netlist(name):
    netlist = G.fifo_level(2)
    result = _run(name, netlist)
    assert result.status is not Status.FAILED
    reread = _reread(netlist)
    recovered = VerificationResult.from_dict(
        _through_json(result, netlist), reread
    )
    assert recovered.status is result.status
    assert recovered.engine == result.engine
    assert recovered.iterations == result.iterations
    assert recovered.stats.as_dict() == result.stats.as_dict()
    assert (recovered.certificate is None) == (result.certificate is None)
    if recovered.certificate is not None:
        check_certificate(reread, recovered.certificate)
