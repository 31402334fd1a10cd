"""Engine selection and scheduling policies.

A policy turns (netlist, engine list) into a :class:`Plan`: which engines
to run, in what order, raced or one-after-another.  Three policies cover
the useful design points:

* ``race_all`` — run every engine concurrently, first decisive verdict
  wins.  Lowest latency, highest cost; the default.
* ``sequential_fallback`` — cheapest-first, stop at the first decisive
  verdict.  Lowest cost, for throughput-bound batch work.
* ``predict`` — order the engines by a cheap structural prediction of the
  likely winner (latch/input/gate counts from :mod:`repro.aig.analysis`),
  then run sequentially.  The features deliberately cost one cone walk —
  a policy that needs a SAT call to choose a SAT engine has already lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aig.analysis import cone_size_many, level_of
from repro.api.registry import engines_with, get_engine
from repro.circuits.netlist import Netlist
from repro.errors import ReproError

POLICIES = ("race_all", "sequential_fallback", "predict")


def default_engines() -> tuple[str, ...]:
    """Engines a portfolio runs when the caller does not choose.

    Derived from the registry by capability: every non-composite engine
    that is not a variant of another candidate (the
    allsat/hybrid modes ride along with ``reach_aig`` only when asked
    for).  Registration order puts the quick early-exit engines first.
    """
    return tuple(
        spec.name
        for spec in engines_with(composite=False)
        if spec.variant_of is None
    )


@dataclass
class Plan:
    """An ordered engine schedule."""

    methods: list[str]
    parallel: bool
    policy: str
    features: dict[str, float] = field(default_factory=dict)


def circuit_features(netlist: Netlist) -> dict[str, float]:
    """Cheap structural features steering the ``predict`` policy."""
    roots = [
        latch.next_edge
        for latch in netlist.latches
        if latch.next_edge is not None
    ]
    if netlist.has_property:
        roots.append(netlist.property_edge)
    ands = cone_size_many(netlist.aig, roots) if roots else 0
    depth = (
        max(level_of(netlist.aig, edge) for edge in roots) if roots else 0
    )
    return {
        "latches": float(netlist.num_latches),
        "inputs": float(netlist.num_inputs),
        "ands": float(ands),
        "depth": float(depth),
        "constraints": float(len(netlist.constraints)),
    }


def _predict_order(features: dict[str, float], engines: list[str]) -> list[str]:
    """Rank engines for one circuit; lower score runs earlier."""
    latches = features["latches"]
    inputs = features["inputs"]
    ands = features["ands"]
    depth = features["depth"]
    scores = {
        # BDDs shine while the state space is small and die by width.
        "reach_bdd": latches + 0.25 * ands,
        "reach_bdd_fwd": 1.0 + latches + 0.25 * ands,
        # The circuit traversal scales with gate count, not latch count.
        "reach_aig": 2.0 + 0.1 * ands + 0.5 * inputs,
        "reach_aig_fwd": 4.0 + 0.1 * ands + 0.5 * inputs + 0.5 * latches,
        "reach_aig_allsat": 3.0 + 0.1 * ands + 1.5 * inputs,
        "reach_aig_hybrid": 2.5 + 0.1 * ands + 1.0 * inputs,
        # BMC is unbeatable on shallow bugs but proves nothing; induction
        # is two SAT calls when the property is inductive.  Both get a
        # small constant so complete engines win ties on tiny circuits.
        # The latch term prices BMC's gamble: the wider the state space,
        # the less likely the bug is shallow enough for a depth sweep.
        "bmc": 1.5 + 0.05 * ands + 0.04 * latches,
        "k_induction": 1.0 + 0.05 * ands,
        # Interpolation is the deep-PROVED specialist: insensitive to
        # latch count (no canonical state sets), pays per gate in the
        # unrolled CNF, and proof logging taxes wide input cones.
        "itp": 2.5 + 0.05 * ands + 0.3 * inputs,
        # PDR never unrolls, so latch count is free; its single-step
        # queries pay per gate *level* (deep combinational cones make
        # generalization queries slow), which makes it the first pick on
        # wide-but-shallow state machines where itp's unrollings and
        # BMC's depth sweeps both blow up.
        "pdr": 2.0 + 0.25 * depth + 0.02 * ands,
        # Cube-and-conquer earns its fork overhead on wide-input,
        # deep-logic cones (equivalence miters, arithmetic): splitting
        # needs internal gates with large fanout cones to bite on.
        # Latches price the unrolling blowup; many inputs are the
        # signal that cubing will actually shrink the leaves.
        "cnc": 3.0 + 0.02 * ands + 0.15 * depth + 0.3 * latches
        - 0.08 * inputs,
    }
    return sorted(engines, key=lambda m: (scores.get(m, 1e9), m))


def select_plan(
    netlist: Netlist,
    policy: str = "race_all",
    engines: list[str] | tuple[str, ...] | None = None,
) -> Plan:
    """Build the engine schedule one circuit will run under."""
    if policy not in POLICIES:
        raise ReproError(
            f"unknown portfolio policy {policy!r}; choose from {POLICIES}"
        )
    chosen = list(engines) if engines else list(default_engines())
    if not chosen:
        raise ReproError("portfolio needs at least one engine")
    for name in chosen:
        get_engine(name)  # unknown engines fail here, not in a worker
    if policy == "race_all":
        return Plan(methods=chosen, parallel=True, policy=policy)
    if policy == "sequential_fallback":
        # Quick early-exit engines first (capability metadata), then the
        # complete engines in the caller's order.
        front = [m for m in chosen if get_engine(m).quick]
        rest = [m for m in chosen if m not in front]
        return Plan(methods=front + rest, parallel=False, policy=policy)
    features = circuit_features(netlist)
    return Plan(
        methods=_predict_order(features, chosen),
        parallel=False,
        policy=policy,
        features=features,
    )
