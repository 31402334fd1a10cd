"""Built-in engine registrations and the legacy ``verify`` front-end.

Every engine in the package is described here exactly once, as an
:class:`repro.api.registry.EngineSpec` — name, capability flags, typed
option dataclass, runner.  The portfolio's candidate selection, the CLI
``--method`` choices, and :class:`repro.api.Session` all derive from
these registrations; nothing else hand-maintains an engine list.

``verify(netlist, method=...)`` remains the one-call front door (the
examples, benchmarks, and the portfolio's worker processes use it) and
is now a thin shim over the registry: resolve the spec, normalize the
options, run, replay-validate counterexamples.
"""

from __future__ import annotations

import pathlib

from repro.circuits.netlist import Netlist
from repro.api.registry import get_engine, register_engine
from repro.obs import probes as _obs
from repro.cnc.options import CncOptions
from repro.itp.options import ItpOptions
from repro.mc.bmc import BmcOptions, bmc
from repro.mc.induction import KInductionOptions, k_induction
from repro.mc.reach_aig import BackwardReachability, ReachOptions
from repro.mc.reach_aig_fwd import ForwardReachability, ForwardReachOptions
from repro.mc.reach_bdd import (
    BddReachOptions,
    bdd_backward_reachability,
    bdd_forward_reachability,
)
from repro.mc.result import VerificationResult
from repro.pdr.options import PdrOptions
from repro.portfolio.options import PortfolioOptions


@register_engine(
    name="bmc",
    summary="bounded model checking; unbeatable on shallow bugs, "
    "proves nothing",
    options_class=BmcOptions,
    depth_field="max_depth",
    complete=False,
    quick=True,
    direction="forward",
)
def _run_bmc(netlist: Netlist, options: BmcOptions) -> VerificationResult:
    return bmc(
        netlist,
        max_depth=options.max_depth,
        preimage_folds=options.preimage_folds,
    )


@register_engine(
    name="k_induction",
    summary="temporal induction; two SAT calls when the property is "
    "inductive, complete with unique-states strengthening",
    options_class=KInductionOptions,
    depth_field="max_k",
    quick=True,
    direction="any",
)
def _run_k_induction(
    netlist: Netlist, options: KInductionOptions
) -> VerificationResult:
    return k_induction(
        netlist,
        max_k=options.max_k,
        unique_states=options.unique_states,
        preimage_folds=options.preimage_folds,
    )


@register_engine(
    name="reach_aig",
    summary="the paper's engine: backward AIG traversal with "
    "circuit-based quantification",
    options_class=ReachOptions,
    depth_field="max_iterations",
)
def _run_reach_aig(
    netlist: Netlist, options: ReachOptions
) -> VerificationResult:
    return BackwardReachability(netlist, options, "circuit").run()


@register_engine(
    name="reach_aig_allsat",
    summary="backward AIG traversal, all-SAT pre-image "
    "(Ganai-style enumeration baseline)",
    options_class=ReachOptions,
    depth_field="max_iterations",
    variant_of="reach_aig",
)
def _run_reach_aig_allsat(
    netlist: Netlist, options: ReachOptions
) -> VerificationResult:
    return BackwardReachability(netlist, options, "allsat").run()


@register_engine(
    name="reach_aig_hybrid",
    summary="backward AIG traversal, partial circuit quantification "
    "with all-SAT on the residual (the Section-4 combination)",
    options_class=ReachOptions,
    depth_field="max_iterations",
    variant_of="reach_aig",
)
def _run_reach_aig_hybrid(
    netlist: Netlist, options: ReachOptions
) -> VerificationResult:
    return BackwardReachability(netlist, options, "hybrid").run()


@register_engine(
    name="reach_aig_fwd",
    summary="forward AIG traversal; post-images, hardest "
    "quantification load",
    options_class=ForwardReachOptions,
    depth_field="max_iterations",
    direction="forward",
)
def _run_reach_aig_fwd(
    netlist: Netlist, options: ForwardReachOptions
) -> VerificationResult:
    return ForwardReachability(netlist, options).run()


@register_engine(
    name="reach_bdd",
    summary="backward BDD traversal (the canonical baseline)",
    options_class=BddReachOptions,
    depth_field="max_iterations",
)
def _run_reach_bdd(
    netlist: Netlist, options: BddReachOptions
) -> VerificationResult:
    return bdd_backward_reachability(netlist, options=options)


@register_engine(
    name="reach_bdd_fwd",
    summary="forward BDD traversal with the scheduled partitioned image",
    options_class=BddReachOptions,
    depth_field="max_iterations",
    direction="forward",
)
def _run_reach_bdd_fwd(
    netlist: Netlist, options: BddReachOptions
) -> VerificationResult:
    return bdd_forward_reachability(netlist, options=options)


@register_engine(
    name="itp",
    summary="McMillan interpolation: unbounded proofs from BMC "
    "refutations, no BDDs and no explicit quantification",
    options_class=ItpOptions,
    depth_field="max_depth",
    direction="forward",
)
def _run_itp(netlist: Netlist, options: ItpOptions) -> VerificationResult:
    from repro.itp.engine import interpolation_reachability

    return interpolation_reachability(netlist, options)


@register_engine(
    name="pdr",
    summary="IC3/PDR: incremental frame strengthening with certified "
    "inductive invariants; the deep control-logic specialist",
    options_class=PdrOptions,
    depth_field="max_frames",
    direction="forward",
)
def _run_pdr(netlist: Netlist, options: PdrOptions) -> VerificationResult:
    from repro.pdr.engine import pdr_reachability

    return pdr_reachability(netlist, options)


@register_engine(
    name="cnc",
    summary="cube and conquer: lookahead gate splitting over one deep "
    "unrolling, leaf cubes conquered on a multiprocessing pool",
    options_class=CncOptions,
    depth_field="max_depth",
    complete=False,
    direction="forward",
)
def _run_cnc(netlist: Netlist, options: CncOptions) -> VerificationResult:
    from repro.cnc.engine import cnc_verify

    return cnc_verify(netlist, options)


@register_engine(
    name="portfolio",
    summary="races the other engines; first validated verdict wins",
    options_class=PortfolioOptions,
    depth_field="max_depth",
    direction="any",
    composite=True,
)
def _run_portfolio(
    netlist: Netlist, options: PortfolioOptions
) -> VerificationResult:
    from repro.portfolio.api import portfolio_verify

    return portfolio_verify(
        netlist,
        max_depth=options.max_depth,
        engines=options.engines,
        policy=options.policy,
        budget=options.budget,
        jobs=options.jobs,
        cache=options.cache,
        fraig_preprocess=options.fraig_preprocess,
        stats=options.stats,
        engine_options=options.engine_options,
        on_event=options.on_event,
    )


def verify(
    netlist: Netlist,
    method: str = "reach_aig",
    max_depth: int = 100,
    trace: object = None,
    **options: object,
) -> VerificationResult:
    """Run one verification engine on a netlist.

    ``method`` names any engine in the registry
    (:func:`repro.api.engine_names` enumerates them).  ``max_depth``
    bounds BMC depth / induction k / traversal iterations.  Extra keyword
    options populate the engine's option dataclass (or pass a ready-made
    object as ``options=...``).  Traces of FAILED results are
    replay-validated.  ``method="portfolio"`` races several engines via
    :func:`repro.portfolio.portfolio_verify`.

    ``trace`` turns on the :mod:`repro.obs` instrumentation for the
    duration of the call: pass ``True`` to collect spans/samples into a
    fresh :class:`repro.obs.Tracer` (exposed as ``result.tracer``), a
    ``str``/``Path`` to additionally write a Chrome ``trace_event`` JSON
    file there, or a ready-made ``Tracer`` to record into.  When obs is
    already enabled process-wide the active tracer is reused.  Left at
    ``None`` (the default) the engines run with zero instrumentation
    cost.

    For budgeted, observable, batched runs use
    :class:`repro.api.Session`; this function remains the thin
    single-call path.
    """
    if trace is None or trace is False:
        # Fast path: still wrap in a root span when obs is already on
        # (e.g. inside a portfolio worker forwarding to its parent).
        if not _obs.ENABLED:
            return get_engine(method).verify(
                netlist, max_depth=max_depth, **options
            )
        with _obs.span("mc.verify", "engine", engine=method,
                       netlist=netlist.name):
            return get_engine(method).verify(
                netlist, max_depth=max_depth, **options
            )
    return _verify_traced(netlist, method, max_depth, trace, options)


def _verify_traced(
    netlist: Netlist,
    method: str,
    max_depth: int,
    trace: object,
    options: dict,
) -> VerificationResult:
    from repro import obs

    path: pathlib.Path | None = None
    tracer: obs.Tracer | None = None
    if isinstance(trace, obs.Tracer):
        tracer = trace
    elif isinstance(trace, (str, pathlib.Path)):
        path = pathlib.Path(trace)
    elif trace is not True:
        raise TypeError(
            f"trace must be a Tracer, a path, or True, got {trace!r}"
        )
    was_enabled = obs.is_enabled()
    active = obs.enable(tracer)
    try:
        with active.span("mc.verify", category="engine", engine=method,
                         netlist=netlist.name) as root:
            result = get_engine(method).verify(
                netlist, max_depth=max_depth, **options
            )
            root.set(status=result.status.value,
                     iterations=result.iterations)
    finally:
        if not was_enabled:
            obs.disable()
    if path is not None:
        active.write_chrome_trace(path)
    result.tracer = active
    return result
