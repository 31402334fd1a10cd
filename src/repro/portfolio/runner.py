"""Per-engine worker processes with budgets, cancellation, containment.

Each engine runs :func:`repro.mc.engine.verify` in its own process, so a
diverging traversal or a crashing solver cannot take the service down
with it.  The parent polls the workers; the first *decisive* verdict —
PROVED, or FAILED with a counterexample that replays on the parent's own
copy of the netlist — wins the race and the losers are terminated.
Timeouts and crashes are mapped to :data:`Status.UNKNOWN` results (with
the failure mode recorded in the stats), never to exceptions: a portfolio
is exactly the place where individual engines are allowed to lose.

The worker pipe carries more than the final verdict.  A worker announces
itself with an ``("event", {...})`` message (kind ``engine_started``),
and — when the parent had :mod:`repro.obs` tracing enabled at launch —
streams its spans and counter samples back as ``("obs", records)``
before the closing ``("ok", result)`` / ``("error", message)``.  The
parent merges those records into its own tracer (workers build theirs on
the parent's epoch, so the timelines line up) and surfaces lifecycle
events through the ``on_event`` callback, which
:class:`repro.api.Session` re-emits as progress events.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.circuits.netlist import Netlist
from repro.mc.result import Status, VerificationResult
from repro.util.stats import StatsBag

_POLL_INTERVAL = 0.01

# Signature of the lifecycle callback: one dict per event, with at least
# ``kind`` ("engine_started" / "engine_finished" / "engine_cancelled"),
# ``engine`` and ``elapsed`` keys.
EventCallback = Callable[[dict], None]


def _context() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def spawn_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every worker pool here uses."""
    return _context()


def parent_obs_config() -> dict | None:
    """The obs hand-off a parent passes to its workers (None = untraced)."""
    tracer = obs.current_tracer() if obs.is_enabled() else None
    if tracer is None:
        return None
    return {"epoch": tracer.epoch, "tick": tracer.tick}


def child_obs_tracer(obs_cfg: dict | None):
    """Set up tracing inside a forked worker.

    A forked worker inherits the parent's enabled flag AND its tracer
    (with everything the parent already recorded); drop that and collect
    into a fresh tracer on the parent's epoch so exported records merge
    into one timeline without duplicating the parent's spans.  Returns
    the fresh tracer, or None when the parent ran untraced.
    """
    if obs_cfg is not None:
        obs.disable()
        return obs.enable(
            obs.Tracer(
                tick=obs_cfg.get("tick", 0.01),
                epoch=obs_cfg.get("epoch"),
            )
        )
    if obs.is_enabled():  # pragma: no cover - fork inherited state
        obs.disable()
    return None


def _worker(
    conn,
    netlist: Netlist,
    method: str,
    max_depth: int,
    options: dict,
    obs_cfg: dict | None = None,
):
    """Engine subprocess body: announce, verify, stream obs, report back."""
    tracer = None
    try:
        from repro.mc.engine import verify

        conn.send(
            (
                "event",
                {
                    "kind": "engine_started",
                    "engine": method,
                    "pid": os.getpid(),
                },
            )
        )
        tracer = child_obs_tracer(obs_cfg)
        result = verify(netlist, method=method, max_depth=max_depth, **options)
        if tracer is not None:
            conn.send(("obs", tracer.export_records()))
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - contained, reported as UNKNOWN
        try:
            if tracer is not None:
                conn.send(("obs", tracer.export_records()))
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


@dataclass
class EngineOutcome:
    """How one engine's run ended, decisive or not."""

    method: str
    result: VerificationResult
    elapsed: float
    timed_out: bool = False
    crashed: bool = False
    cancelled: bool = False

    @property
    def label(self) -> str:
        if self.timed_out:
            return "timeout"
        if self.crashed:
            return "crash"
        if self.cancelled:
            return "cancelled"
        return self.result.status.value


@dataclass
class PortfolioOutcome:
    """The race's verdict plus the full per-engine record."""

    result: VerificationResult
    winner: str | None
    outcomes: list[EngineOutcome] = field(default_factory=list)
    stats: StatsBag = field(default_factory=StatsBag)


class WorkerHandle:
    """One spawned worker process plus its result pipe.

    Shared bookkeeping between the portfolio race and the cube-and-
    conquer pool (:mod:`repro.cnc.conquer`): the worker target receives
    the child end of a one-way pipe as its first argument, followed by
    ``args``, and reports with ``(kind, payload)`` messages.
    """

    __slots__ = ("label", "payload", "process", "conn", "started")

    def __init__(self, ctx, target, args, label, payload=None):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self.label = label
        self.payload = payload
        self.conn = parent_conn
        self.process = ctx.Process(
            target=target, args=(child_conn, *args), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.started = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=1.0)
        self.conn.close()


def _unknown(method: str, note: str, budget: float | None) -> VerificationResult:
    result = VerificationResult(status=Status.UNKNOWN, engine=method)
    result.stats.incr(note)
    if budget is not None:
        result.stats.set("budget_seconds", budget)
    return result


def run_portfolio(
    netlist: Netlist,
    methods: list[str],
    max_depth: int = 100,
    budget: float = 5.0,
    jobs: int | None = None,
    stop_on_decisive: bool = True,
    engine_options: dict | None = None,
    on_event: EventCallback | None = None,
) -> PortfolioOutcome:
    """Race ``methods`` on one netlist under a per-engine budget.

    ``jobs`` caps concurrent workers (default: one per engine, capped by
    CPU count but at least 2 so racing still happens on small machines);
    ``jobs=1`` with an ordered method list is sequential fallback.  The
    first decisive verdict cancels the remaining workers unless
    ``stop_on_decisive`` is false (useful for agreement checking).

    ``on_event`` receives engine lifecycle dicts (``engine_started``
    forwarded from the worker pipe, ``engine_finished`` /
    ``engine_cancelled`` emitted parent-side).  When :mod:`repro.obs`
    tracing is enabled in the calling process, every worker traces on the
    parent's epoch and its spans/samples are merged into the active
    tracer as they stream back.
    """
    if not methods:
        raise ValueError("portfolio needs at least one engine")
    ctx = _context()
    if jobs is None:
        jobs = min(len(methods), max(2, os.cpu_count() or 1))
    jobs = max(1, jobs)
    options = dict(engine_options or {})
    tracer = obs.current_tracer() if obs.is_enabled() else None
    obs_cfg = (
        {"epoch": tracer.epoch, "tick": tracer.tick}
        if tracer is not None
        else None
    )
    pending = list(methods)
    running: list[WorkerHandle] = []
    outcomes: list[EngineOutcome] = []
    winner: str | None = None
    winning: VerificationResult | None = None
    start = time.monotonic()

    def notify(kind: str, method: str, elapsed: float, **extra) -> None:
        if on_event is not None:
            on_event(
                {"kind": kind, "engine": method, "elapsed": elapsed, **extra}
            )

    def finish(run: WorkerHandle, outcome: EngineOutcome) -> None:
        running.remove(run)
        outcomes.append(outcome)
        if outcome.cancelled:
            notify("engine_cancelled", outcome.method, outcome.elapsed)
        else:
            notify(
                "engine_finished",
                outcome.method,
                outcome.elapsed,
                label=outcome.label,
            )

    # With stop_on_decisive=False every engine must run to completion
    # even after a winner lands (agreement checking).
    def launching() -> bool:
        return bool(pending) and (winner is None or not stop_on_decisive)

    def time_out(run: WorkerHandle, elapsed: float) -> None:
        finish(
            run,
            EngineOutcome(
                run.label,
                _unknown(run.label, "timed_out", budget),
                elapsed,
                timed_out=True,
            ),
        )

    while running or launching():
        while launching() and len(running) < jobs:
            method = pending.pop(0)
            running.append(
                WorkerHandle(
                    ctx,
                    _worker,
                    (netlist, method, max_depth, options, obs_cfg),
                    label=method,
                )
            )
        progressed = False
        for run in list(running):
            if run not in running:
                continue  # cancelled earlier in this same sweep
            if run.conn.poll():
                progressed = True
                try:
                    kind, payload = run.conn.recv()
                except (EOFError, OSError):
                    kind, payload = "error", "worker died mid-message"
                if kind == "event":
                    # Lifecycle announcement; the final verdict is still
                    # to come, so the run stays in flight.
                    if on_event is not None:
                        on_event({"elapsed": run.elapsed, **payload})
                    continue
                if kind == "obs":
                    # Worker trace records, stitched into the parent's
                    # timeline (the worker traced on our epoch).
                    if tracer is not None:
                        tracer.merge_records(payload)
                    continue
                elapsed = run.elapsed
                run.kill()
                if elapsed > budget:
                    # Past the deadline: as if it had never arrived.
                    time_out(run, elapsed)
                    continue
                if kind != "ok":
                    result = _unknown(run.label, "engine_crashed", budget)
                    result.stats.set("crash_note", 1)
                    finish(
                        run,
                        EngineOutcome(
                            run.label, result, elapsed, crashed=True
                        ),
                    )
                    continue
                result: VerificationResult = payload
                decisive = result.proved
                if result.failed:
                    # Replay on the parent's own netlist before declaring a
                    # winner: a bogus trace from a broken engine must lose.
                    if result.trace is not None and result.trace.validate(
                        netlist
                    ):
                        decisive = True
                    else:
                        result = _unknown(
                            run.label, "invalid_counterexample", budget
                        )
                finish(run, EngineOutcome(run.label, result, elapsed))
                if decisive and winner is None:
                    winner, winning = run.label, result
                    if stop_on_decisive:
                        for method in pending:
                            outcomes.append(
                                EngineOutcome(
                                    method,
                                    _unknown(method, "cancelled", budget),
                                    0.0,
                                    cancelled=True,
                                )
                            )
                            notify("engine_cancelled", method, 0.0)
                        pending.clear()
                        for loser in list(running):
                            loser.kill()
                            finish(
                                loser,
                                EngineOutcome(
                                    loser.label,
                                    _unknown(
                                        loser.label, "cancelled", budget
                                    ),
                                    loser.elapsed,
                                    cancelled=True,
                                ),
                            )
            elif run.elapsed > budget:
                progressed = True
                run.kill()
                time_out(run, run.elapsed)
            elif not run.process.is_alive():
                progressed = True
                run.kill()
                finish(
                    run,
                    EngineOutcome(
                        run.label,
                        _unknown(run.label, "engine_crashed", budget),
                        run.elapsed,
                        crashed=True,
                    ),
                )
        if not progressed:
            time.sleep(_POLL_INTERVAL)

    stats = StatsBag()
    stats.set("portfolio_wall_seconds", time.monotonic() - start)
    stats.set("portfolio_engines", len(methods))
    for outcome in outcomes:
        stats.incr(f"engine_{outcome.method}_{outcome.label}")
        stats.max("max_engine_seconds", outcome.elapsed)
    if winner is not None:
        stats.incr(f"winner_{winner}")
        result = winning
    else:
        # Nobody decided: surface the most informative UNKNOWN (a real
        # engine UNKNOWN beats a timeout beats a crash).
        result = _unknown("portfolio", "no_decisive_engine", budget)
        for outcome in outcomes:
            if not (outcome.timed_out or outcome.crashed or outcome.cancelled):
                result = outcome.result
                break
        stats.incr("no_winner")
    return PortfolioOutcome(
        result=result, winner=winner, outcomes=outcomes, stats=stats
    )
