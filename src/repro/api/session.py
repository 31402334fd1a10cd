"""Sessions: run verification tasks with caching, events, cancellation.

A :class:`Session` is the long-lived object a service (or a script, or
the CLI) verifies through.  It owns one structural-hash
:class:`~repro.portfolio.cache.ResultCache` shared by every task it
runs, emits :class:`ProgressEvent`s so callers can observe a batch
without polling, and supports cooperative cancellation: any progress
callback (or another thread) may call :meth:`Session.cancel`, after
which remaining tasks complete immediately as UNKNOWN instead of
running their engines.

Wall-clock budgets are real: a task with ``timeout=`` runs its engine in
a worker process (via :mod:`repro.portfolio.runner`) that is terminated
at the deadline, so a diverging traversal cannot wedge the session.
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.api.task import VerificationTask
from repro.circuits.netlist import Netlist
from repro.mc.result import Status, VerificationResult
from repro.portfolio.cache import ResultCache
from repro.portfolio.hashing import structural_hash
from repro.util.stats import StatsBag

ProgressCallback = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One observation of a session's progress.

    ``kind`` is ``batch_started``, ``task_started``, ``task_finished``,
    ``task_cancelled`` or ``batch_finished``.  ``index``/``total`` place
    the task in its batch (single runs are a batch of one).  Finished
    events carry the result — its ``stats`` bag holds the engine's
    frontier/iteration/cache numbers — and ``cached`` says whether it
    was served from the session's result cache without running an
    engine.  Batch events carry the session's aggregate ``stats``.

    Tasks that run engines in worker processes (budgeted tasks, and the
    ``portfolio`` composite) additionally emit ``engine_started``,
    ``engine_finished`` and ``engine_cancelled`` events, forwarded from
    the runner pipe, with ``engine`` naming the worker's engine.
    """

    kind: str
    index: int
    total: int
    task: VerificationTask | None = None
    result: VerificationResult | None = None
    elapsed: float = 0.0
    cached: bool = False
    stats: StatsBag | None = None
    engine: str | None = None


class Session:
    """Runs :class:`VerificationTask`s against one shared result cache.

    * ``cache`` — a :class:`ResultCache`, a path to a JSON-lines cache
      file, or None for a fresh in-memory cache; every task this session
      runs shares it, keyed by structural hash.
    * ``max_cache_entries`` — LRU bound of the in-memory cache front.
    * ``on_progress`` — a callback receiving every
      :class:`ProgressEvent`; more can be passed per ``verify_many``
      call.
    * ``cancel_poll`` — an optional zero-argument callable polled at
      task boundaries and on every forwarded engine lifecycle event
      (i.e. between engine races); returning True cancels the session.
      This is how wire-level cancellation reaches a running session: a
      service worker (:mod:`repro.svc.worker`) passes a poll of its
      job record's cancel flag.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | str | pathlib.Path | None = None,
        max_cache_entries: int = 4096,
        on_progress: ProgressCallback | None = None,
        stats: StatsBag | None = None,
        cancel_poll: Callable[[], bool] | None = None,
    ) -> None:
        if isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(
                cache, max_memory_entries=max_cache_entries
            )
        self.stats = stats if stats is not None else StatsBag()
        self._callbacks: list[ProgressCallback] = (
            [on_progress] if on_progress is not None else []
        )
        self._cancelled = threading.Event()
        self._cancel_poll = cancel_poll

    # ------------------------------------------------------------------ #
    # Cancellation and events
    # ------------------------------------------------------------------ #

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def cancel(self) -> None:
        """Cooperatively cancel: tasks not yet started return UNKNOWN."""
        self._cancelled.set()

    def reset(self) -> None:
        """Clear the cancellation flag so the session can run again."""
        self._cancelled.clear()

    def _poll_cancel(self) -> None:
        """Check the external cancellation source, if one is wired."""
        if (
            self._cancel_poll is not None
            and not self._cancelled.is_set()
            and self._cancel_poll()
        ):
            self._cancelled.set()

    def on_progress(self, callback: ProgressCallback) -> ProgressCallback:
        """Subscribe a callback to every future event (decorator-friendly)."""
        self._callbacks.append(callback)
        return callback

    def _emit(
        self, event: ProgressEvent, extra: Sequence[ProgressCallback] = ()
    ) -> None:
        for callback in (*self._callbacks, *extra):
            callback(event)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def verify(
        self, netlist: Netlist, engine: str = "reach_aig", **task_fields
    ) -> VerificationResult:
        """Convenience: build a task for one netlist and run it."""
        return self.run(VerificationTask(netlist, engine=engine, **task_fields))

    def run(
        self,
        task: VerificationTask,
        *,
        _index: int = 0,
        _total: int = 1,
        _extra: Sequence[ProgressCallback] = (),
    ) -> VerificationResult:
        """Run one task: cache lookup, budgeted engine run, cache store."""
        spec = task.spec()  # resolve early: unknown engines fail loudly
        self._poll_cancel()
        if self.cancelled:
            result = self._cancelled_result(task)
            self._emit(
                ProgressEvent(
                    "task_cancelled", _index, _total, task=task, result=result
                ),
                _extra,
            )
            return result
        self._emit(
            ProgressEvent("task_started", _index, _total, task=task), _extra
        )
        start = time.monotonic()
        self.stats.incr("tasks")
        cached = None
        if not spec.composite:
            # Composite engines memoize per-engine themselves; a lookup
            # under the composite name could never hit.
            digest = structural_hash(task.netlist)
            cached = self.cache.lookup(
                task.netlist,
                task.engine,
                task.max_depth,
                budget=task.timeout,
                digest=digest,
            )
        if cached is not None:
            self.stats.incr("session_cache_hits")
            result = cached
        else:
            if not spec.composite:
                self.stats.incr("session_cache_misses")

            def forward(event: dict) -> None:
                # Engine lifecycle dicts from the worker runner, re-shaped
                # as progress events against this task.  Engine
                # boundaries are also where an external cancellation
                # source gets its say (the flag takes effect before the
                # next task starts).
                self._poll_cancel()
                self._emit(
                    ProgressEvent(
                        str(event.get("kind", "engine_event")),
                        _index,
                        _total,
                        task=task,
                        elapsed=float(event.get("elapsed", 0.0)),
                        engine=event.get("engine"),
                    ),
                    _extra,
                )

            result, memoize = self._run_engine(spec, task, forward)
            if memoize:
                self.cache.store(
                    task.netlist,
                    task.engine,
                    task.max_depth,
                    result,
                    budget=task.timeout,
                    digest=digest,
                )
        self.stats.incr(f"status_{result.status.value}")
        self._emit(
            ProgressEvent(
                "task_finished",
                _index,
                _total,
                task=task,
                result=result,
                elapsed=time.monotonic() - start,
                cached=cached is not None,
            ),
            _extra,
        )
        return result

    def _run_engine(
        self, spec, task: VerificationTask, on_event=None
    ) -> tuple[VerificationResult, bool]:
        """Run the engine; returns (result, safe-to-memoize)."""
        options = dict(task.options)
        if spec.composite:
            # Composite engines budget their own workers: the task's
            # wall-clock becomes their per-engine budget (unless the
            # caller configured one explicitly), and they share this
            # session's cache unless the caller chose one.
            options = self._share_cache(spec, options)
            options = self._wire_events(spec, options, on_event)
            if (
                task.timeout is not None
                and "options" not in options
                and spec.options_class is not None
                and any(
                    f.name == "budget"
                    for f in dataclasses.fields(spec.options_class)
                )
            ):
                options.setdefault("budget", task.timeout)
            return (
                spec.verify(task.netlist, max_depth=task.max_depth, **options),
                False,  # the portfolio memoizes per-engine itself
            )
        if task.timeout is None:
            return (
                spec.verify(task.netlist, max_depth=task.max_depth, **options),
                True,
            )
        # Wall-clock enforcement needs process isolation.
        from repro.portfolio.runner import run_portfolio

        outcome = run_portfolio(
            task.netlist,
            [task.engine],
            max_depth=task.max_depth,
            budget=task.timeout,
            jobs=1,
            engine_options=options,
            on_event=on_event,
        )
        (engine_outcome,) = outcome.outcomes
        result = engine_outcome.result
        result.stats.set(
            "wall_seconds", outcome.stats.get("portfolio_wall_seconds")
        )
        # Crashes may be environmental; don't memoize them.  Timeouts are
        # budget-stamped UNKNOWNs and are worth remembering.
        return result, not engine_outcome.crashed

    def _share_cache(self, spec, options: dict) -> dict:
        """Hand this session's result cache to a composite engine.

        Works for both option styles: a loose ``cache=`` keyword, or a
        ``cache`` field on a caller-supplied ready-made options object.
        Engines whose option dataclass has no ``cache`` field are left
        alone.
        """
        options_class = spec.options_class
        if options_class is None or not any(
            f.name == "cache" for f in dataclasses.fields(options_class)
        ):
            return options
        provided = options.get("options")
        if provided is not None:
            if getattr(provided, "cache", None) is None:
                options["options"] = dataclasses.replace(
                    provided, cache=self.cache
                )
            return options
        options.setdefault("cache", self.cache)
        return options

    @staticmethod
    def _wire_events(spec, options: dict, on_event) -> dict:
        """Thread the session's engine-event forwarder into a composite
        engine's options (same two option styles as :meth:`_share_cache`;
        an explicit caller-supplied callback is left in place)."""
        if on_event is None:
            return options
        options_class = spec.options_class
        if options_class is None or not any(
            f.name == "on_event" for f in dataclasses.fields(options_class)
        ):
            return options
        provided = options.get("options")
        if provided is not None:
            if getattr(provided, "on_event", None) is None:
                options["options"] = dataclasses.replace(
                    provided, on_event=on_event
                )
            return options
        options.setdefault("on_event", on_event)
        return options

    @staticmethod
    def _cancelled_result(task: VerificationTask) -> VerificationResult:
        result = VerificationResult(status=Status.UNKNOWN, engine=task.engine)
        result.stats.incr("session_cancelled")
        return result

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #

    def verify_many(
        self,
        items: Iterable[VerificationTask | Netlist],
        *,
        engine: str = "reach_aig",
        max_depth: int = 100,
        timeout: float | None = None,
        on_progress: ProgressCallback | None = None,
    ) -> list[VerificationResult]:
        """Run a batch of tasks sharing this session's cache.

        ``items`` may mix ready-made tasks and bare netlists; bare
        netlists get the ``engine``/``max_depth``/``timeout`` defaults.
        Every task emits progress events; cancelling the session from a
        callback (or another thread) finishes the batch immediately —
        remaining tasks return UNKNOWN results marked
        ``session_cancelled`` without running their engines.  Returns
        one result per item, in order.
        """
        tasks = [
            item
            if isinstance(item, VerificationTask)
            else VerificationTask(
                item, engine=engine, max_depth=max_depth, timeout=timeout
            )
            for item in items
        ]
        extra = (on_progress,) if on_progress is not None else ()
        total = len(tasks)
        self._emit(
            ProgressEvent("batch_started", 0, total, stats=self.stats), extra
        )
        results = [
            self.run(task, _index=index, _total=total, _extra=extra)
            for index, task in enumerate(tasks)
        ]
        self._emit(
            ProgressEvent(
                "batch_finished", total, total, stats=self.stats
            ),
            extra,
        )
        return results
