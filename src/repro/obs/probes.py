"""Low-overhead probe hooks for the hot kernels.

The contract with the instrumented code (the same discipline as the
solver's proof logging): a kernel guards every hook behind the
module-level :data:`ENABLED` flag —

    from repro.obs import probes as _obs
    ...
    if _obs.ENABLED:
        _obs.tick("sat", self)

so the disabled cost is one attribute load and a predicted branch, and
the search trajectory (decisions, conflicts, cache contents) is
bit-identical with instrumentation on or off: probes only *read*
kernel counters, never mutate them.

When enabled, every probe is additionally throttled by the active
tracer's tick (:meth:`repro.obs.trace.Tracer.should_sample`), so even a
solver making hundreds of thousands of propagations per second emits a
bounded sample stream.  :func:`tick` is the one kernel sampler: a table
maps each probe kind to its series and to the reader of their values,
and the reader runs only once the throttle has admitted the sample.

Probe catalogue (all samples land in the tracer's counter series and,
where a :class:`~repro.util.stats.StatsBag` is at hand, in its attached
time-series):

======================  =====================================================
series                  meaning
======================  =====================================================
``sat.conflicts``       cumulative CDCL conflicts of the sampled solver
``sat.propagations``    cumulative unit propagations
``sat.restarts``        cumulative restarts
``sat.learned_db``      live learned-clause database size
``bdd.nodes``           allocated BDD nodes (terminals included)
``bdd.cache_hit_rate``  aggregate apply-cache hit rate (0..1)
``bdd.cache_entries``   live apply-cache entries across operations
``pdr.queue_depth``     proof-obligation queue depth
``pdr.lemmas``          live (non-retired) lemma count
``pdr.frames``          frame count
``itp.interpolant_nodes``  AND nodes of the latest interpolant
``itp.reach_nodes``     AND nodes of the accumulated reached set
``cnc.open_cubes``      cubes still waiting for a verdict
``cnc.solved_cubes``    cubes the conquer stage has finished
``cnc.refuted_cubes``   cubes closed by the lookahead, no solver needed
``cnc.active_workers``  conquer worker processes currently in flight
``svc.queue_depth``     claimable jobs in the service's durable queue
``svc.active_leases``   jobs currently held under a worker lease
``svc.completed_jobs``  jobs this worker has finished since it started
``svc.sse_clients``     live SSE event streams on the HTTP server (sampled
                        by the server on connect/disconnect)
======================  =====================================================
"""

from __future__ import annotations

from repro.obs.trace import NULL_SPAN, Tracer

# Rebound by activate()/deactivate().  Hot code reads the attribute
# through the module (``probes.ENABLED``), so rebinding is visible
# everywhere without any registration machinery.
ENABLED = False
_TRACER: Tracer | None = None


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide probe sink and enable."""
    global ENABLED, _TRACER
    _TRACER = tracer
    ENABLED = True
    return tracer


def deactivate() -> None:
    global ENABLED, _TRACER
    ENABLED = False
    _TRACER = None


def tracer() -> Tracer | None:
    """The active tracer, or ``None`` while disabled."""
    return _TRACER


def span(name: str, category: str = "engine", **attrs: object):
    """A span on the active tracer; a shared no-op when disabled."""
    if _TRACER is None:
        return NULL_SPAN
    return _TRACER.span(name, category, **attrs)


def sample(name: str, value: float, bag=None) -> None:
    """One tick-guarded sample into the tracer (and ``bag``'s series)."""
    t = _TRACER
    if t is None or not t.should_sample(name):
        return
    t.sample(name, value)
    if bag is not None:
        bag.sample(name, value, t=t.now())


# ---------------------------------------------------------------------- #
# Kernel-specific hooks
# ---------------------------------------------------------------------- #


def begin_solve(solver) -> tuple[float, int, int]:
    """Snapshot taken at ``solve()`` entry; paired with :func:`end_solve`."""
    t = _TRACER
    if t is None:
        return (0.0, 0, 0)
    return (t.now(), solver.conflicts, solver.propagations)


def end_solve(solver, snapshot: tuple[float, int, int], result) -> None:
    """Record one ``sat.solve`` span with per-call deltas."""
    t = _TRACER
    if t is None:
        return
    start, conflicts0, propagations0 = snapshot
    t.record_span(
        "sat.solve",
        "sat",
        start,
        t.now(),
        result=getattr(result, "value", str(result)),
        conflicts=solver.conflicts - conflicts0,
        propagations=solver.propagations - propagations0,
    )
    tick("sat", solver)


def _bdd_values(manager) -> tuple[int, float, int]:
    """Node count, cache hit rate and cache entries of a BDD manager.

    Reads the manager's scalar per-operation counters and cache ``len``s
    directly instead of building a :meth:`cache_summary` dict, so a tick
    costs a handful of attribute loads.
    """
    hits = (
        manager._hits_ite + manager._hits_and + manager._hits_or
        + manager._hits_xor + manager._hits_not + manager._hits_exists
        + manager._hits_and_exists
    )
    misses = (
        manager._misses_ite + manager._misses_and + manager._misses_or
        + manager._misses_xor + manager._misses_not
        + manager._misses_exists + manager._misses_and_exists
    )
    lookups = hits + misses
    entries = 0
    for cache in manager._caches.values():
        entries += len(cache)
    return (
        manager.num_nodes, hits / lookups if lookups else 0.0, entries
    )


# kind -> (series names, reader of their values from the tick's source).
# The first series name is the throttle key.
_PROBES = {
    # source: a CDCL solver
    "sat": (
        ("sat.conflicts", "sat.propagations", "sat.restarts",
         "sat.learned_db"),
        lambda solver: (
            solver.conflicts, solver.propagations, solver.restarts,
            len(solver._learnt_ids),
        ),
    ),
    # source: a BddManager
    "bdd": (
        ("bdd.nodes", "bdd.cache_hit_rate", "bdd.cache_entries"),
        _bdd_values,
    ),
    # source: (open cubes, solved cubes, refuted cubes, active workers)
    "cnc": (
        ("cnc.open_cubes", "cnc.solved_cubes", "cnc.refuted_cubes",
         "cnc.active_workers"),
        tuple,
    ),
    # source: a service Worker; its queue is read only when admitted
    "svc": (
        ("svc.queue_depth", "svc.active_leases", "svc.completed_jobs"),
        lambda worker: (
            worker.queue.depth(), worker.queue.active_leases(),
            worker.jobs_completed,
        ),
    ),
    # source: (obligation queue depth, PDR frames)
    "pdr": (
        ("pdr.queue_depth", "pdr.lemmas", "pdr.frames"),
        lambda source: (
            source[0], source[1].lemma_count(), source[1].num_frames
        ),
    ),
}


def tick(kind: str, source, bag=None) -> None:
    """Sample the ``kind`` probe's series from ``source`` (tick-guarded).

    A throttled tick returns before the reader runs, so it reads nothing
    from ``source``.
    """
    t = _TRACER
    if t is None:
        return
    names, read = _PROBES[kind]
    if not t.should_sample(names[0]):
        return
    now = t.now()
    for name, value in zip(names, read(source)):
        t.sample(name, value)
        if bag is not None:
            bag.sample(name, value, t=now)
