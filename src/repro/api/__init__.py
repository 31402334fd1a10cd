"""The typed verification API: engine registry, tasks, sessions.

This package is the seam every consumer goes through:

* :mod:`repro.api.registry` — :class:`EngineSpec` capability metadata,
  the :func:`register_engine` decorator, and the queries
  (:func:`get_engine`, :func:`engine_names`, :func:`engines_with`) that
  the CLI, the portfolio and the legacy :func:`repro.mc.verify` shim
  all derive from;
* :mod:`repro.api.task` — :class:`VerificationTask`, one problem plus
  its depth / wall-clock / cache budgets;
* :mod:`repro.api.session` — :class:`Session`, which runs tasks and
  batches against one shared structural-hash result cache, emits
  :class:`ProgressEvent`s, and honors cooperative cancellation.

Quick tour::

    from repro.api import Session, VerificationTask

    session = Session(cache="results.jsonl")
    session.on_progress(lambda e: print(e.kind, e.task and e.task.name))
    results = session.verify_many(
        [VerificationTask(n, engine="portfolio", timeout=5.0)
         for n in netlists]
    )

Results, traces and statuses serialize with ``to_dict``/``from_dict``
over the netlist they belong to (see :mod:`repro.mc.result`), so a
service front-end can ship them as JSON verbatim.
"""

from repro.api.registry import (
    EngineSpec,
    engine_names,
    engines_with,
    get_engine,
    iter_engines,
    register_engine,
    unregister_engine,
)
from repro.api.session import ProgressEvent, Session
from repro.api.task import VerificationTask

__all__ = [
    "EngineSpec",
    "ProgressEvent",
    "Session",
    "VerificationTask",
    "engine_names",
    "engines_with",
    "get_engine",
    "iter_engines",
    "register_engine",
    "unregister_engine",
]
