"""Persistent verification-result cache keyed by structural hash.

An in-memory LRU map fronts one of two persistence backends, chosen by
the path's suffix:

* ``.jsonl`` (or anything else) — the legacy JSON-lines file:
  append-only, last entry wins on reload.  Appends are crash- and
  concurrency-safe: each record is written with a *single*
  ``os.write`` to an ``O_APPEND`` descriptor under an advisory file
  lock, so parallel writer processes can never interleave mid-line
  (they used to, through buffered ``file.write`` calls).
* ``.sqlite`` / ``.sqlite3`` / ``.db`` — the service store
  (:mod:`repro.svc.store`): WAL-mode SQLite with schema migration, a
  ``namespace`` column for tenant isolation, and certificate blobs
  stored content-addressed alongside the verdicts.  Lookups that miss
  the memory front fall through to an indexed point query, so a
  long-running service is not bounded by its LRU size.

Keys are ``(structural_hash, method, max_depth)`` — the three things a
verdict depends on besides the engine's resource budget.  Records are
the :meth:`VerificationResult.to_dict` payload with the cache key
fields added.  Traces are serialized *positionally* (bit-strings over
the latch and input registration order, the one encoding of
:mod:`repro.mc.result`) rather than by AIG node id, because node ids
are exactly what the structural hash abstracts away: a hit produced by
one manager must decode into a valid trace for a differently-numbered
manager of the same circuit.

UNKNOWN entries are stored too, stamped with the wall-clock budget that
failed to crack them.  They only count as hits for requests with the same
or a smaller budget — a caller offering more time deserves a fresh run.
An entry stamped ``None`` came from an *unbudgeted* run (the engine hit
its depth limit with unlimited time) and answers any budget at that
depth.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import OrderedDict
from typing import Iterable

try:  # advisory locking is POSIX-only; appends stay atomic without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro.circuits.netlist import Netlist
from repro.mc.result import Status, VerificationResult
from repro.portfolio.hashing import structural_hash
from repro.util.stats import StatsBag

CacheKey = tuple[str, str, int]


class _MemoryBackend:
    """No persistence: the LRU front is the whole cache."""

    def load(self, limit: int) -> Iterable[dict]:
        return ()

    def fetch(self, key: CacheKey) -> dict | None:
        return None

    def append(self, key: CacheKey, record: dict) -> None:
        pass


class _JsonlBackend:
    """Append-only JSON-lines file, torn-write-safe.

    Every record is serialized first and written with one ``os.write``
    call on an ``O_APPEND`` descriptor — POSIX guarantees the kernel
    performs the append atomically, so two processes storing at once
    produce two whole lines in *some* order, never a spliced one.  An
    advisory ``flock`` guards the (theoretical) partial-write retry
    path for oversized records.
    """

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path

    def load(self, limit: int) -> Iterable[dict]:
        if not self.path.exists():
            return
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError:
                continue  # a torn/corrupt line loses one entry, not the file

    def fetch(self, key: CacheKey) -> dict | None:
        # Everything was replayed into memory at construction; an entry
        # evicted from the LRU since is gone for this process.
        return None

    def append(self, key: CacheKey, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = (json.dumps(record) + "\n").encode()
        fd = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            view = memoryview(data)
            while view:
                written = os.write(fd, view)
                view = view[written:]
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)


class _StoreBackend:
    """The SQLite service store (:mod:`repro.svc.store`)."""

    def __init__(self, store, namespace: str) -> None:
        self.store = store
        self.namespace = namespace

    def load(self, limit: int) -> Iterable[dict]:
        return self.store.iter_results(self.namespace, limit=limit)

    def fetch(self, key: CacheKey) -> dict | None:
        digest, method, max_depth = key
        return self.store.get_result(
            self.namespace, digest, method, max_depth
        )

    def append(self, key: CacheKey, record: dict) -> None:
        digest, method, max_depth = key
        self.store.put_result(
            self.namespace, digest, method, max_depth, record
        )


def _is_store_path(path: pathlib.Path) -> bool:
    from repro.svc.store import STORE_SUFFIXES

    return path.suffix.lower() in STORE_SUFFIXES


class ResultCache:
    """LRU-fronted persistent memo of verification results.

    ``path=None`` gives a purely in-memory cache; a ``.jsonl`` path
    appends to a JSON-lines file replayed on construction; a
    ``.sqlite``/``.sqlite3``/``.db`` path opens (or creates) a service
    store, with ``namespace`` selecting the tenant partition.  An
    already-open :class:`repro.svc.store.Store` may be passed directly.
    """

    def __init__(
        self,
        path: "str | pathlib.Path | object | None" = None,
        max_memory_entries: int = 4096,
        namespace: str = "",
    ) -> None:
        self.max_memory_entries = max_memory_entries
        self.namespace = namespace
        self._entries: OrderedDict[CacheKey, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.path: pathlib.Path | None = None
        if path is None:
            self._backend: object = _MemoryBackend()
        elif isinstance(path, (str, pathlib.Path)):
            self.path = pathlib.Path(path)
            if _is_store_path(self.path):
                from repro.svc.store import Store

                self._backend = _StoreBackend(Store(self.path), namespace)
            else:
                if namespace:
                    raise ValueError(
                        "namespace isolation needs the SQLite store "
                        "backend; JSON-lines caches are single-tenant"
                    )
                self._backend = _JsonlBackend(self.path)
        else:  # an open Store
            self.path = getattr(path, "path", None)
            self._backend = _StoreBackend(path, namespace)
        self._load()

    def _load(self) -> None:
        for record in self._backend.load(self.max_memory_entries):
            try:
                key = (
                    record["hash"],
                    record["method"],
                    int(record["max_depth"]),
                )
            except (ValueError, KeyError, TypeError):
                continue
            self._remember(key, record)

    def _remember(self, key: CacheKey, record: dict) -> None:
        self._entries[key] = record
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_memory_entries:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #

    def key_for(
        self,
        netlist: Netlist,
        method: str,
        max_depth: int,
        digest: str | None = None,
    ) -> CacheKey:
        """Cache key; pass a precomputed ``digest`` to skip rehashing."""
        if digest is None:
            digest = structural_hash(netlist)
        return (digest, method, int(max_depth))

    def lookup(
        self,
        netlist: Netlist,
        method: str,
        max_depth: int,
        budget: float | None = None,
        digest: str | None = None,
    ) -> VerificationResult | None:
        """A cached result for this problem, or None.

        ``budget`` is the wall-clock the caller is prepared to spend
        (None = unlimited): a stored UNKNOWN stamped with a smaller
        budget does not satisfy it.  A ``None`` stamp means the stored
        run was itself unbudgeted — depth-limited, not time-limited — so
        it answers any budget at the same depth.
        """
        key = self.key_for(netlist, method, max_depth, digest)
        record = self._entries.get(key)
        if record is None:
            # Fall through to the backend: the store answers point
            # queries for entries the LRU never saw (or evicted).
            record = self._backend.fetch(key)
            if record is not None:
                self._remember(key, record)
        if record is None:
            self.misses += 1
            return None
        if record["status"] == Status.UNKNOWN.value:
            stamped = record.get("budget")
            if stamped is not None and (budget is None or stamped < budget):
                self.misses += 1
                return None
        try:
            result = VerificationResult.from_dict(record, netlist)
        except (KeyError, ValueError, TypeError, AttributeError):
            # A record that does not decode for this netlist (corruption,
            # a legacy layout, or a key collision between structurally-
            # equal-modulo-dead-inputs designs) is a miss, not a crash.
            del self._entries[key]
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        result.stats.incr("cache_hit")
        return result

    def store(
        self,
        netlist: Netlist,
        method: str,
        max_depth: int,
        result: VerificationResult,
        budget: float | None = None,
        digest: str | None = None,
    ) -> None:
        key = self.key_for(netlist, method, max_depth, digest)
        record = result.to_dict(netlist)
        record.update(
            {
                "hash": key[0],
                "method": key[1],
                "max_depth": key[2],
                "budget": budget,
            }
        )
        self._remember(key, record)
        self._backend.append(key, record)

    def stats(self) -> StatsBag:
        bag = StatsBag()
        bag.incr("cache_hits", self.hits)
        bag.incr("cache_misses", self.misses)
        bag.set("cache_entries", len(self._entries))
        return bag
