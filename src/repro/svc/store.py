"""SQLite-backed keyed store for the verification service.

One file holds everything a long-running service must not lose:

* ``results`` — verification verdicts keyed by
  ``(namespace, structural_hash, method, max_depth)``.  The
  ``namespace`` column is the tenant-isolation axis: two tenants
  submitting the same circuit read and write disjoint rows.  Payloads
  are the :meth:`repro.mc.result.VerificationResult.to_dict` record,
  with the certificate split out;
* ``certificates`` — PROVED-verdict certificate blobs stored
  content-addressed (the id is the SHA-256 of the canonical JSON), so
  identical invariants from different runs share one row and a result
  row only carries the reference;
* ``jobs`` / ``job_events`` — the durable task queue
  (:mod:`repro.svc.queue`) and the per-job progress/observability
  stream;
* ``traces`` — merged :mod:`repro.obs` span/counter records of a
  finished job, stored content-addressed (SHA-256 of the canonical
  JSON document) and referenced from the job row, served by the
  server as Chrome/Perfetto ``trace_event`` JSON.

Concurrency: the database runs in WAL mode with a busy timeout, so any
number of reader processes coexist with one writer at a time; writers
(claim, heartbeat, complete) use short ``BEGIN IMMEDIATE`` transactions.
Connections are per-thread (``sqlite3`` objects are not thread-safe),
handed out by a ``threading.local`` factory.

Schema versioning: every structural change appends a migration to
:data:`MIGRATIONS`; :func:`open_store` applies the pending suffix under
an exclusive transaction and stamps ``PRAGMA user_version``.  Opening a
database written by an older code level upgrades it in place; opening
one written by a *newer* level refuses loudly instead of corrupting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import sqlite3
import threading
import time

from repro.errors import ServiceError
from repro.obs import metrics as _met

# Each entry is one schema level: applied in order, each inside its own
# transaction, with user_version stamped afterwards.  Never edit an
# existing entry — append a new one.
MIGRATIONS: tuple[tuple[str, ...], ...] = (
    # v1 — results + content-addressed certificates + the job table.
    (
        """
        CREATE TABLE results (
            namespace  TEXT    NOT NULL DEFAULT '',
            hash       TEXT    NOT NULL,
            method     TEXT    NOT NULL,
            max_depth  INTEGER NOT NULL,
            budget     REAL,
            status     TEXT    NOT NULL,
            payload    TEXT    NOT NULL,
            cert_id    TEXT,
            created_at REAL    NOT NULL,
            PRIMARY KEY (namespace, hash, method, max_depth)
        )
        """,
        """
        CREATE TABLE certificates (
            cert_id    TEXT PRIMARY KEY,
            kind       TEXT NOT NULL,
            payload    TEXT NOT NULL,
            created_at REAL NOT NULL
        )
        """,
        """
        CREATE TABLE jobs (
            job_id           INTEGER PRIMARY KEY AUTOINCREMENT,
            namespace        TEXT    NOT NULL DEFAULT '',
            name             TEXT,
            netlist          TEXT    NOT NULL,
            fmt              TEXT    NOT NULL DEFAULT 'net',
            method           TEXT    NOT NULL,
            max_depth        INTEGER NOT NULL DEFAULT 100,
            timeout          REAL,
            priority         INTEGER NOT NULL DEFAULT 0,
            state            TEXT    NOT NULL DEFAULT 'queued',
            attempts         INTEGER NOT NULL DEFAULT 0,
            max_attempts     INTEGER NOT NULL DEFAULT 3,
            worker           TEXT,
            lease_expires    REAL,
            cancel_requested INTEGER NOT NULL DEFAULT 0,
            reason           TEXT,
            result           TEXT,
            submitted_at     REAL    NOT NULL,
            started_at       REAL,
            finished_at      REAL
        )
        """,
    ),
    # v2 — the per-job event stream (progress + obs records) and the
    # dequeue index the claim query scans.
    (
        """
        CREATE TABLE job_events (
            job_id  INTEGER NOT NULL,
            seq     INTEGER NOT NULL,
            t       REAL    NOT NULL,
            kind    TEXT    NOT NULL,
            payload TEXT,
            PRIMARY KEY (job_id, seq)
        )
        """,
        """
        CREATE INDEX idx_jobs_claim
            ON jobs (state, priority DESC, job_id ASC)
        """,
    ),
    # v3 — persisted per-job obs traces (content-addressed, like
    # certificates) plus the trace reference and terminal verdict on
    # the job row, so win-count metrics are pure SQL.
    (
        """
        CREATE TABLE traces (
            trace_id   TEXT PRIMARY KEY,
            payload    TEXT NOT NULL,
            created_at REAL NOT NULL
        )
        """,
        "ALTER TABLE jobs ADD COLUMN trace_id TEXT",
        "ALTER TABLE jobs ADD COLUMN verdict TEXT",
    ),
)

SCHEMA_VERSION = len(MIGRATIONS)

# Suffixes the ResultCache path-dispatch treats as "this is a store".
STORE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def certificate_id(payload: dict) -> str:
    """Content address of a certificate payload (canonical-JSON SHA-256)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class Store:
    """One service database: results, certificates, jobs, events.

    ``path`` is a filesystem path (created on first open).  All methods
    are safe to call from any thread and from multiple processes
    sharing the file; each thread gets its own connection.
    """

    def __init__(
        self, path: str | pathlib.Path, busy_timeout: float = 5.0
    ) -> None:
        self.path = pathlib.Path(path)
        self.busy_timeout = busy_timeout
        self._local = threading.local()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._migrate()

    # ------------------------------------------------------------------ #
    # Connections and schema
    # ------------------------------------------------------------------ #

    def _connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                str(self.path),
                timeout=self.busy_timeout,
                isolation_level=None,  # explicit transactions only
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(
                f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}"
            )
            conn.execute("PRAGMA synchronous=NORMAL")
            self._local.conn = conn
        return conn

    @contextlib.contextmanager
    def transaction(self):
        """A short write transaction (``BEGIN IMMEDIATE`` … commit).

        IMMEDIATE takes the write lock up front, so a claim/complete
        either sees a consistent snapshot it may write to, or blocks in
        the busy handler — never a mid-transaction upgrade deadlock.
        """
        conn = self._connection()
        metered = _met.ENABLED
        if metered:
            t0 = time.perf_counter()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        if metered:
            _met.STORE_TXN_SECONDS.observe(time.perf_counter() - t0)

    def _migrate(self) -> None:
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version > SCHEMA_VERSION:
                raise ServiceError(
                    f"store {self.path} has schema v{version}, newer than "
                    f"this code's v{SCHEMA_VERSION}; refusing to touch it"
                )
            for level in range(version, SCHEMA_VERSION):
                for statement in MIGRATIONS[level]:
                    conn.execute(statement)
            # PRAGMA cannot be parameterized; SCHEMA_VERSION is a literal.
            conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    @property
    def schema_version(self) -> int:
        return self._connection().execute("PRAGMA user_version").fetchone()[0]

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def now(self) -> float:
        return time.time()

    # ------------------------------------------------------------------ #
    # Results (the keyed result store behind ResultCache)
    # ------------------------------------------------------------------ #

    def put_result(
        self,
        namespace: str,
        digest: str,
        method: str,
        max_depth: int,
        record: dict,
    ) -> None:
        """Upsert one result record; the certificate blob (if any) is
        detached and stored content-addressed."""
        payload = dict(record)
        cert_id = None
        certificate = payload.pop("certificate", None)
        if certificate is not None:
            cert_id = self.put_certificate(certificate)
        with self.transaction() as conn:
            conn.execute(
                """
                INSERT INTO results (namespace, hash, method, max_depth,
                                     budget, status, payload, cert_id,
                                     created_at)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (namespace, hash, method, max_depth)
                DO UPDATE SET budget=excluded.budget,
                              status=excluded.status,
                              payload=excluded.payload,
                              cert_id=excluded.cert_id,
                              created_at=excluded.created_at
                """,
                (
                    namespace,
                    digest,
                    method,
                    int(max_depth),
                    payload.get("budget"),
                    str(payload.get("status", "")),
                    json.dumps(payload),
                    cert_id,
                    self.now(),
                ),
            )
        if _met.ENABLED:
            _met.RESULTS_STORED.inc()

    def get_result(
        self, namespace: str, digest: str, method: str, max_depth: int
    ) -> dict | None:
        """The stored record for a key, certificate re-attached."""
        row = self._connection().execute(
            """
            SELECT payload, cert_id FROM results
            WHERE namespace=? AND hash=? AND method=? AND max_depth=?
            """,
            (namespace, digest, method, int(max_depth)),
        ).fetchone()
        if row is None:
            return None
        record = json.loads(row["payload"])
        record["certificate"] = (
            self.get_certificate(row["cert_id"])
            if row["cert_id"] is not None
            else None
        )
        return record

    def iter_results(self, namespace: str, limit: int | None = None):
        """Newest ``limit`` records of a namespace, oldest first (so a
        replay into an LRU map leaves the newest at the hot end)."""
        sql = (
            "SELECT payload, cert_id FROM results WHERE namespace=? "
            "ORDER BY created_at DESC"
        )
        args: tuple = (namespace,)
        if limit is not None:
            sql += " LIMIT ?"
            args = (namespace, int(limit))
        rows = self._connection().execute(sql, args).fetchall()
        for row in reversed(rows):
            record = json.loads(row["payload"])
            record["certificate"] = (
                self.get_certificate(row["cert_id"])
                if row["cert_id"] is not None
                else None
            )
            yield record

    def count_results(self, namespace: str | None = None) -> int:
        conn = self._connection()
        if namespace is None:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        return conn.execute(
            "SELECT COUNT(*) FROM results WHERE namespace=?", (namespace,)
        ).fetchone()[0]

    # ------------------------------------------------------------------ #
    # Certificates (content-addressed)
    # ------------------------------------------------------------------ #

    def put_certificate(self, payload: dict, kind: str = "invariant") -> str:
        cert_id = certificate_id(payload)
        with self.transaction() as conn:
            conn.execute(
                """
                INSERT INTO certificates (cert_id, kind, payload, created_at)
                VALUES (?, ?, ?, ?)
                ON CONFLICT (cert_id) DO NOTHING
                """,
                (cert_id, kind, json.dumps(payload), self.now()),
            )
        if _met.ENABLED:
            _met.CERTIFICATES_STORED.inc()
        return cert_id

    def get_certificate(self, cert_id: str) -> dict | None:
        row = self._connection().execute(
            "SELECT payload FROM certificates WHERE cert_id=?", (cert_id,)
        ).fetchone()
        return json.loads(row["payload"]) if row is not None else None

    def count_certificates(self) -> int:
        return self._connection().execute(
            "SELECT COUNT(*) FROM certificates"
        ).fetchone()[0]

    # ------------------------------------------------------------------ #
    # Traces (content-addressed per-job obs records)
    # ------------------------------------------------------------------ #

    def put_trace(self, records: list[dict], wall_epoch: float) -> str:
        """Store one job's merged obs records; returns the content
        address.  Identical traces (e.g. a deterministic replay) share
        one row, exactly like certificates."""
        doc = {
            "schema": "repro.obs/1",
            "wall_epoch": wall_epoch,
            "records": records,
        }
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        trace_id = hashlib.sha256(canonical.encode()).hexdigest()
        with self.transaction() as conn:
            conn.execute(
                """
                INSERT INTO traces (trace_id, payload, created_at)
                VALUES (?, ?, ?)
                ON CONFLICT (trace_id) DO NOTHING
                """,
                (trace_id, canonical, self.now()),
            )
        if _met.ENABLED:
            _met.TRACES_STORED.inc()
        return trace_id

    def get_trace(self, trace_id: str) -> dict | None:
        row = self._connection().execute(
            "SELECT payload FROM traces WHERE trace_id=?", (trace_id,)
        ).fetchone()
        return json.loads(row["payload"]) if row is not None else None

    def count_traces(self) -> int:
        return self._connection().execute(
            "SELECT COUNT(*) FROM traces"
        ).fetchone()[0]


def open_store(path: str | pathlib.Path) -> Store:
    """Open (creating/migrating as needed) the store at ``path``."""
    return Store(path)
