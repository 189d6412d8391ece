"""RunLedger: an append-only, durable history of every execution run.

Traces, counters, and supervision records all evaporate when the process
exits; the ledger is the part that survives.  One SQLite row per
``run_shots`` invocation -- run identity (:mod:`repro.obs.runctx`), what
ran (plan key, entry, shots, scheduler, backend), how it behaved
(counters snapshot, supervision state, demotion history, error code),
and how fast it was (wall seconds, shots/sec) -- written atomically at
run end from the :class:`~repro.runtime.schedulers.ShotsResult`.

Design constraints, in order:

* **fail-open** -- a ledger that cannot be written must never break the
  run it was recording.  Every write error is swallowed (surfaced as
  ``ledger.write_error`` counters); a *corrupt* database file is
  detected, quarantined (renamed to ``<name>.corrupt-<millis>``), and a
  fresh ledger takes its place so the very next run records again;
* **schema-versioned** like :class:`~repro.obs.snapshot.BenchSnapshot`
  -- the version lives in SQLite's ``user_version`` pragma; readers and
  writers refuse databases from a *newer* schema rather than misreading
  them (that is a skip, not a quarantine: the file is healthy, just not
  ours);
* **env-fingerprinted** like :class:`~repro.runtime.plancache.PlanCache`
  -- every row embeds the host/interpreter fingerprint so cross-machine
  ledgers stay explainable;
* **append-only** -- rows are inserted, never updated; ``gc`` is the one
  sanctioned deletion path (age-based, for bounded disk use).

Opt-in via ``QirSession(ledger_dir=...)``, the ``QIR_LEDGER`` environment
variable, or ``qir-run --ledger DIR``; the ``qir-ledger`` CLI
(:mod:`repro.tools.qir_ledger`) reads it back.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.observer import as_observer

#: Environment variable naming the ledger directory (empty string disables).
LEDGER_ENV = "QIR_LEDGER"

#: Database file name inside the ledger directory.
LEDGER_FILENAME = "ledger.sqlite3"

#: Bumped on any breaking change to the ``runs`` table.
LEDGER_SCHEMA_VERSION = 1

#: Columns callers may sort by (``qir-ledger top --by ...``); a plain
#: allowlist because column names cannot be SQL-parameterised.
SORTABLE_COLUMNS = (
    "wall_seconds",
    "shots_per_second",
    "shots",
    "successful_shots",
    "failed_shots",
    "retried_shots",
    "redispatches",
    "worker_failures",
    "finished_at",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id            TEXT PRIMARY KEY,
    started_at        REAL NOT NULL,
    finished_at       REAL NOT NULL,
    plan_key          TEXT,
    entry             TEXT,
    scheduler         TEXT NOT NULL,
    backend           TEXT NOT NULL,
    jobs              INTEGER NOT NULL,
    shots             INTEGER NOT NULL,
    successful_shots  INTEGER NOT NULL,
    failed_shots      INTEGER NOT NULL,
    retried_shots     INTEGER NOT NULL,
    used_fast_path    INTEGER NOT NULL,
    degraded          INTEGER NOT NULL,
    wall_seconds      REAL NOT NULL,
    shots_per_second  REAL NOT NULL,
    error_code        TEXT NOT NULL DEFAULT '',
    supervision_state TEXT NOT NULL DEFAULT '',
    redispatches      INTEGER NOT NULL DEFAULT 0,
    worker_failures   INTEGER NOT NULL DEFAULT 0,
    demotions         TEXT NOT NULL DEFAULT '[]',
    counters          TEXT NOT NULL DEFAULT '{}',
    environment       TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_runs_finished ON runs (finished_at);
"""

#: What a damaged database file makes sqlite3 raise: its own errors, and a
#: bare UnicodeDecodeError when a mangled TEXT value is read back.
_DAMAGE = (sqlite3.Error, UnicodeDecodeError)

#: ...plus what decoding a damaged row raises (a missing column is an
#: IndexError; a value of the wrong type a ValueError or OverflowError).
_READ_DAMAGE = _DAMAGE + (IndexError, ValueError, OverflowError)


class LedgerError(Exception):
    """Raised by *read* paths (the CLI) on unusable databases.

    The write path never raises it -- writes are fail-open by design.
    """


def ledger_dir_from_env() -> Optional[str]:
    """The ``QIR_LEDGER`` directory, or ``None`` when unset/empty."""
    value = os.environ.get(LEDGER_ENV, "").strip()
    return os.path.expanduser(value) if value else None


def _environment_fingerprint() -> Dict[str, object]:
    # The bench snapshot module owns the fingerprint shape (the same
    # sharing the plan cache does), so "same environment" means one thing.
    from repro.obs.snapshot import environment_fingerprint

    return dict(environment_fingerprint())


@dataclass
class RunRecord:
    """One ledger row, in Python form."""

    run_id: str
    started_at: float
    finished_at: float
    plan_key: Optional[str] = None
    entry: Optional[str] = None
    scheduler: str = "serial"
    backend: str = "statevector"
    jobs: int = 1
    shots: int = 0
    successful_shots: int = 0
    failed_shots: int = 0
    retried_shots: int = 0
    used_fast_path: bool = False
    degraded: bool = False
    wall_seconds: float = 0.0
    shots_per_second: float = 0.0
    error_code: str = ""
    supervision_state: str = ""
    redispatches: int = 0
    worker_failures: int = 0
    demotions: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    environment: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_result(
        cls,
        context,
        result,
        counters: Optional[Dict[str, float]] = None,
        finished_at: Optional[float] = None,
        error_code: str = "",
    ) -> "RunRecord":
        """Build a row from a RunContext + ShotsResult pair at run end.

        ``started_at`` is reconstructed from the measured wall time so the
        row needs no cooperation from the scheduler's hot path.
        """
        finished = finished_at if finished_at is not None else time.time()
        supervision = getattr(result, "supervision", None)
        return cls(
            run_id=context.run_id,
            started_at=finished - float(result.wall_seconds),
            finished_at=finished,
            plan_key=context.plan_key,
            entry=context.entry,
            scheduler=result.scheduler,
            backend=context.backend,
            jobs=context.jobs,
            shots=result.shots,
            successful_shots=result.successful_shots,
            failed_shots=len(result.failed_shots),
            retried_shots=result.retried_shots,
            used_fast_path=result.used_fast_path,
            degraded=result.degraded,
            wall_seconds=result.wall_seconds,
            shots_per_second=result.shots_per_second,
            error_code=error_code,
            supervision_state=supervision.state if supervision is not None else "",
            redispatches=supervision.redispatches if supervision is not None else 0,
            worker_failures=(
                supervision.worker_failures if supervision is not None else 0
            ),
            demotions=list(result.fallback_history),
            counters=dict(counters or {}),
            environment=_environment_fingerprint(),
        )

    @classmethod
    def from_error(
        cls,
        context,
        error_code: str,
        wall_seconds: float = 0.0,
        counters: Optional[Dict[str, float]] = None,
        finished_at: Optional[float] = None,
    ) -> "RunRecord":
        """A row for a run that raised instead of returning a result."""
        finished = finished_at if finished_at is not None else time.time()
        return cls(
            run_id=context.run_id,
            started_at=finished - wall_seconds,
            finished_at=finished,
            plan_key=context.plan_key,
            entry=context.entry,
            scheduler=context.scheduler,
            backend=context.backend,
            jobs=context.jobs,
            shots=context.shots,
            wall_seconds=wall_seconds,
            error_code=error_code,
            counters=dict(counters or {}),
            environment=_environment_fingerprint(),
        )

    @property
    def flaky(self) -> bool:
        """Did infrastructure wobble under this run (even if it succeeded)?"""
        return bool(
            self.redispatches
            or self.worker_failures
            or self.demotions
            or self.degraded
        )

    def to_row(self) -> tuple:
        return (
            self.run_id,
            self.started_at,
            self.finished_at,
            self.plan_key,
            self.entry,
            self.scheduler,
            self.backend,
            self.jobs,
            self.shots,
            self.successful_shots,
            self.failed_shots,
            self.retried_shots,
            int(self.used_fast_path),
            int(self.degraded),
            self.wall_seconds,
            self.shots_per_second,
            self.error_code,
            self.supervision_state,
            self.redispatches,
            self.worker_failures,
            json.dumps(self.demotions),
            json.dumps(self.counters, sort_keys=True),
            json.dumps(self.environment, sort_keys=True),
        )

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "RunRecord":
        """Decode one row.  A value of the wrong type (a damaged file)
        raises ``ValueError``; the read surfaces report it as
        :class:`LedgerError`."""

        def _typed(key: str, *types):
            value = row[key]
            if not isinstance(value, types):
                raise ValueError(f"ledger column {key} holds {value!r}")
            return value

        def _json(key: str, default):
            try:
                value = json.loads(row[key])
            except (TypeError, ValueError):
                return default
            return value if isinstance(value, type(default)) else default

        return cls(
            run_id=_typed("run_id", str),
            started_at=float(_typed("started_at", int, float)),
            finished_at=float(_typed("finished_at", int, float)),
            plan_key=_typed("plan_key", str, type(None)),
            entry=_typed("entry", str, type(None)),
            scheduler=_typed("scheduler", str),
            backend=_typed("backend", str),
            jobs=int(_typed("jobs", int, float)),
            shots=int(_typed("shots", int, float)),
            successful_shots=int(_typed("successful_shots", int, float)),
            failed_shots=int(_typed("failed_shots", int, float)),
            retried_shots=int(_typed("retried_shots", int, float)),
            used_fast_path=bool(_typed("used_fast_path", int, float)),
            degraded=bool(_typed("degraded", int, float)),
            wall_seconds=float(_typed("wall_seconds", int, float)),
            shots_per_second=float(_typed("shots_per_second", int, float)),
            error_code=_typed("error_code", str),
            supervision_state=_typed("supervision_state", str),
            redispatches=int(_typed("redispatches", int, float)),
            worker_failures=int(_typed("worker_failures", int, float)),
            demotions=_json("demotions", []),
            counters=_json("counters", {}),
            environment=_json("environment", {}),
        )


_INSERT = (
    "INSERT OR REPLACE INTO runs VALUES "
    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)


class RunLedger:
    """The append-only run store under one directory.

    A connection is opened per operation (SQLite's own locking handles
    cross-process writers), so one ledger directory can be shared by
    every process on the machine -- the exact shape the coming execution
    service needs.
    """

    def __init__(self, directory: str, observer=None):
        if not directory:
            raise ValueError("RunLedger needs a directory")
        self.directory = os.path.expanduser(directory)
        self.observer = as_observer(observer)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, LEDGER_FILENAME)

    # -- connection / schema --------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        os.makedirs(self.directory, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=5.0)
        conn.row_factory = sqlite3.Row
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            conn.executescript(_SCHEMA)
            conn.execute(f"PRAGMA user_version = {LEDGER_SCHEMA_VERSION}")
            conn.commit()
        elif version > LEDGER_SCHEMA_VERSION:
            conn.close()
            raise LedgerError(
                f"ledger schema version {version} is newer than supported "
                f"({LEDGER_SCHEMA_VERSION}); upgrade the toolchain"
            )
        # A sanity probe: a truncated or overwritten file can satisfy the
        # pragma yet have a mangled table -- fail here, inside the guarded
        # section, so the caller's quarantine logic sees it.
        try:
            conn.execute("SELECT run_id FROM runs LIMIT 1")
        except _DAMAGE:
            conn.close()
            raise
        return conn

    def quarantine(self) -> Optional[str]:
        """Move a corrupt database aside; returns the new path (or None).

        The renamed file keeps its bytes for post-mortems; the next write
        recreates a fresh, healthy ledger in its place.
        """
        stamp = time.time_ns() // 1_000_000
        target = f"{self.path}.corrupt-{stamp}"
        try:
            os.replace(self.path, target)
        except OSError:
            return None
        if self.observer.enabled:
            self.observer.inc("ledger.quarantined")
        return target

    # -- write (fail-open) ----------------------------------------------------
    def record(self, record: RunRecord) -> bool:
        """Insert one row atomically; never raises.

        Corrupt databases are quarantined and the write retried once on
        the fresh file, so a single bad byte costs one run's history at
        most, never the run itself.  Transient failures (a locked
        database, a full disk) are *not* quarantined -- the file is
        healthy, this write just loses.
        """
        ok, corrupt = self._try_insert(record)
        if ok:
            return True
        if corrupt and os.path.exists(self.path) and self.quarantine() is not None:
            ok, _ = self._try_insert(record)
            return ok
        return False

    @staticmethod
    def _looks_corrupt(error: Exception) -> bool:
        # sqlite reports corruption ("file is not a database", "database
        # disk image is malformed") as a bare DatabaseError; contention
        # and misuse arrive as the OperationalError/ProgrammingError
        # subclasses.  A failed integrity probe (missing runs table on a
        # non-empty file) surfaces as OperationalError "no such table",
        # which *is* an overwritten/foreign file -- quarantine that too,
        # as well as text that no longer decodes.
        if isinstance(error, UnicodeDecodeError):
            return True
        if isinstance(error, sqlite3.DatabaseError) and not isinstance(
            error, (sqlite3.OperationalError, sqlite3.ProgrammingError)
        ):
            return True
        return "no such table" in str(error)

    def _try_insert(self, record: RunRecord) -> "tuple[bool, bool]":
        """Returns ``(written, corruption_suspected)``."""
        try:
            conn = self._connect()
        except (*_DAMAGE, OSError, LedgerError) as error:
            self._note_write_error()
            return False, self._looks_corrupt(error)
        try:
            with conn:
                conn.execute(_INSERT, record.to_row())
        except (*_DAMAGE, OSError) as error:
            self._note_write_error()
            return False, self._looks_corrupt(error)
        finally:
            conn.close()
        if self.observer.enabled:
            self.observer.inc("ledger.writes")
        return True, False

    def _note_write_error(self) -> None:
        if self.observer.enabled:
            self.observer.inc("ledger.write_error")

    # -- read (the CLI surface; raises LedgerError on unusable files) ---------
    @contextmanager
    def _reading(self):
        """A read connection: anything a damaged file raises inside the
        block leaves as :class:`LedgerError`."""
        if not os.path.exists(self.path):
            raise LedgerError(f"no ledger at {self.path}")
        try:
            with closing(self._connect()) as conn:
                yield conn
        except _READ_DAMAGE as error:
            raise LedgerError(f"unreadable ledger {self.path}: {error}") from error

    def _select(self, sql: str, params: tuple) -> List[RunRecord]:
        with self._reading() as conn:
            return [RunRecord.from_row(r) for r in conn.execute(sql, params)]

    def list_runs(self, limit: int = 50) -> List[RunRecord]:
        """Most recent runs first."""
        return self._select(
            "SELECT * FROM runs ORDER BY finished_at DESC, run_id DESC LIMIT ?",
            (limit,),
        )

    def get(self, run_id: str) -> Optional[RunRecord]:
        rows = self._select("SELECT * FROM runs WHERE run_id = ?", (run_id,))
        return rows[0] if rows else None

    def top(self, by: str = "wall_seconds", limit: int = 10) -> List[RunRecord]:
        """Runs ranked by one numeric column, descending."""
        if by not in SORTABLE_COLUMNS:
            raise LedgerError(
                f"cannot sort by {by!r}; choose from {', '.join(SORTABLE_COLUMNS)}"
            )
        return self._select(
            f"SELECT * FROM runs ORDER BY {by} DESC, run_id LIMIT ?", (limit,)
        )

    def flaky(self, limit: int = 50) -> List[RunRecord]:
        """Runs where infrastructure wobbled: redispatches, worker loss,
        demotions, or degraded results -- the ``qir-ledger flaky`` view."""
        return self._select(
            "SELECT * FROM runs WHERE redispatches > 0 "
            "OR worker_failures > 0 OR degraded != 0 OR demotions != '[]' "
            "ORDER BY finished_at DESC LIMIT ?",
            (limit,),
        )

    def gc(self, keep_days: float) -> int:
        """Delete rows older than ``keep_days``; returns the count."""
        if keep_days < 0:
            raise LedgerError("--keep-days must be >= 0")
        cutoff = time.time() - keep_days * 86400.0
        with self._reading() as conn:
            cursor = conn.execute(
                "DELETE FROM runs WHERE finished_at < ?", (cutoff,)
            )
            conn.commit()
        return cursor.rowcount

    def __len__(self) -> int:
        try:
            with self._reading() as conn:
                return conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        except LedgerError:
            return 0
