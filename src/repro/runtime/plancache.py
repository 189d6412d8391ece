"""Persistent, cross-process ExecutionPlan cache (the disk tier).

:class:`~repro.runtime.session.QirSession` already memoises compiled
plans in-process; this module adds the tier below it, so a *fresh
process* -- a restarted server, a scheduler worker pool, a CI step --
reuses compiled artifacts instead of re-running the frontend.  That is
the QAT/Catalyst ahead-of-time model: the compiled program is a durable
artifact, not a per-process accident.

Layout: one file per plan under a cache directory (default
``~/.cache/qir-repro/plans/``, overridable via the ``QIR_PLAN_CACHE``
environment variable or ``QirSession(plan_cache_dir=...)``).  The file
name is a hash of

* the plan key (``source_hash:pipeline:backend:entry``),
* the wire-format version (:data:`~repro.runtime.plan.PLAN_WIRE_VERSION`),
* an **environment fingerprint** (python / implementation / numpy /
  platform / machine),

so an interpreter or numpy upgrade -- anything that could change
compiled behaviour -- silently invalidates every old entry instead of
serving it cross-environment.  Writes are atomic (tmp + ``os.replace``),
corrupt or truncated entries are deleted and treated as misses, and the
directory is bounded by ``max_entries`` with oldest-mtime eviction.
Everything surfaces as ``cache.plan_disk.{hit,miss,evict,corrupt}``
counters on the session's observer.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.observer import as_observer
from repro.runtime.plan import PLAN_WIRE_VERSION, ExecutionPlan, PlanDecodeError

#: Environment variable naming the cache directory (empty string disables).
CACHE_ENV = "QIR_PLAN_CACHE"

#: Default on-disk location when no override is given.
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "qir-repro", "plans")

_SUFFIX = ".plan"


def default_cache_dir() -> str:
    """The resolved default directory: ``$QIR_PLAN_CACHE`` or the home cache."""
    env = os.environ.get(CACHE_ENV, "").strip()
    if env:
        return os.path.expanduser(env)
    return os.path.expanduser(DEFAULT_CACHE_DIR)


def environment_fingerprint() -> Dict[str, object]:
    """The compatibility identity baked into every cache file name.

    Mirrors the qir-bench snapshot fingerprint (python / numpy /
    platform): two processes share cached plans only when they would
    compile them identically.
    """
    # Imported here, not at module top: the bench snapshot module is the
    # canonical owner of the fingerprint shape, and sharing it keeps
    # "same environment" meaning the same thing in both subsystems.
    from repro.obs.snapshot import environment_fingerprint as bench_fingerprint

    fingerprint = dict(bench_fingerprint())
    fingerprint["plan_wire_version"] = PLAN_WIRE_VERSION
    return fingerprint


def environment_tag(fingerprint: Optional[Dict[str, object]] = None) -> str:
    """Short stable digest of the fingerprint (part of each file name)."""
    payload = json.dumps(
        fingerprint if fingerprint is not None else environment_fingerprint(),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of :meth:`PlanCache.verify`."""

    ok: List[str]
    corrupt: List[str]
    deleted: bool

    @property
    def clean(self) -> bool:
        return not self.corrupt


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk plan, as reported by :meth:`PlanCache.entries`."""

    path: str
    key: str
    source_hash: str
    backend: str
    pipeline: Optional[str]
    size_bytes: int
    mtime: float
    #: Whether the entry carries a cached sampling distribution (the
    #: warm-serve tier; ``qir-plan-cache list`` shows this as ``dist``).
    has_distribution: bool = False

    @property
    def short_hash(self) -> str:
        return self.source_hash[:12]


class PlanCache:
    """Content-addressed plan files under one directory.

    Safe for concurrent use across processes: reads tolerate files
    vanishing underneath them, writes go through ``os.replace`` so a
    reader never observes a half-written entry, and two processes
    racing to write the same key simply last-write-wins identical bytes.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        max_entries: int = 256,
        observer=None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.directory = os.path.expanduser(directory) if directory else default_cache_dir()
        self.max_entries = max_entries
        self.observer = as_observer(observer)
        self._env_tag = environment_tag()
        self.stats = {"hits": 0, "misses": 0, "evictions": 0, "corrupt": 0}

    # -- addressing -----------------------------------------------------------
    def path_for(self, key: str) -> str:
        """Where a plan with this key lives (environment-qualified)."""
        digest = hashlib.sha256(
            f"{self._env_tag}|{key}".encode("utf-8")
        ).hexdigest()[:40]
        return os.path.join(self.directory, digest + _SUFFIX)

    # -- read -----------------------------------------------------------------
    def get(self, key: str, verified: bool = False) -> Optional[ExecutionPlan]:
        """Load a plan, or ``None`` on miss.  Corrupt entries are deleted
        and reported as misses -- the caller recompiles, never crashes.
        With ``verified=True`` an entry compiled without verification is a
        miss too; it stays on disk until the verified recompile replaces it."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._miss()
            return None
        try:
            plan = ExecutionPlan.from_bytes(data)
        except PlanDecodeError:
            self._drop_corrupt(path)
            self._miss()
            return None
        if plan.key != key:
            # A (vanishingly unlikely) file-name collision, or a file
            # copied between directories by hand: treat as corrupt.
            self._drop_corrupt(path)
            self._miss()
            return None
        if verified and not plan.verified:
            self._miss()
            return None
        self.stats["hits"] += 1
        if self.observer.enabled:
            self.observer.inc("cache.plan_disk.hit")
        return plan

    def _miss(self) -> None:
        self.stats["misses"] += 1
        if self.observer.enabled:
            self.observer.inc("cache.plan_disk.miss")

    def _drop_corrupt(self, path: str) -> None:
        self.stats["corrupt"] += 1
        if self.observer.enabled:
            self.observer.inc("cache.plan_disk.corrupt")
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- write ----------------------------------------------------------------
    def put(self, key: str, plan: ExecutionPlan) -> Optional[str]:
        """Persist a plan atomically; returns the path (None on IO failure).

        A cache that cannot write must never break execution, so every
        OS-level failure is swallowed -- the next process just recompiles.
        """
        path = self.path_for(key)
        data = plan.to_bytes()
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-", suffix=_SUFFIX, dir=self.directory
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                return None
        except OSError:
            return None
        self._evict_over_capacity(keep=path)
        return path

    def _evict_over_capacity(self, keep: str) -> None:
        """Delete oldest entries beyond ``max_entries`` (never ``keep``)."""
        names = self._entry_names()
        if len(names) <= self.max_entries:
            return
        aged: List[tuple] = []
        for name in names:
            path = os.path.join(self.directory, name)
            try:
                aged.append((os.path.getmtime(path), path))
            except OSError:
                continue
        aged.sort()
        excess = len(aged) - self.max_entries
        for _, path in aged:
            if excess <= 0:
                break
            if path == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            excess -= 1
            self.stats["evictions"] += 1
            if self.observer.enabled:
                self.observer.inc("cache.plan_disk.evict")

    # -- maintenance / inspection ---------------------------------------------
    def entries(self) -> List[CacheEntry]:
        """All readable entries, newest first (the ``qir-plan-cache`` view).

        Unreadable files are skipped, not raised: inspection must work on
        a directory other processes are concurrently mutating.
        """
        out: List[CacheEntry] = []
        for name in self._entry_names():
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
                with open(path, "rb") as handle:
                    payload = json.loads(handle.read().decode("utf-8"))
                out.append(
                    CacheEntry(
                        path=path,
                        key=str(payload.get("key", "?")),
                        source_hash=str(payload.get("source_hash", "?")),
                        backend=str(payload.get("backend", "?")),
                        pipeline=payload.get("pipeline"),
                        size_bytes=stat.st_size,
                        mtime=stat.st_mtime,
                        has_distribution=payload.get("distribution") is not None,
                    )
                )
            except (OSError, ValueError):
                continue
        out.sort(key=lambda e: e.mtime, reverse=True)
        return out

    def verify(self, delete: bool = True) -> "VerifyReport":
        """Decode every cache file end-to-end and report the corrupt ones.

        Deeper than :meth:`entries` (which only needs the JSON envelope):
        each file goes through the full :meth:`ExecutionPlan.from_bytes`
        wire-format decode, including the embedded module re-parse and
        integrity hash, so a bit-flipped payload that still parses as
        JSON is caught too.  With ``delete=True`` (the default, and the
        ``qir-plan-cache list --verify`` behaviour) corrupt files are
        removed so the next ``get`` misses cleanly instead of paying the
        decode-and-drop cost at execution time.
        """
        ok: List[str] = []
        corrupt: List[str] = []
        for name in sorted(self._entry_names()):
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                continue  # vanished underneath us: another process's business
            try:
                ExecutionPlan.from_bytes(data)
            except PlanDecodeError:
                corrupt.append(path)
                if delete:
                    self._drop_corrupt(path)
                else:
                    self.stats["corrupt"] += 1
                    if self.observer.enabled:
                        self.observer.inc("cache.plan_disk.corrupt")
                continue
            ok.append(path)
        return VerifyReport(ok=ok, corrupt=corrupt, deleted=delete)

    def clear(self) -> int:
        """Delete every entry (any environment tag); returns the count."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if not name.endswith(_SUFFIX):
                continue
            try:
                os.unlink(os.path.join(self.directory, name))
                removed += 1
            except OSError:
                continue
        return removed

    def _entry_names(self) -> List[str]:
        """File names of the committed entries (in-flight ``.tmp-`` writes
        excluded); empty when the directory is missing or unreadable."""
        try:
            return [
                n for n in os.listdir(self.directory)
                if n.endswith(_SUFFIX) and not n.startswith(".tmp-")
            ]
        except OSError:
            return []

    def __len__(self) -> int:
        return len(self._entry_names())
