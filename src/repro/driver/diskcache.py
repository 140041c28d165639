"""Content-addressed persistent compile cache.

The Session cache (PR 1) is in-memory and per-process: every new process
re-pays compilation even for the schedules autotune, sweeps, and serving
traffic hit over and over.  :class:`DiskCache` is the second cache level —
a directory of entries keyed by the sha256 of everything the compiler
reads (program, schedule, compile flow, hierarchy), each holding a
pickled :class:`~repro.driver.compiled.CompiledProgram` plus its compile
diagnostics and metadata.  A warm cache directory turns a cold process's
compile into a read-and-unpickle.

Safety properties, in decreasing order of importance:

* **Only files this user alone can write are decoded.**  Unpickling an
  entry runs what the file says, so — as with ``__pycache__`` — the trust
  boundary is the directory: a file not owned by the effective uid, or
  writable by group or other, is refused before a byte of it is decoded
  (a miss, counted as ``rejected``, file left alone).

* **Atomic under concurrent writers.**  Entries are written to a temp file
  in the cache directory and ``os.replace``d into place, so a reader never
  observes a half-written entry and two processes racing on the same key
  both leave a valid file (last writer wins; the entries are
  content-identical by construction).
* **Torn/corrupt entries are misses, not crashes.**  Every entry carries a
  magic header and a sha256 digest of its payload; a truncated, corrupted,
  or foreign file fails validation, is deleted, and reads as a miss — the
  caller just recompiles and rewrites it.
* **Bounded.**  ``max_entries``/``max_bytes`` caps are enforced after every
  write by evicting the least-recently-used files (recency = file mtime,
  refreshed on every hit), so a long-lived serve fleet cannot grow the
  directory without bound.
* **Self-disabling when the disk is sick.**  Repeated consecutive ``put``
  failures (ENOSPC, a read-only directory, a vanished mount) trip a
  breaker: the disk level disables itself for the rest of the session —
  no more serialize+write attempts per compile — and reports why via
  ``info().disabled_reason`` (surfaced in ``Session.cache_info()`` and
  the serve front end's ``/v1/stats``).  One successful write resets the
  consecutive count, so a transient hiccup does not trip it.

Both ``get`` and ``put`` are fault-injection sites (``diskcache.get`` /
``diskcache.put`` — see :mod:`repro.reliability`): injected failures are
absorbed exactly like real ones (a failed read is a miss, a failed write
feeds the breaker), which is how the breaker semantics are tested.

Entries are versioned: :data:`ENTRY_MAGIC` changes whenever the serialized
form does, so caches written by an incompatible build read as misses
instead of unpickling garbage.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..reliability import InjectedFault, fault_point

__all__ = [
    "DiskCache",
    "DiskCacheInfo",
    "ENTRY_MAGIC",
    "entry_key",
]

#: File magic + on-disk format version.  Bump when the entry layout or the
#: pickled object graph changes incompatibly.
ENTRY_MAGIC = b"FFDC0003"

_DIGEST_BYTES = 32  # sha256
_SUFFIX = ".ffc"
#: Kernel files written by builds that still generated code.  Nothing reads
#: them any more; every directory scan deletes them.
_STALE_SUFFIX = ".ffk"


def _only_we_can_write(stat: os.stat_result) -> bool:
    """The trust check an entry passes before a byte of it is decoded.

    ``pickle.loads`` runs whatever the file says, so the boundary is who
    can write it: owned by the effective user and not writable by group
    or other.  Platforms without ``os.geteuid`` have no such notion and
    skip the check.
    """
    geteuid = getattr(os, "geteuid", None)
    if geteuid is None:
        return True
    return stat.st_uid == geteuid() and not stat.st_mode & 0o022


def entry_key(*parts: str) -> str:
    """The content-addressed key for one compile: sha256 over its inputs.

    Parameters
    ----------
    *parts:
        Canonical fingerprint strings, typically a Session's
        :meth:`~repro.driver.session.Session.cache_key` plus its
        hierarchy.  Same idiom as
        ``EinsumProgram.fingerprint``: a sha256 over a newline-joined
        textual rendering, so the key depends only on content.
    """
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class DiskCacheInfo:
    """Snapshot of a disk cache's counters and occupancy."""

    hits: int
    misses: int
    writes: int
    corrupt: int
    evictions: int
    entries: int
    total_bytes: int
    put_failures: int = 0
    disabled_reason: Optional[str] = None
    rejected: int = 0

    def __str__(self) -> str:
        text = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.writes} write(s), {self.corrupt} corrupt, "
            f"{self.rejected} rejected, "
            f"{self.evictions} evicted, {self.entries} entr(ies), "
            f"{self.total_bytes} B"
        )
        if self.disabled_reason:
            text += f", DISABLED ({self.disabled_reason})"
        return text


class DiskCache:
    """Content-addressed on-disk cache of compiled programs.

    Parameters
    ----------
    root:
        Cache directory (created if missing).  Multiple processes may
        share one directory; writes are atomic renames.
    max_entries:
        Entry-count cap; least-recently-used entries are evicted past it.
    max_bytes:
        Total-size cap in bytes, enforced the same way.
    put_failure_limit:
        Consecutive-``put``-failure count that trips the breaker and
        disables the disk level for this instance's lifetime (a
        successful write resets the count).

    Raises
    ------
    ValueError
        If either cap or the failure limit is not positive.
    """

    def __init__(
        self,
        root: str,
        max_entries: int = 1024,
        max_bytes: int = 256 * 1024 * 1024,
        put_failure_limit: int = 5,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if put_failure_limit < 1:
            raise ValueError("put_failure_limit must be positive")
        self.root = os.path.abspath(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.put_failure_limit = put_failure_limit
        os.makedirs(self.root, exist_ok=True)
        # Guards the counters; file operations are individually atomic and
        # deliberately run outside any lock (other processes share the
        # directory, so a process-local lock cannot order them anyway).
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0
        self._rejected = 0
        self._evictions = 0
        self._put_failures = 0
        self._consecutive_put_failures = 0
        self._disabled_reason: Optional[str] = None

    @property
    def disabled_reason(self) -> Optional[str]:
        """Why the breaker disabled this cache, or ``None`` while healthy."""
        with self._lock:
            return self._disabled_reason

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> str:
        """Absolute path of the entry file for ``key``."""
        return os.path.join(self.root, key + _SUFFIX)

    # ------------------------------------------------------------------
    # Compile entries
    # ------------------------------------------------------------------
    def get(
        self,
        key: str,
        check: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Load the entry stored under ``key``, or ``None`` on a miss.

        Nothing is decoded before the file passed the trust check (see
        :func:`_only_we_can_write`), carries :data:`ENTRY_MAGIC` and
        matches its own sha256 digest.  An untrusted file is left alone
        and never decoded.  A torn or corrupt entry (bad magic, digest
        mismatch, unpicklable payload, not a dict, or a dict ``check``
        turns down) counts as a miss: the file is removed so the next
        writer replaces it with a whole one, and ``None`` is returned, so
        the caller recompiles instead of crashing.

        Parameters
        ----------
        key:
            The :func:`entry_key` the entry was stored under.
        check:
            Optional shape test the caller applies to the unpickled dict
            (a digest vouches for the bytes, not for what they hold).

        Returns
        -------
        dict or None
            The mapping passed to :meth:`put` (conventionally
            ``{"compiled": ..., "diagnostics": ..., "meta": ...}``).
        """
        entry = self._load(key, check)
        with self._lock:
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
        return entry

    def _load(
        self, key: str, check: Optional[Callable[[Dict[str, Any]], bool]]
    ) -> Optional[Dict[str, Any]]:
        if self.disabled_reason is not None:
            return None
        path = self.path_for(key)
        try:
            fault_point("diskcache.get", key=key)
            with open(path, "rb") as fh:
                if not _only_we_can_write(os.fstat(fh.fileno())):
                    with self._lock:
                        self._rejected += 1
                    return None
                blob = fh.read()
        except (
            FileNotFoundError,
            IsADirectoryError,
            PermissionError,
            InjectedFault,
        ):
            return None
        header = len(ENTRY_MAGIC) + _DIGEST_BYTES
        payload = blob[header:]
        entry = None
        if (
            len(blob) >= header
            and blob.startswith(ENTRY_MAGIC)
            and hashlib.sha256(payload).digest()
            == blob[len(ENTRY_MAGIC) : header]
        ):
            try:
                entry = pickle.loads(payload)
                if not isinstance(entry, dict) or (
                    check is not None and not check(entry)
                ):
                    entry = None
            except Exception:
                entry = None
        if entry is None:
            self._remove(path)
            with self._lock:
                self._corrupt += 1
            return None
        # Refresh recency for LRU eviction.  Best effort: a concurrent
        # eviction may have removed the file already.
        try:
            os.utime(path)
        except OSError:
            pass
        return entry

    def put(self, key: str, entry: Dict[str, Any]) -> bool:
        """Store ``entry`` under ``key`` atomically; returns success.

        The blob (magic, sha256 digest, pickled payload) goes to a temp
        file in the cache directory, is ``fsync``ed and renamed into
        place, so concurrent writers (other threads *and* other processes)
        never produce a torn file — the digest a reader validates always
        covers a complete payload.  Serialization failures are swallowed:
        the disk cache is an accelerator, never a correctness dependency.
        Write failures (real ENOSPC/EROFS or an injected ``diskcache.put``
        fault) feed the consecutive-failure breaker; past
        ``put_failure_limit`` of them in a row the disk level disables
        itself so callers stop paying a doomed serialize+write on every
        compile.
        """
        if self.disabled_reason is not None:
            return False
        try:
            payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        blob = ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
        try:
            fault_point("diskcache.put", key=key)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-" + key[:8] + "-", dir=self.root
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path_for(key))
            except BaseException:
                self._remove(tmp)
                raise
        except (OSError, InjectedFault) as exc:
            self._note_put_failure(exc)
            return False
        with self._lock:
            self._consecutive_put_failures = 0
            self._writes += 1
        self._evict()
        return True

    def _note_put_failure(self, exc: BaseException) -> None:
        """Count one failed write; trip the breaker past the limit."""
        with self._lock:
            self._put_failures += 1
            self._consecutive_put_failures += 1
            if (
                self._disabled_reason is None
                and self._consecutive_put_failures >= self.put_failure_limit
            ):
                self._disabled_reason = (
                    f"disabled after {self._consecutive_put_failures} "
                    f"consecutive write failure(s); last: "
                    f"{type(exc).__name__}: {exc}"
                )

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _files(self) -> List[Tuple[float, int, str]]:
        """(mtime, size, path) for every entry file, oldest first.

        Stale kernel files met on the way are deleted.
        """
        out: List[Tuple[float, int, str]] = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return out
        for name in names:
            if name.endswith(_STALE_SUFFIX):
                self._remove(os.path.join(self.root, name))
                continue
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.root, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # evicted by a concurrent process
            out.append((stat.st_mtime, stat.st_size, path))
        out.sort()
        return out

    def _evict(self) -> None:
        """Drop least-recently-used entries past the caps."""
        files = self._files()
        total = sum(size for _, size, _ in files)
        entries = len(files)
        evicted = 0
        for _, size, path in files:
            if total <= self.max_bytes and entries <= self.max_entries:
                break
            if self._remove(path):
                evicted += 1
            total -= size
            entries -= 1
        if evicted:
            with self._lock:
                self._evictions += evicted

    @staticmethod
    def _remove(path: str) -> bool:
        try:
            os.remove(path)
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def info(self, scan: bool = True) -> DiskCacheInfo:
        """Counters plus current directory occupancy.

        ``scan=False`` skips the directory listing (``entries`` and
        ``total_bytes`` then read 0) for callers that poll the counters per
        request.
        """
        files = self._files() if scan else []
        with self._lock:
            return DiskCacheInfo(
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                corrupt=self._corrupt,
                evictions=self._evictions,
                entries=len(files),
                total_bytes=sum(size for _, size, _ in files),
                put_failures=self._put_failures,
                disabled_reason=self._disabled_reason,
                rejected=self._rejected,
            )

    def clear(self) -> int:
        """Remove every entry file; returns how many were removed."""
        return sum(self._remove(path) for _, _, path in self._files())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DiskCache {self.root!r} ({self.info()})>"
