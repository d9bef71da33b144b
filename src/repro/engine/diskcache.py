"""Persistent on-disk tier of the description cache.

The paper ships a pre-translated low-level description precisely so the
compiler loads it quickly instead of re-deriving it per invocation
(section 4, figure 1).  This module is that idea applied to our own
toolchain: compiled descriptions are written to a cache directory as
LMDES JSON artifacts (:mod:`repro.lowlevel.serialize`), keyed by a
*content hash* of the machine description plus every knob that affects
the compiled form -- representation, transformation stage, bit-vector
packing, Eichenberger reduction, and :data:`LMDES_VERSION`.  Warm
processes ``load_lmdes`` instead of re-running the HMDES parser and the
transformation pipeline, which is what makes a fresh CLI run or server
process cheap to start, and lets several server processes share one
cache directory.

Robustness rules:

* **Content keys, not identities.**  ``id(machine)`` means nothing in
  another process; the key hashes the HMDES source text (plus the
  machine name and AND-wrap flag), so any process that builds the same
  description finds the same entry.  Ad-hoc machines without an
  ``hmdes_source`` get a process-local token and are never persisted.
* **Atomic writes.**  Entries are written to a temporary file in the
  cache directory and published with ``os.replace``, so concurrent
  writers race benignly: readers only ever observe a complete artifact.
* **Quarantine, never crash.**  A truncated, corrupted, or
  version-mismatched entry is renamed aside (``<entry>.bad``) and
  reported as a miss; the caller rebuilds and re-publishes it.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro import obs
from repro.errors import CacheCorruptionError, MdesError
from repro.lowlevel.compiled import CompiledMdes
from repro.lowlevel.serialize import LMDES_VERSION, load_lmdes, save_lmdes

logger = logging.getLogger("repro.engine.diskcache")

#: Token prefix for machines whose description text could be hashed.
_HASHED = "sha256:"

#: OS errors that describe a *transient* read condition -- interrupted
#: IO, a busy or momentarily stale file (network filesystems), an IO
#: hiccup -- as opposed to "the entry is not there" (ENOENT) or a
#: configuration problem (EACCES), which retrying cannot fix.
_RETRYABLE_ERRNOS = frozenset(
    code for code in (
        errno.EAGAIN, errno.EBUSY, errno.EINTR, errno.EIO,
        errno.ETIMEDOUT, getattr(errno, "ESTALE", None),
        getattr(errno, "EDEADLK", None),
    )
    if code is not None
)

#: Bounded re-reads of one entry before it is reported as a miss.
READ_ATTEMPTS = 3

#: Pause between transient-read retries, in seconds.
_READ_RETRY_SLEEP = 0.01


def is_retryable_read_error(error: OSError) -> bool:
    """Whether an entry read failed transiently (re-read may succeed).

    ``FileNotFoundError`` is a plain miss and permission errors are
    configuration problems; everything else is judged by errno against
    the transient set, defaulting to *not* retryable so unknown
    conditions fail fast into the rebuild path.
    """
    if isinstance(error, FileNotFoundError):
        return False
    if isinstance(error, PermissionError):
        return False
    return error.errno in _RETRYABLE_ERRNOS


def machine_content_token(machine) -> str:
    """A stable content identity for a machine description.

    Hashes the HMDES source text plus the name and the AND-wrap flag
    (both change what ``build_or``/``build_andor`` produce).  Objects
    without an ``hmdes_source`` string -- ad-hoc test doubles -- get an
    identity-based token, so they never alias a real machine and are
    never written to disk.
    """
    source = getattr(machine, "hmdes_source", None)
    if not isinstance(source, str) or not source:
        return f"unhashed:{id(machine):x}"
    digest = hashlib.sha256()
    digest.update(
        f"{machine.name}|{bool(getattr(machine, 'wrap_or_trees', False))}|"
        .encode()
    )
    digest.update(source.encode())
    return _HASHED + digest.hexdigest()


def is_persistent_token(token: str) -> bool:
    """Whether a content token may key an on-disk entry."""
    return token.startswith(_HASHED)


def description_digest(
    token: str, rep: str, stage: int, bitvector: bool, reduce: bool
) -> str:
    """The on-disk cache key for one compiled-description configuration.

    Folds in :data:`LMDES_VERSION` so a format bump invalidates every
    old entry by construction (stale files are simply never looked up
    again, and a hand-edited version field is caught at load time).
    """
    payload = "|".join(
        (
            token,
            rep,
            str(stage),
            str(int(bitvector)),
            str(int(reduce)),
            f"lmdes-v{LMDES_VERSION}",
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class DiskDescriptionCache:
    """LMDES artifacts under one directory, one file per configuration.

    The cache is a dumb file store by design: all structure lives in the
    key digest and the LMDES format itself.  Pass a
    :class:`~repro.engine.cache.CacheStats` to :meth:`load` and
    :meth:`store` to have the disk-tier counters accounted.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, machine_name: str, digest: str) -> Path:
        """Where one configuration's artifact lives."""
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", machine_name) or "mdes"
        return self.directory / f"{safe}-{digest[:32]}.lmdes.json"

    # ------------------------------------------------------------------
    # Entry IO
    # ------------------------------------------------------------------

    def _read_entry(self, path: Path) -> Optional[str]:
        """Read one entry with transient-error classification.

        ``None`` means a plain miss.  Reads failing with a retryable
        errno (:func:`is_retryable_read_error`) are re-attempted up to
        :data:`READ_ATTEMPTS` times before being reported as a miss;
        non-retryable errors give up immediately.
        """
        for attempt in range(READ_ATTEMPTS):
            try:
                return path.read_text()
            except FileNotFoundError:
                return None
            except OSError as exc:
                if not is_retryable_read_error(exc):
                    logger.warning(
                        "non-retryable read error on disk-cache entry "
                        "%s: %s", path, exc,
                    )
                    return None
                if attempt + 1 >= READ_ATTEMPTS:
                    logger.warning(
                        "giving up on disk-cache entry %s after %d "
                        "transient read error(s): %s",
                        path, READ_ATTEMPTS, exc,
                    )
                    return None
                obs.count(
                    "repro_diskcache_read_retries_total",
                    help="Transient disk-cache read errors retried.",
                )
                time.sleep(_READ_RETRY_SLEEP)
        return None

    def load(
        self, machine_name: str, digest: str, stats=None,
        on_corrupt: str = "quarantine",
    ) -> Optional[CompiledMdes]:
        """Load one entry; ``None`` (and a counted miss) when absent.

        A file that exists but does not load back -- truncated JSON, a
        foreign or future LMDES version, structurally broken tables --
        is quarantined and reported as a miss, so the caller falls back
        to a rebuild instead of crashing.  Transient read errors are
        retried first (:meth:`_read_entry`).  ``on_corrupt="raise"``
        still quarantines but then raises the typed
        :class:`~repro.errors.CacheCorruptionError` instead of
        returning ``None`` -- for callers that must distinguish "never
        cached" from "cached and rotten".
        """
        path = self.path_for(machine_name, digest)
        text = self._read_entry(path)
        if text is None:
            if stats is not None:
                stats.disk_misses += 1
            obs.count(
                "repro_diskcache_loads_total",
                help="Disk-tier description loads by outcome.",
                outcome="miss",
            )
            return None
        try:
            compiled = load_lmdes(text)
        except (MdesError, ValueError, KeyError, IndexError,
                TypeError) as exc:
            logger.warning(
                "quarantining corrupt disk-cache entry %s for machine "
                "%s: %s", path, machine_name, exc,
            )
            self._quarantine(path)
            if stats is not None:
                stats.disk_misses += 1
                stats.disk_quarantined += 1
            obs.count(
                "repro_diskcache_loads_total",
                help="Disk-tier description loads by outcome.",
                outcome="quarantined",
            )
            if on_corrupt == "raise":
                raise CacheCorruptionError(
                    f"disk-cache entry for {machine_name} "
                    f"({digest[:12]}...) was corrupt and has been "
                    f"quarantined"
                ) from exc
            return None
        if stats is not None:
            stats.disk_hits += 1
        obs.count(
            "repro_diskcache_loads_total",
            help="Disk-tier description loads by outcome.",
            outcome="hit",
        )
        return compiled

    def store(
        self, machine_name: str, digest: str, compiled: CompiledMdes,
        stats=None,
    ) -> Path:
        """Atomically publish one entry (last concurrent writer wins)."""
        path = self.path_for(machine_name, digest)
        text = save_lmdes(compiled)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if stats is not None:
            stats.disk_stores += 1
        obs.count(
            "repro_diskcache_stores_total",
            help="Compiled descriptions published to the disk tier.",
        )
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a bad entry aside (best effort; never raises)."""
        try:
            os.replace(path, path.with_name(path.name + ".bad"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                logger.warning(
                    "could not quarantine or unlink bad disk-cache "
                    "entry %s; it will be retried next lookup", path,
                )

    def __len__(self) -> int:
        """Number of live (non-quarantined, non-temporary) entries."""
        return sum(1 for _ in self.directory.glob("*.lmdes.json"))

    def __repr__(self) -> str:
        return f"DiskDescriptionCache({str(self.directory)!r})"
