"""Append-only JSONL checkpoint journal for supervised runs.

One :class:`Journal` file records everything a run does: a ``run`` header
per generation (first run, then one per ``--resume``), a ``trial`` record
per finished attempt (``done`` with the full JSON result, or
``quarantined`` with the terminal error), plus ``retry`` / ``degrade`` /
``interrupted`` / ``complete`` bookkeeping records.  The file is the
single source of truth for resume: a trial whose latest record says
``done`` is never re-executed — its journaled result is replayed, which is
what makes a resumed run byte-identical to an uninterrupted one.

Durability contract (see the table in ``docs/ARCHITECTURE.md``): every
:meth:`Journal.append` writes one canonical JSON line, flushes, and
``fsync``\\ s, so a SIGKILL or power cut at any instant loses at most the
line being written.  :func:`load_records` tolerates exactly that failure
mode — an undecodable (truncated) line is dropped with a warning and
counted in ``journal.recovered_records``; every complete line before
*and after* it is kept — and :class:`Journal` repairs a missing trailing
newline before appending, so a record written after a crash never fuses
with the partial line.  An append the disk refuses (ENOSPC, EIO) raises
the typed :class:`JournalWriteError` instead of corrupting the file; the
supervisor catches it and degrades to a memory-only run (see
``docs/RUNTIME.md``).

All writes go through the :class:`repro.faults.io.DiskIo` seam so
``repro faults crashpoints`` and the fault-injection tests can substitute
:class:`repro.faults.io.FaultyIo`.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

from repro import obs
from repro.faults.io import DiskIo, IoFile
from repro.store.core import atomic_write

__all__ = [
    "Journal",
    "JournalError",
    "JournalWriteError",
    "atomic_write_text",
    "completed_trials",
    "load_records",
    "run_headers",
]

logger = logging.getLogger(__name__)


class JournalError(RuntimeError):
    """The journal on disk does not match the run being attempted."""


class JournalWriteError(JournalError):
    """A record could not be made durable (disk full, I/O error).

    Raised by :meth:`Journal.append` instead of letting a raw ``OSError``
    escape mid-record: the caller learns *which* record failed and that
    the journal can no longer be trusted for resume, and can choose to
    degrade (the supervisor continues memory-only) rather than crash.
    """

    def __init__(self, message: str, errno_code: int | None = None) -> None:
        super().__init__(message)
        self.errno = errno_code


def atomic_write_text(
    path: str | Path, text: str, io: DiskIo | None = None
) -> None:
    """Durably write *text* to *path* with :func:`repro.store.core.atomic_write`.

    Output artifacts (``--out`` files) must never be observable
    half-written: a ctrl-C or power cut mid-dump either leaves the
    previous file intact or the new one complete, nothing in between,
    and the committed file survives power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(
        io if io is not None else DiskIo(),
        path,
        text.encode("utf-8"),
        prefix=path.name + ".tmp-",
    )


def load_records(path: str | Path) -> list[dict]:
    """Parse a journal file into its record dicts.

    Undecodable lines — the partial line a SIGKILL or torn write leaves
    behind — are dropped with a warning rather than failing the resume;
    every complete line before and after them is kept.  Each dropped
    line increments the ambient counter ``journal.recovered_records``
    (the journal was *recovered past* that record).
    """
    path = Path(path)
    if not path.is_file():
        return []
    records: list[dict] = []
    for lineno, line in enumerate(path.read_bytes().decode("utf-8", "replace").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            logger.warning(
                "journal %s:%d: dropping undecodable (partial) record", path, lineno
            )
            obs.get_registry().counter(
                "journal.recovered_records",
                help="undecodable (torn) journal lines dropped during recovery",
            ).inc()
            continue
        if isinstance(rec, dict):
            records.append(rec)
    return records


def completed_trials(records: list[dict]) -> dict[str, dict]:
    """Latest ``done`` trial record per trial digest (the resume skip set)."""
    done: dict[str, dict] = {}
    for rec in records:
        if rec.get("type") == "trial" and rec.get("status") == "done":
            done[rec["trial"]] = rec
    return done


def run_headers(records: list[dict]) -> list[dict]:
    """Every ``run`` header, in order (one per generation)."""
    return [rec for rec in records if rec.get("type") == "run"]


class Journal:
    """Append-only, fsync-per-record JSONL writer for one run."""

    def __init__(self, path: str | Path, io: DiskIo | None = None):
        self.path = Path(path)
        self._io = io if io is not None else DiskIo()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_trailing_newline()
        self._f: IoFile = self._io.open_append(self.path)

    def _repair_trailing_newline(self) -> None:
        """Terminate a partial last line so the next record starts clean."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size == 0:
            return
        with open(self.path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
        if last != b"\n":
            f = self._io.open_append(self.path)
            try:
                self._io.write(f, b"\n")
                self._io.flush(f)
                self._io.fsync(f)
            finally:
                self._io.close(f)

    def append(self, record: dict) -> None:
        """Durably append one record (canonical JSON, flush, fsync).

        Raises :class:`JournalWriteError` if the disk refuses the record;
        the journal file itself stays recoverable (at worst a torn tail,
        which :func:`load_records` drops).
        """
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            self._io.write(self._f, (line + "\n").encode("utf-8"))
            self._io.flush(self._f)
            self._io.fsync(self._f)
        except OSError as exc:
            raise JournalWriteError(
                f"journal append of {record.get('type', '?')!r} record failed "
                f"({type(exc).__name__}: {exc}); the journal can no longer "
                "checkpoint this run",
                errno_code=exc.errno,
            ) from exc

    def close(self) -> None:
        self._io.close(self._f)

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
