"""Durable on-disk records: one write-and-verify contract.

Every artifact the harness persists — campaign checkpoints, service
result-cache entries, study shard results, the study ledger and
certified surrogate artifacts — relies on the same guarantee:

* **Atomic, durable publish.**  :func:`atomic_write` writes a
  ``<path>.tmp`` file, flushes and fsyncs it, gives the caller's
  pre-publish hook (a chaos fault point) its chance, renames it over
  ``path`` and fsyncs the directory.  A crash at any instant leaves
  either the previous file or the new one, never a torn one; the
  worst residue is a stale ``*.tmp``.
* **Verified on load.**  :func:`seal` stamps a body with its
  :mod:`repro.serde` schema tag and a SHA-256 ``checksum`` over its
  canonical JSON (:func:`payload_checksum`); :func:`unseal` raises on
  any schema or checksum defect, so bytes altered at rest are never
  mistaken for a record.
* **Quarantined, never served.**  A record that fails verification
  is renamed aside with :data:`QUARANTINE_SUFFIX` for post-mortem.

:class:`ContentStore` combines the three into a keyed store with a
two-level fan-out, stale-tmp sweep and an injected retry policy.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro import serde
from repro.runtime.budget import RetryPolicy
from repro.runtime.errors import TransientHarnessError

__all__ = [
    "QUARANTINE_SUFFIX",
    "ContentStore",
    "atomic_write",
    "fsync_dir",
    "payload_checksum",
    "quarantine",
    "seal",
    "tmp_path",
    "unseal",
]

#: Suffix a record that fails verification is renamed to.
QUARANTINE_SUFFIX = ".quarantined"

#: Suffix of the not-yet-published file of an :func:`atomic_write`.
_TMP_SUFFIX = ".tmp"

#: Envelope fields :func:`seal` adds and :func:`unseal` strips.
_ENVELOPE = (serde.SCHEMA_KEY, serde.VERSION_KEY, "checksum")

#: A pre-publish hook: called with ``path``/``tmp``/``text`` keywords
#: once the tmp file is durable and before it is renamed into place.
PrePublish = Callable[..., None]


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON of ``payload`` sans checksum.

    The ``checksum`` key itself is excluded so the digest can be both
    computed at write time and re-verified at load time from the same
    function.
    """
    body = {k: v for k, v in payload.items() if k != "checksum"}
    canonical = json.dumps(body, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def fsync_dir(directory: Path) -> None:
    """Flush a rename to disk by fsyncing the parent directory.

    Best-effort: some filesystems refuse O_RDONLY fsync on
    directories, and durability of the *data* was already ensured by
    the file fsync.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def tmp_path(path: Path) -> Path:
    """The tmp file :func:`atomic_write` stages ``path`` in."""
    return path.with_suffix(path.suffix + _TMP_SUFFIX)


def atomic_write(
    path: Path, text: str, fault: Optional[PrePublish] = None
) -> None:
    """Durably and atomically replace ``path`` with ``text``.

    Tmp write, flush + fsync, ``fault(path=, tmp=, text=)``, rename,
    directory fsync.  The parent directory must exist.

    Raises:
        OSError: when the filesystem refuses a step (the previous
            file, if any, is left intact).  Whatever ``fault`` raises
            propagates unchanged, after the durable tmp and before
            the rename.
    """
    tmp = tmp_path(path)
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    if fault is not None:
        # The durable-tmp / not-yet-renamed instant: a crash here
        # must leave the previous file intact and only leak the tmp.
        fault(path=str(path), tmp=str(tmp), text=text)
    os.replace(tmp, path)
    fsync_dir(path.parent)


def seal(schema: str, body: dict) -> dict:
    """``body`` tagged with ``schema`` and its payload checksum.

    Raises:
        serde.SchemaError: on an undeclared schema kind.
    """
    record = serde.tag(schema, body)
    record["checksum"] = payload_checksum(record)
    return record


def unseal(schema: str, data: object) -> dict:
    """Verify a :func:`seal` record; return the body it sealed.

    Raises:
        serde.SchemaError: ``data`` is not an object of ``schema``.
        ValueError: the checksum is missing or does not match the
            payload (the record was altered at rest).
    """
    if not isinstance(data, dict):
        raise serde.SchemaError(f"{schema} record is not an object")
    serde.check(schema, data)
    stored = data.get("checksum")
    if stored is None:
        raise ValueError(f"{schema} record has no checksum")
    if stored != payload_checksum(data):
        raise ValueError(
            f"{schema} record failed checksum verification"
            " (corrupt at rest)"
        )
    return {k: v for k, v in data.items() if k not in _ENVELOPE}


def quarantine(path: Path) -> bool:
    """Rename a defective record aside; True when it was moved."""
    try:
        os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
    except OSError:
        return False
    return True


class ContentStore:
    """Sealed JSON records keyed by a hex content address.

    An entry lives at ``<root>/<key[:2]>/<key>.json`` and carries its
    own key, so a record filed under the wrong address is as
    defective as a corrupt one.

    Args:
        root: store directory (created on demand).  Stale ``*.tmp``
            leftovers from interrupted writes are swept immediately;
            the count is :attr:`swept_on_init`.
        schema: :mod:`repro.serde` kind every entry is sealed with.
        fault: pre-publish hook handed to :func:`atomic_write`.
        retry: backoff policy for transient write faults.
        sleep: injectable backoff sleeper (tests pass a no-op).
    """

    def __init__(
        self,
        root: Union[str, Path],
        schema: str,
        fault: Optional[PrePublish] = None,
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.root = Path(root)
        self.schema = schema
        self._fault = fault
        self._retry = retry if retry is not None else RetryPolicy()
        self._sleep = time.sleep if sleep is None else sleep
        #: Stale ``*.tmp`` files removed at construction.
        self.swept_on_init = self._sweep_stale_tmp()

    def entry_path(self, key: str) -> Path:
        """Where ``key``'s entry lives (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The body stored under ``key``, or ``None``.

        A missing or unreadable entry is a plain miss.  An entry that
        fails verification — unparsable, wrong schema, checksum
        mismatch or wrong key — is quarantined and reported as a
        miss, so corrupt bytes are never returned.
        """
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            body = unseal(self.schema, json.loads(raw))
            if body.pop("key", None) != key:
                raise ValueError(f"entry is not filed under {key!r}")
        except ValueError:
            self._quarantine(path)
            return None
        return body

    def _quarantine(self, path: Path) -> None:
        """Move a defective entry aside (subclasses add metrics)."""
        quarantine(path)

    def put(self, key: str, body: dict) -> None:
        """Durably store ``body`` under ``key``.

        ``body`` must not use the ``key`` field or the envelope
        fields (``schema``, ``schema_version``, ``checksum``).

        ``OSError`` and :class:`TransientHarnessError` are retried
        with the injected backoff; any other exception propagates
        from the first attempt.

        Raises:
            OSError: or :class:`TransientHarnessError`, when the last
                attempt failed too.
        """
        record = seal(self.schema, dict(body, key=key))
        text = json.dumps(record, sort_keys=True)
        path = self.entry_path(key)
        for delay_s in self._retry.delays_s() + (None,):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write(path, text, self._fault)
            except (OSError, TransientHarnessError):
                if delay_s is None:
                    raise
                self._sleep(delay_s)
            else:
                return

    def _sweep_stale_tmp(self) -> int:
        """Remove ``*.tmp`` leftovers from interrupted writes."""
        if not self.root.exists():
            return 0
        swept = 0
        for tmp in self.root.rglob("*" + _TMP_SUFFIX):
            try:
                tmp.unlink()
                swept += 1
            except OSError:
                continue
        return swept
