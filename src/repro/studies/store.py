"""Durable content-addressed shard results.

The shard result store is what makes at-least-once shard execution
safe: results are keyed on ``(shard digest, seed)`` — the service
cache's key scheme — so re-executing a shard after a crash lands on
the same key with the same bytes.  Entries are
:class:`~repro.durable.ContentStore` records: an unreadable or
corrupt entry is quarantined and reported as a *miss* (the shard is
deterministic, so a recompute reproduces it exactly), never a wrong
answer.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

from repro.chaos.faultpoints import fault_point
from repro.durable import ContentStore
from repro.runtime.budget import RetryPolicy
from repro.runtime.errors import TransientHarnessError
from repro.studies.ledger import LedgerError

__all__ = ["ShardResultStore"]


class ShardResultStore(ContentStore):
    """Content-addressed durable storage for shard result payloads.

    Args:
        root: store directory; stale ``*.tmp`` leftovers are swept
            on open.
        retry: backoff policy for transient write faults.
        sleep: injectable backoff sleeper.
    """

    def __init__(
        self,
        root: Union[str, Path],
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        # A kill at the commit window must leave the shard
        # recomputable; a duplicate there must be idempotent.
        super().__init__(
            root,
            "study-shard-result",
            fault=partial(fault_point, "studies.shard_commit"),
            retry=retry,
            sleep=sleep,
        )

    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or ``None`` on a miss."""
        entry = super().get(key)
        return None if entry is None else entry.get("payload")

    def put(self, key: str, payload: dict) -> None:
        """Durably store ``payload`` under ``key``.

        Raises:
            LedgerError: when every write attempt failed — the shard
                result could not be made durable, so committing it to
                the ledger would be a lie.
        """
        try:
            super().put(key, {"payload": payload})
        except (OSError, TransientHarnessError) as exc:
            raise LedgerError(
                "shard result write failed after"
                f" {len(self._retry.delays_s()) + 1} attempts: {exc}"
            ) from exc
