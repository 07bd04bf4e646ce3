"""Durable content-addressed result cache for the FIT service.

Entries are :class:`~repro.durable.ContentStore` records keyed by the
query's :meth:`~repro.service.protocol.Query.cache_key` — SHA-256
over (plan digest, seed) — so they inherit the :mod:`repro.durable`
contract: atomic fsync'd publish, sealed checksums, quarantine on
load, stale-tmp sweep on open.

Failure policy, in one sentence: **the cache is an accelerator, never
an authority** — a corrupt, torn, or unreadable entry is quarantined
(renamed aside for post-mortem) and reported as a miss so the query
recomputes, and a write that keeps failing is abandoned with a
metric, never surfaced to the client.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

from repro.chaos.faultpoints import fault_point
from repro.durable import ContentStore
from repro.obs import core as obs
from repro.runtime.budget import RetryPolicy
from repro.service.protocol import Query

__all__ = ["ResultCache"]


class ResultCache(ContentStore):
    """Filesystem-backed result cache with corruption quarantine.

    Args:
        root: cache directory (created on demand).  Stale ``*.tmp``
            leftovers are swept immediately and counted in
            :attr:`swept_on_init`, which ``repro serve`` publishes as
            a metric.
        retry: backoff policy for transient write faults.
        sleep: injectable backoff sleeper (tests and chaos trials
            pass a no-op).
    """

    def __init__(
        self,
        root: Union[str, Path],
        retry: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        super().__init__(
            root,
            "service-cache-entry",
            fault=partial(fault_point, "service.cache_write"),
            retry=retry,
            sleep=sleep,
        )

    def get(self, key: str) -> Optional[dict]:
        """The cached result for ``key``, or ``None`` on a miss."""
        entry = super().get(key)
        return None if entry is None else entry.get("result")

    def _quarantine(self, path: Path) -> None:
        obs.inc("repro_service_cache_quarantined_total")
        super()._quarantine(path)

    def put(  # type: ignore[override]
        self, key: str, query: Query, result: dict
    ) -> bool:
        """Durably store one computed result.

        Transient write faults (including torn tmp writes) are
        retried with backoff; anything still failing afterwards — or
        any non-transient failure — abandons the write with a
        failure metric.  The caller's response is never affected.

        Returns:
            True when the entry landed on disk.
        """
        try:
            super().put(key, {"query": query.to_dict(), "result": result})
        except Exception:  # noqa: BLE001 — cache is best-effort
            obs.inc("repro_service_cache_write_failures_total")
            return False
        obs.inc("repro_service_cache_writes_total")
        return True
