"""The durable-record contract shared by every on-disk artifact.

A hypothesis property drives :class:`~repro.durable.ContentStore`
through faults at the pre-publish hook and at rest, and a
broken-implementation canary (an in-place, non-atomic
``atomic_write``) proves the property has teeth.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import durable, serde
from repro.durable import QUARANTINE_SUFFIX, ContentStore, seal, unseal
from repro.runtime.budget import RetryPolicy
from repro.runtime.errors import TransientHarnessError

SCHEMA = "study-shard-result"

#: Faults the property injects.  ``raise`` fails every attempt; the
#: ``*-once`` kinds fail only the first, so the retry must land.
FAULTS = (
    "none",
    "raise-once",
    "raise",
    "torn-once",
    "corrupt",
    "truncate",
    "duplicate",
)

_RESERVED = {"key", serde.SCHEMA_KEY, serde.VERSION_KEY, "checksum"}

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**53), 2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
BODIES = st.dictionaries(
    st.text(max_size=8).filter(lambda k: k not in _RESERVED),
    _JSON,
    max_size=5,
)
KEYS = st.text(alphabet="0123456789abcdef", min_size=2, max_size=64)


def _no_sleep(_delay_s):
    pass


def _store(root, fault=None):
    return ContentStore(
        root,
        SCHEMA,
        fault=fault,
        retry=RetryPolicy(max_attempts=3),
        sleep=_no_sleep,
    )


def _hook(fault):
    """A pre-publish hook that fires ``fault`` (raise or tear)."""
    fired = []

    def hook(path, tmp, text):
        if fault == "raise" or (
            fault in ("raise-once", "torn-once") and not fired
        ):
            fired.append(path)
            if fault == "torn-once":
                Path(tmp).write_text(text[: len(text) // 2])
            raise TransientHarnessError("injected at pre-publish")

    return hook


def _check(root, key, old, new, fault):
    """One scenario; asserts the durable-store contract."""
    if old is not None:
        _store(root).put(key, old)
    store = _store(root, fault=_hook(fault))
    expected = new
    try:
        store.put(key, new)
        if fault == "duplicate":
            store.put(key, new)
    except TransientHarnessError:
        # A put that never published leaves the previous entry.
        expected = old
    path = store.entry_path(key)
    if fault == "corrupt":
        data = json.loads(path.read_text())
        data["tampered"] = True
        path.write_text(json.dumps(data, sort_keys=True))
        expected = None
    elif fault == "truncate":
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        expected = None
    assert store.get(key) == expected
    quarantined = list(root.rglob("*" + QUARANTINE_SUFFIX))
    corrupted = fault in ("corrupt", "truncate")
    assert len(quarantined) == (1 if corrupted else 0)
    stale = list(root.rglob("*.tmp"))
    reopened = _store(root)
    assert reopened.swept_on_init == len(stale)
    assert not list(root.rglob("*.tmp"))
    assert reopened.get(key) == expected


@settings(max_examples=80, deadline=None, database=None)
@given(
    key=KEYS,
    old=st.none() | BODIES,
    new=BODIES,
    fault=st.sampled_from(FAULTS),
)
@example(key="ab", old={"v": 1}, new={"v": 2}, fault="raise")
def _content_store_property(key, old, new, fault):
    with tempfile.TemporaryDirectory() as tmp:
        _check(Path(tmp), key, old, new, fault)


def test_get_returns_the_exact_body_or_none():
    _content_store_property()


def _in_place_write(path, text, fault=None):
    """A broken atomic_write: no tmp, no rename, no fsync."""
    path.write_text(text[: len(text) // 2])
    if fault is not None:
        fault(path=str(path), tmp=str(path), text=text)
    path.write_text(text)


def test_non_atomic_write_breaks_the_property(monkeypatch):
    monkeypatch.setattr(durable, "atomic_write", _in_place_write)
    with pytest.raises(AssertionError):
        _content_store_property()


def test_unseal_separates_schema_from_checksum_defects():
    record = seal(SCHEMA, {"payload": {"rows": [1, 2]}})
    assert unseal(SCHEMA, record) == {"payload": {"rows": [1, 2]}}
    with pytest.raises(serde.SchemaError):
        unseal("study-ledger-record", record)
    with pytest.raises(serde.SchemaError):
        unseal(SCHEMA, [record])
    tampered = dict(record, payload={"rows": [1, 3]})
    with pytest.raises(ValueError, match="checksum"):
        unseal(SCHEMA, tampered)
    unsigned = {k: v for k, v in record.items() if k != "checksum"}
    with pytest.raises(ValueError, match="checksum"):
        unseal(SCHEMA, unsigned)


def test_put_retries_only_transient_faults(tmp_path):
    calls = []

    def crash(**context):
        calls.append(context["path"])
        raise RuntimeError("harness bug")

    with pytest.raises(RuntimeError):
        _store(tmp_path, fault=crash).put("abcd", {"v": 1})
    assert len(calls) == 1
    with pytest.raises(TransientHarnessError):
        _store(tmp_path, fault=_hook("raise")).put("abcd", {"v": 1})
    assert _store(tmp_path).get("abcd") is None
