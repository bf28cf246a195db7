"""Content-addressed result cache.

Results are keyed by a sha256 hash of the canonical JSON encoding of
``(kind, payload)`` -- see :func:`payload_key`, built on the same
:func:`repro.config.canonical_json` that :meth:`HPLConfig.config_key`
uses -- so two submissions describing the same benchmark point share a
key no matter how the payload dict was ordered.  Records are one JSON
file per key, sharded by the first two hex digits, written atomically
(temp file + ``os.replace``) so a crashed writer can never leave a
half-written record that a reader would parse; a record that *is* found
truncated or corrupt (torn disk, partial copy) reads as a miss, never a
crash.
"""

from __future__ import annotations

import json
import os
import time

from ..config import canonical_json, config_key


def payload_key(kind: str, payload: dict, parents=()) -> str:
    """Stable content hash identifying one job's work.

    For dependent jobs the parent ids are part of the identity: a reduce
    over one grid is not the same computation as the same reduce over
    another, even though the payloads match byte-for-byte.  Jobs without
    parents hash exactly as before, so existing keys are unchanged.
    """
    doc: dict = {"kind": kind, "payload": payload}
    if parents:
        doc["parents"] = sorted(parents)
    return config_key(doc)


class ResultCache:
    """Directory of ``<key>.json`` result records under a workdir."""

    def __init__(self, root) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, or None on a miss."""
        try:
            with open(self._path(key)) as fh:
                record = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            # A truncated or corrupt record is a miss, not a crash: the
            # caller re-runs the job and the next put() replaces it.
            return None
        if not isinstance(record, dict) or "result" not in record:
            return None
        return record

    def __contains__(self, key: str) -> bool:
        # A hit is a record get() can serve: submit- and claim-time
        # reuse trust this, so a torn record must not count.
        return self.get(key) is not None

    def _write_record(self, path: str, record: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(canonical_json(record))
        os.replace(tmp, path)

    def put(self, key: str, kind: str, payload: dict, result: dict) -> dict:
        """Store ``result`` under ``key``; returns the full record."""
        record = {
            "key": key,
            "kind": kind,
            "payload": payload,
            "result": result,
            "stored_at": time.time(),
        }
        self._write_record(self._path(key), record)
        return record

    def __len__(self) -> int:
        # A record is ``<key>.json``: a file with any other dotted name
        # (an earlier release's ``<key>.result.json`` sidecar) is not
        # an entry.
        total = 0
        for _, _, files in os.walk(self.root):
            total += sum(1 for f in files
                         if f.endswith(".json") and f.count(".") == 1)
        return total
