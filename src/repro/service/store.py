"""Content-addressed result store: durable JSON blobs with LRU eviction.

One blob per cache key (:mod:`repro.service.keys`), stored as exactly the
``ExperimentResult.to_json()`` bytes — so a result served from the store
is *bit-identical* to the direct runner computation that produced it, and
``GET /results/{key}`` can stream the file without re-serialising.

Writes follow the runner manifest's durability discipline: serialise to a
temporary file in the same directory, then ``os.replace`` over the
destination, so readers never observe a half-written blob.  Reads apply
the same :class:`~repro.common.errors.ManifestError` discipline — a
truncated or mangled blob raises loudly instead of deserialising into
garbage; the scheduler treats that as a miss, discards the blob and
recomputes (self-healing).

Eviction is least-recently-*used* (gets refresh recency, mirrored to the
file mtime so recency survives restarts) and size-capped by bytes and/or
entry count.  The entry being inserted is never evicted by its own put,
so a single oversized blob degrades the cap instead of thrashing.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.common.errors import ConfigurationError, ManifestError
from repro.experiments.base import ExperimentResult

#: Keys are SHA-256 hex digests (see :func:`repro.service.keys.cache_key`).
_KEY_PATTERN = re.compile(r"^[0-9a-f]{64}$")

_BLOB_SUFFIX = ".json"


def validate_key(key: str) -> str:
    """Reject anything that is not a lowercase SHA-256 hex digest.

    Keys become file names, so this is also the path-traversal guard for
    the HTTP layer: ``../`` can never reach here.
    """
    if not isinstance(key, str) or not _KEY_PATTERN.match(key):
        raise ConfigurationError(
            f"result-store keys are 64-char lowercase hex digests "
            f"(repro.service.keys.cache_key), got {key!r}"
        )
    return key


@dataclass
class StoreStats:
    """Counters the metrics endpoint exports; all monotone but gauges."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt_discarded: int = 0
    #: Gauges (recomputed, not monotone).
    entries: int = 0
    bytes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            evictions=self.evictions,
            corrupt_discarded=self.corrupt_discarded,
            entries=self.entries,
            bytes=self.bytes,
        )

    @property
    def hit_rate(self) -> float:
        """Hits / lookups; 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


@dataclass
class _Evicted:
    """What one put pushed out (surfaced for telemetry)."""

    key: str
    size: int = 0


class ResultStore:
    """Directory of ``<key>.json`` result blobs with LRU size caps.

    ``capacity_bytes`` / ``capacity_entries`` of ``None`` mean unbounded.
    The store is not safe for *concurrent writers on one directory from
    multiple processes* (last replace wins — harmless, both wrote the
    same content-addressed bytes) but is safe for one service process
    with many threads when guarded by the scheduler's lock discipline:
    every store call runs under the scheduler's one lock.
    """

    def __init__(
        self,
        root: Union[str, pathlib.Path],
        capacity_bytes: Optional[int] = None,
        capacity_entries: Optional[int] = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ConfigurationError(
                f"capacity_bytes must be positive or None, got {capacity_bytes}"
            )
        if capacity_entries is not None and capacity_entries <= 0:
            raise ConfigurationError(
                f"capacity_entries must be positive or None, "
                f"got {capacity_entries}"
            )
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.capacity_bytes = capacity_bytes
        self.capacity_entries = capacity_entries
        self.stats = StoreStats()
        #: key -> blob size in bytes, least-recently-used first.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._load_index()

    # ------------------------------------------------------------------
    # Index bookkeeping
    # ------------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.root / (key + _BLOB_SUFFIX)

    def _load_index(self) -> None:
        """Rebuild recency order from the directory (mtime, then name)."""
        found: List[tuple] = []
        for path in self.root.glob("*" + _BLOB_SUFFIX):
            key = path.name[: -len(_BLOB_SUFFIX)]
            if not _KEY_PATTERN.match(key):
                continue
            try:
                status = path.stat()
            except OSError:
                continue
            found.append((status.st_mtime, key, status.st_size))
        for _mtime, key, size in sorted(found):
            self._index[key] = size
        self._refresh_gauges()

    def _refresh_gauges(self) -> None:
        self.stats.entries = len(self._index)
        self.stats.bytes = sum(self._index.values())

    def _touch(self, key: str) -> None:
        self._index.move_to_end(key)
        try:
            os.utime(self._path(key))
        except OSError:
            pass  # recency then only survives in memory; not fatal

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return validate_key(key) in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> List[str]:
        """Keys, least-recently-used first."""
        return list(self._index)

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The stored blob verbatim (the HTTP layer streams this).

        Counts a hit or a miss and refreshes recency.  Raises
        :class:`~repro.common.errors.ManifestError` when the blob exists
        but does not parse back into an
        :class:`~repro.experiments.base.ExperimentResult`.
        """
        validate_key(key)
        if key not in self._index:
            self.stats.misses += 1
            return None
        try:
            blob = self._path(key).read_bytes()
        except OSError:
            # The file vanished under us (external cleanup): heal the index.
            self._drop(key)
            self.stats.misses += 1
            return None
        try:
            ExperimentResult.from_json(blob.decode("utf-8"))
        except (json.JSONDecodeError, ConfigurationError, UnicodeDecodeError,
                KeyError, TypeError, ValueError) as exc:
            raise ManifestError(
                f"stored result blob {key} is corrupt (truncated write or "
                f"schema drift?): {exc!r}"
            ) from exc
        self.stats.hits += 1
        self._touch(key)
        return blob

    def get(self, key: str) -> Optional[ExperimentResult]:
        """Deserialised result, or ``None`` on a miss."""
        blob = self.get_bytes(key)
        if blob is None:
            return None
        return ExperimentResult.from_json(blob.decode("utf-8"))

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def put(self, key: str, result: ExperimentResult) -> List[_Evicted]:
        """Store ``result`` under ``key`` atomically; returns evictions.

        Idempotent: re-putting an existing key rewrites the same bytes
        (content addressing guarantees that) and refreshes recency.
        """
        validate_key(key)
        if not isinstance(result, ExperimentResult):
            raise ConfigurationError(
                f"store values must be ExperimentResult, "
                f"got {type(result).__name__}"
            )
        blob = result.to_json().encode("utf-8")
        path = self._path(key)
        temp_path = self.root / (key + _BLOB_SUFFIX + ".tmp")
        temp_path.write_bytes(blob)
        os.replace(temp_path, path)
        self._index[key] = len(blob)
        self._index.move_to_end(key)
        self.stats.puts += 1
        evicted = self._evict_over_capacity(exempt=key)
        self._refresh_gauges()
        return evicted

    def _over_capacity(self) -> bool:
        if self.capacity_entries is not None:
            if len(self._index) > self.capacity_entries:
                return True
        if self.capacity_bytes is not None:
            if sum(self._index.values()) > self.capacity_bytes:
                return True
        return False

    def _evict_over_capacity(self, exempt: str) -> List[_Evicted]:
        evicted: List[_Evicted] = []
        while self._over_capacity():
            victim = next(
                (key for key in self._index if key != exempt), None
            )
            if victim is None:
                break  # only the exempt entry remains; keep it
            size = self._index[victim]
            self._drop(victim)
            self.stats.evictions += 1
            evicted.append(_Evicted(victim, size))
        return evicted

    def _drop(self, key: str) -> None:
        self._index.pop(key, None)
        try:
            self._path(key).unlink()
        except OSError:
            pass
        self._refresh_gauges()

    def discard(self, key: str) -> bool:
        """Remove a blob (corrupt-blob healing); True when it existed."""
        validate_key(key)
        existed = key in self._index
        if existed:
            self._drop(key)
            self.stats.corrupt_discarded += 1
        return existed
