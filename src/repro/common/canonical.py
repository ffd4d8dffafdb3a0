"""Canonical JSON: one stable byte representation per JSON value.

Content-addressed storage (:mod:`repro.service.store`) and manifest
equality checks (:meth:`repro.runner.RunManifest.canonical_json`) both
need the property that *equal data serialises to equal bytes* — across
processes, Python versions and insertion orders.  ``json.dumps`` alone
does not guarantee that: key order follows insertion order, whitespace
depends on ``indent``, and ``NaN`` serialises to a token that is not
even JSON.

:func:`canonical_json` pins all three down:

* keys are sorted at every nesting level;
* separators are compact and fixed (``","`` / ``":"``);
* ``NaN`` / ``Infinity`` are rejected loudly (``allow_nan=False``) —
  a hash key containing NaN would never round-trip, because
  ``NaN != NaN``;
* optionally (``require_version=True``) the top-level object must carry
  an explicit schema-version field, so hashed/compared payloads are
  versioned by construction and old blobs fail loudly instead of
  silently colliding across layout changes.

:func:`canonical_digest` is the companion content address: the SHA-256
hex digest of the canonical bytes.  It takes ``sha256`` from CPython's
built-in module (``_sha256`` through 3.11, ``_sha2`` from 3.12), as the
``random`` module takes its SHA-512, so computing a key loads neither
``hashlib`` nor OpenSSL's libcrypto.  ``hashlib`` is the fallback for
interpreters built without that module; the digest is the same.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.common.errors import ConfigurationError

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

#: Top-level keys accepted as the explicit version stamp when
#: ``require_version=True``.  ``schema_version`` is what result and
#: manifest dicts already carry; ``key_schema_version`` is the service
#: store's key-material stamp.
VERSION_KEYS = ("schema_version", "key_schema_version")


def canonical_json(data: object, *, require_version: bool = False) -> str:
    """Serialise ``data`` to its one canonical JSON string.

    Raises :class:`~repro.common.errors.ConfigurationError` when the
    value is not canonicalisable: non-JSON types, NaN/Infinity floats,
    or (with ``require_version``) a top level that is not an object
    carrying one of :data:`VERSION_KEYS`.
    """
    if require_version:
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"versioned canonical JSON requires a top-level object, "
                f"got {type(data).__name__}"
            )
        if not any(key in data for key in VERSION_KEYS):
            raise ConfigurationError(
                f"canonical payload lacks an explicit version field "
                f"(one of {', '.join(VERSION_KEYS)}); refusing to hash "
                f"or compare unversioned data"
            )
    try:
        return json.dumps(
            data, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        # allow_nan=False raises ValueError("Out of range float ...").
        raise ConfigurationError(
            f"value is not canonical-JSON serialisable (NaN/Infinity "
            f"are rejected: NaN != NaN would break key round-trips): "
            f"{exc}"
        ) from exc
    except TypeError as exc:
        raise ConfigurationError(
            f"value is not JSON serialisable: {exc}"
        ) from exc


def canonical_digest(data: object, *, require_version: bool = False) -> str:
    """SHA-256 hex digest of :func:`canonical_json` — a content address."""
    text = canonical_json(data, require_version=require_version)
    return _sha256(text.encode("utf-8")).hexdigest()


def canonical_loads(text: str) -> Dict[str, object]:
    """Parse JSON produced by :func:`canonical_json` (plain ``json.loads``)."""
    return json.loads(text)
