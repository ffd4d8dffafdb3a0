"""One JSON codec for the frozen dataclasses that requests and specs carry.

A scenario spec, a hierarchy geometry, a fault regime and a run profile
arrive as JSON (``POST /jobs``, the committed ``scenarios/*.json``, run
manifests) and leave as the canonical JSON whose SHA-256 is a content
address.  :class:`Record` derives both directions from a dataclass's
fields and resolved type hints, so a field's declaration is its schema.
:meth:`Record.from_dict` reads each field by its type:

* ``int`` takes an int but not a ``bool``; ``float`` takes an int or a
  float and gives a float; ``str`` and ``bool`` take only their own type;
* :data:`Number` takes an int or a float (not a ``bool``) and keeps it as
  given, because a content address hashes which;
* ``Optional[X]`` also takes ``null``;
* ``Tuple[X, ...]`` comes from a list and ``Dict[str, X]`` from an object,
  each item read as ``X``;
* a nested :class:`Record` comes from an object, read by its own
  ``from_dict``;
* ``object`` is kept as given (a field whose type another field decides);
* an unknown key, a missing field that has no default, and a missing
  :data:`REQUIRED_KEY` field raise
  :class:`~repro.common.errors.ConfigurationError`; any other missing
  field takes the field's default.

:meth:`Record.to_dict` writes every field, recursively, except a field
declared with :data:`OMIT_AT_DEFAULT` while it holds its default: a
field added after keys were pinned leaves every earlier canonical form,
and so every pinned key, unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import typing
from typing import Dict, Tuple, Union

from repro.common.errors import ConfigurationError

#: A JSON int or float, kept as given.
Number = Union[int, float]

#: Field metadata: :meth:`Record.to_dict` leaves the field out while it
#: holds its default.
OMIT_AT_DEFAULT = {"omit_at_default": True}

#: Field metadata: :meth:`Record.from_dict` requires the key, although
#: Python callers may leave the field at its default.
REQUIRED_KEY = {"required_key": True}

_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "a boolean",
    list: "a list",
    dict: "a JSON object",
}


class Record:
    """Base of a frozen dataclass that reads and writes itself as JSON data."""

    def to_dict(self) -> Dict[str, object]:
        """The JSON-ready form: every field, records and tuples recursed."""
        data: Dict[str, object] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.metadata.get("omit_at_default") and value == field.default:
                continue
            data[field.name] = _encode(value)
        return data

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; every field checked by its type."""
        label = _label(cls)
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{label} must be a JSON object, got {type(data).__name__}"
            )
        schema = _schema(cls)
        valid = [field.name for field, _ in schema]
        unknown = sorted(map(str, set(data) - set(valid)))
        if unknown:
            raise ConfigurationError(
                f"unknown {label} field(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(valid)}"
            )
        values = {}
        for field, hint in schema:
            if field.name in data:
                values[field.name] = _decode(hint, data[field.name], field.name)
            elif field.metadata.get("required_key") or (
                field.default is dataclasses.MISSING
                and field.default_factory is dataclasses.MISSING
            ):
                raise ConfigurationError(
                    f"missing required {label} field {field.name!r}"
                )
        return cls(**values)


@functools.lru_cache(maxsize=None)
def _schema(cls) -> Tuple[Tuple[dataclasses.Field, object], ...]:
    """``cls``'s fields, each with its resolved type hint."""
    hints = typing.get_type_hints(cls)
    return tuple((field, hints[field.name]) for field in dataclasses.fields(cls))


@functools.lru_cache(maxsize=None)
def _label(cls) -> str:
    """How errors name ``cls``: ``BerSweepParams`` → ``ber sweep``."""
    name = re.sub(r"(Spec|Params)$", "", cls.__name__)
    return re.sub(r"(?<=[a-z])(?=[A-Z])", " ", name).lower()


def _encode(value: object) -> object:
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


def _decode(hint, value: object, name: str) -> object:
    """``value`` read as the type ``hint`` names (see the module rules)."""
    if hint is object:
        return value
    if hint == Number:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
        raise ConfigurationError(f"{name!r} must be a number, got {value!r}")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (hint,) = (arg for arg in args if arg is not type(None))
        return _decode(hint, value, name)
    if origin is tuple:
        items = _scalar(value, list, name)
        return tuple(_decode(args[0], item, name) for item in items)
    if origin is dict:
        return {
            _decode(args[0], key, name): _decode(args[1], item, name)
            for key, item in _scalar(value, dict, name).items()
        }
    if issubclass(hint, Record):
        return hint.from_dict(value)
    return _scalar(value, hint, name)


def _scalar(value: object, kind: type, name: str) -> object:
    """``value`` if it is a ``kind``: an ``int`` is no ``bool``, and a
    ``float`` field takes an ``int`` as ``float(value)``."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigurationError(f"{name!r} must be {_KIND_NAMES[kind]}, got {value!r}")
