"""Canonical wire serialisation: one JSON dialect for every document.

Every document the package persists or keys on — cache records, verdict
records, bench reports, coverage maps, soak checkpoints, fault reports —
is serialised through this module, which pins down exactly one byte
representation per value:

* mappings sort their keys, sequences keep their order;
* separators are compact (``(",", ":")``) for content-addressed /
  canonical text (pretty-printed emission goes through
  :func:`repro.schema.io.atomic_write_json`, which shares the same
  wire-safety rules);
* only JSON-native values are accepted.  There is deliberately **no**
  ``default=`` hook: an object that is not wire-safe raises
  :class:`WireFormatError` instead of being silently stringified.
  ``default=str`` was how two distinct payloads could collide (any two
  objects whose ``str()`` agree) or destabilise (a ``str()`` embedding a
  memory address hashes differently every run);
* NaN / Infinity floats are rejected — ``json.dump`` would emit them as
  the non-standard ``NaN``/``Infinity`` tokens, which
  ``json.loads``-compatible readers outside Python refuse.

:class:`SchemaError` subclasses :class:`ValueError` so call sites (and
tests) that predate the schema layer — ``except ValueError`` around
loaders, ``pytest.raises(ValueError, match="schema")`` — keep working
unchanged.
"""

from __future__ import annotations

import json
import math

__all__ = [
    "SchemaError",
    "WireFormatError",
    "canonical_json",
    "content_key",
    "ensure_wire_safe",
]


class SchemaError(ValueError):
    """A document violates the typed schema layer's contract."""


class WireFormatError(SchemaError):
    """A value cannot be represented losslessly in canonical wire JSON."""


def ensure_wire_safe(value: object, path: str = "$") -> object:
    """Validate (and return) ``value`` as canonical-JSON representable.

    Accepts exactly the JSON-native types — ``str``, ``int``, finite
    ``float``, ``bool``, ``None``, and ``list``/``tuple``/``dict``
    compositions thereof with string keys.  Anything else raises
    :class:`WireFormatError` naming the offending ``path``.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise WireFormatError(
                f"non-finite float {value!r} at {path} is not wire-safe; "
                "the schema serialiser rejects NaN/Infinity"
            )
        return value
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            ensure_wire_safe(item, f"{path}[{index}]")
        return value
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireFormatError(
                    f"non-string mapping key {key!r} at {path} is not "
                    "wire-safe; schema documents use string keys only"
                )
            ensure_wire_safe(item, f"{path}.{key}")
        return value
    raise WireFormatError(
        f"{type(value).__name__} value at {path} is not wire-safe; the "
        "canonical schema serialiser refuses to stringify non-JSON-native "
        f"values (got {value!r})"
    )


def canonical_json(value: object) -> str:
    """The one canonical text form of ``value``: sorted, compact, strict.

    Equal values serialise byte-identically in every process on every
    platform (``PYTHONHASHSEED`` never leaks into the output), which is
    what content-addressed keys and byte-stability contracts are built
    on.  Raises :class:`WireFormatError` for non-wire-safe input.
    """
    ensure_wire_safe(value)
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_key(value: object) -> str:
    """SHA-256 hex digest of the canonical serialisation of ``value``."""
    import hashlib  # here: it loads OpenSSL (+3.6 MB), which a run that keys nothing skips

    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
