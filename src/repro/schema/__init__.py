"""``repro.schema`` — the typed, versioned message layer.

Every document family that crosses a process or disk boundary — eval
cache records, verification and fault records, bench reports, coverage
maps, soak checkpoints, fault-campaign reports, regression-corpus
entries — is declared here once and shares:

* one versioned envelope: the reserved top-level key
  ``"schema": "repro-<kind>/<version>"`` beside the payload fields
  (:func:`pack` stamps it, :func:`load_document` strips it);
* per-type field validation on load and explicit
  ``migrate(vN -> vN+1)`` hooks, so old on-disk documents keep loading
  forever (:mod:`repro.schema.registry`);
* one canonical serialiser with **no** ``default=str`` escape hatch
  (:mod:`repro.schema.canonical`) — non-wire-safe values raise
  :class:`WireFormatError` instead of silently stringifying, and
  content-addressed keys are ``PYTHONHASHSEED``-stable by
  construction;
* shared durable IO: temp-file + ``os.replace`` writes and corrupt-file
  quarantine (:mod:`repro.schema.io`).

See ``docs/schema.md`` for the envelope, versioning and migration
policy.  ROADMAP item 1 (the campaign service daemon) consumes this
layer as its wire format.
"""

from .canonical import (
    SchemaError,
    WireFormatError,
    canonical_json,
    content_key,
    ensure_wire_safe,
)
from .io import atomic_write_json, quarantine
from .registry import (
    TAG_KEY,
    MessageType,
    load_document,
    message_type,
    pack,
    parse_tag,
    register,
    registered_kinds,
    schema_tag,
)
from . import types as _types  # noqa: F401  - registers the concrete kinds


def _package_version() -> str:
    """The ``repro`` version that record producers stamp into records."""
    from .. import __version__

    return __version__


__all__ = [
    "MessageType",
    "SchemaError",
    "TAG_KEY",
    "WireFormatError",
    "atomic_write_json",
    "canonical_json",
    "content_key",
    "ensure_wire_safe",
    "load_document",
    "message_type",
    "pack",
    "parse_tag",
    "quarantine",
    "register",
    "registered_kinds",
    "schema_tag",
]
