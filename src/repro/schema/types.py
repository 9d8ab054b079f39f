"""Registrations of every concrete document family.

One :class:`~repro.schema.registry.MessageType` per family the package
persists.  The version history (details in ``docs/schema.md``):

``record`` (synthesis cache records, ``repro.eval.engine``)
    v1–v2 predate the envelope and were written untagged (the version
    lived only in the cache key).  v3 introduces the on-disk tag;
    untagged documents sniff as v2 and migrate by identity.
``verify`` (verification/fuzz verdict records, ``repro.verify``)
    v2 (untagged, gained ``cell_counts``) -> v3 (tagged), identity
    migration -> v4 (records carry no wall clock: the migration drops
    ``seconds`` and ``synth_seconds``).  Fuzz units verify a
    ``VerificationSpec``, so their records ride this kind.
``fault`` (fault-injection records, ``repro.faults``)
    v1 (untagged) -> v2 (tagged), identity migration.  The records of a
    ``VerificationSpec`` with a fault scenario set ride this kind.
``bench`` / ``cov`` / ``soak`` / ``faults``
    Born tagged at v1 (``repro-bench/1`` etc.); unchanged layouts, now
    loaded/stamped through the shared registry.
``corpus`` (pinned regression-corpus entries, ``tests/gen/corpus``)
    The committed entries are untagged v1 documents and stay that way
    (``legacy_version=1``): the corpus is hand-edited, so the loaders
    accept the bare form and validation is the value added.
"""

from __future__ import annotations

from typing import Dict

from .registry import MessageType, register

__all__ = [
    "BENCH",
    "CORPUS",
    "COV",
    "FAULT",
    "FAULTS_REPORT",
    "RECORD",
    "SOAK",
    "VERIFY",
]


def _identity(payload: Dict[str, object]) -> Dict[str, object]:
    """Tag-introduction migration: the payload layout did not change."""
    return payload


def _drop_wall_clock(payload: Dict[str, object]) -> Dict[str, object]:
    """``verify`` v3 -> v4: a record is a pure function of its unit key."""
    return {k: v for k, v in payload.items() if k not in ("seconds", "synth_seconds")}


RECORD = register(
    MessageType(
        kind="record",
        version=3,
        required=(
            ("circuit", (str,)),
            ("scale", (str,)),
            ("flow", (list, tuple)),
        ),
        legacy_version=2,
        migrations={2: _identity},
    )
)

VERIFY = register(
    MessageType(
        kind="verify",
        version=4,
        required=(
            ("circuit", (str,)),
            ("status", (str,)),
            ("flow", (list, tuple)),
            ("patterns", (int,)),
        ),
        legacy_version=2,
        migrations={2: _identity, 3: _drop_wall_clock},
    )
)

FAULT = register(
    MessageType(
        kind="fault",
        version=2,
        required=(
            ("circuit", (str,)),
            ("scenario", (str,)),
            ("status", (str,)),
            ("fault_kind", (str,)),
        ),
        legacy_version=1,
        migrations={1: _identity},
    )
)

BENCH = register(
    MessageType(
        kind="bench",
        version=1,
        required=(
            ("suite", (str,)),
            ("results", (list, tuple)),
        ),
    )
)

COV = register(
    MessageType(
        kind="cov",
        version=1,
        required=(("features", (dict,)),),
    )
)

SOAK = register(
    MessageType(
        kind="soak",
        version=1,
        required=(
            ("campaign", (dict,)),
            ("units_total", (int,)),
            ("units_done", (int,)),
            ("batches", (list, tuple)),
            ("records", (list, tuple)),
            ("coverage", (dict,)),
        ),
    )
)

FAULTS_REPORT = register(
    MessageType(
        kind="faults",
        version=1,
        required=(
            ("campaign", (dict,)),
            ("rows", (list, tuple)),
            ("summary", (dict,)),
            ("text", (str,)),
        ),
    )
)

CORPUS = register(
    MessageType(
        kind="corpus",
        version=1,
        required=(
            ("family", (str,)),
            ("params", (dict,)),
            ("seed", (int,)),
            ("flows", (list, tuple)),
        ),
        legacy_version=1,
    )
)
