"""Durable document IO shared by every schema family.

Two primitives every writer and loader in the package now routes
through:

* :func:`atomic_write_json` — wire-safety-checked JSON emission via a
  same-directory temp file + ``os.replace``, so a crash (or a full
  disk) mid-write never corrupts the previous version of the document.
  The cache, the soak checkpoints and the bench baselines all share
  this one implementation.
* :func:`quarantine` — move a document that failed to parse or
  validate aside as ``<name>.corrupt`` instead of deleting it, so a
  recompute can proceed while the evidence survives for inspection.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .canonical import ensure_wire_safe

__all__ = ["atomic_write_json", "quarantine"]


def atomic_write_json(
    path: os.PathLike,
    document: object,
    indent: Optional[int] = 2,
    sort_keys: bool = True,
    compact: bool = False,
    newline: bool = True,
) -> Path:
    """Atomically write ``document`` as JSON to ``path``.

    The document is wire-safety-checked first (no ``default=str``
    fallback, no NaN/Infinity), serialised to a temp file in the target
    directory, then ``os.replace``d over ``path`` — readers see either
    the old bytes or the new bytes, never a prefix.  ``compact=True``
    switches to the canonical compact separators (cache records);
    the default pretty form (``indent=2``, sorted keys, trailing
    newline) matches every pinned on-disk artefact format.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ensure_wire_safe(document)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if compact:
                # One string from the C encoder: compact records are small.
                handle.write(json.dumps(document, sort_keys=sort_keys, separators=(",", ":"), allow_nan=False))
            else:
                # Indented JSON has no C encoder; streaming its chunks keeps
                # a large report from being joined in memory first.
                json.dump(document, handle, indent=indent, sort_keys=sort_keys, allow_nan=False)
            if newline:
                handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def quarantine(path: os.PathLike) -> Optional[Path]:
    """Move a corrupt document aside as ``<name>.corrupt``.

    Returns the quarantine path, or ``None`` when the move itself
    failed (the original may be gone already); never raises.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target
