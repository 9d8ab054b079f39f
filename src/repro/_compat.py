"""Soft third-party imports shared by the vectorized simulation kernels.

``numpy`` is a declared install requirement (``setup.py`` /
``install_requires``), but the pure-Python reference and bigint kernels
keep the package fully functional without it, so every numpy touchpoint
goes through :func:`load_numpy`:

* auto-dispatched fast paths call ``load_numpy()`` and fall back when
  numpy is absent: the word-parallel AIG sweep to the bigint kernel, the
  SoA pulse core to its Python-list form (which it also uses for every
  batch below ``repro.sim.pulse.soa.NUMPY_MIN_TRAIN`` pulses, so verify,
  fault and fuzz batches never import numpy);
* explicit requests (``simulate_patterns(..., backend="numpy")``) call
  ``load_numpy(required=True)`` and get an :class:`ImportError` that
  points at the install command instead of a bare module-not-found.

Setting ``REPRO_SCALAR_KERNELS=1`` in the environment disables every
auto-dispatched numpy fast path (see :func:`scalar_kernels_forced`) —
the supported way to A/B the vectorized kernels against the scalar
cores without touching code (``docs/performance.md``).
"""

from __future__ import annotations

import os

_NUMPY_INSTALL_HINT = (
    "the vectorized simulation kernels require numpy, which is a declared "
    "dependency of this package; install it with `pip install numpy` or "
    "reinstall the package with `pip install -e .` (offline fallback: "
    "`python setup.py develop`).  The scalar kernels remain available via "
    "backend='int' / REPRO_SCALAR_KERNELS=1."
)


def load_numpy(required: bool = False):
    """Import and return numpy, or ``None`` when absent and not required.

    With ``required=True`` a missing numpy raises an :class:`ImportError`
    whose message points at the install command — the error a user sees
    when explicitly asking for the numpy backend.
    """
    try:
        import numpy
    except ImportError as exc:
        if required:
            raise ImportError(_NUMPY_INSTALL_HINT) from exc
        return None
    return numpy


def scalar_kernels_forced() -> bool:
    """True when ``REPRO_SCALAR_KERNELS=1`` disables numpy auto-dispatch.

    Read per call (not cached) so tests can flip the environment variable
    around individual subprocess runs.
    """
    return os.environ.get("REPRO_SCALAR_KERNELS", "") == "1"
