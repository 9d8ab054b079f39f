"""Simulation substrates: pulse-level (event-driven) and analog (RCSJ).

Each resolves on first use: the analog characterisation loads no pulse
simulator, and pulse-level verification loads no RCSJ integrator.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, _ = lazy_exports(__name__, {})
__all__ = ["pulse", "analog"]
