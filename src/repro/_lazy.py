"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package ``__init__`` declares which submodule defines each name it
re-exports, and the submodule is imported the first time one of its
names is read.  So ``import repro`` costs a few milliseconds, and each
``repro`` command loads only the layers it calls::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".flowgraph": ("Flow", "FlowError"),
        ".registry": ("build_circuit=build",),   # re-exported under a new name
    })

A submodule that no table names (``repro.sim.pulse``) resolves as an
attribute too, as it did when every package imported all of its
submodules eagerly.  A resolved name is stored on the package, so later
reads are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    Args:
        package: The package's ``__name__``.
        exports: Relative module name -> the names it exports; an entry
            ``"public=source"`` exports the module's ``source`` as
            ``public``.
    """
    table: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            public, _, source = entry.partition("=")
            table[public] = (module, source or public)

    def __getattr__(name: str) -> object:
        if name in table:
            module, source = table[name]
            value = getattr(importlib.import_module(module, package), source)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)
