"""Lazy package re-exports (PEP 562 module ``__getattr__``/``__dir__``).

A package ``__init__`` that re-exports its submodules' public names
would import every submodule, and with them numpy and the model stack,
as soon as anything under the package is imported.  The shard router
needs none of that.  Instead each package declares which submodule
defines each name::

    _EXPORTS = {".ring": ("HashRing",), ".router": ("RouterService",)}
    __all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

and a name's submodule is imported on first access, after which the
name is an ordinary package attribute.  ``from pkg import Name``,
``from pkg import *``, ``pkg.Name`` and ``pkg.submodule`` all behave as
with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a relative submodule name (``".core"``) to the
    names it defines that the package re-exports.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            # ``pkg.submodule`` without a prior ``import pkg.submodule``.
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return sorted(origin), __getattr__, __dir__
