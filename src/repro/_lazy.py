"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports names from its submodules would import every
submodule the moment the package is touched.  :func:`lazy_exports`
instead gives the package a module ``__getattr__`` that imports a
name's submodule on first access and caches the name on the package, so
a caller pays only for what it uses.  ``from package import name``,
``package.name`` and ``from package import *`` work as before.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Dict, Iterable, List, Mapping


class _LazyPackage(types.ModuleType):
    """A package module whose re-exports outrank same-named submodules.

    Importing ``package.sub`` binds the submodule as ``package.sub``.
    When the package also re-exports a name ``sub`` (``repro.platforms``
    publishes the ``genesys`` factory of ``platforms/genesys.py``), the
    re-export must win, as it did when the package imported eagerly.
    """

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and name in self._lazy_names:
            return
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> List[str]:
    """Publish ``exports`` (``{submodule: names}``) on ``package`` lazily.

    A listed submodule also resolves as a package attribute, as it would
    have after an eager import.  Returns the exported names, for
    ``__all__``.
    """
    names: Dict[str, str] = {
        name: submodule for submodule, group in exports.items() for name in group
    }
    module = sys.modules[package]

    def __getattr__(name: str):
        submodule = names.get(name)
        if submodule is None:
            if name in exports:
                return importlib.import_module(f"{package}.{name}")
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        module.__dict__[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(module.__dict__) | set(names) | set(exports))

    module.__dict__.update(
        __getattr__=__getattr__, __dir__=__dir__, _lazy_names=frozenset(names)
    )
    module.__class__ = _LazyPackage
    return sorted(names)
