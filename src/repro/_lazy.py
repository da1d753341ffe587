"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package init that imports every submodule it re-exports makes each
process pay for the whole package, numpy included, even when it runs
one command that needs none of it (``campaign store-serve``, an
``mw-worker``).  :func:`lazy_exports` keeps the public names where they
are — ``from repro import optimize``, ``from repro.campaign import
Campaign``, ``__all__`` and ``dir()`` — but imports a name's defining
submodule on first access, then caches the value on the package so the
hook runs once per name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, from ``{submodule: names}``.

    A name missing from ``exports`` raises ``AttributeError`` as usual,
    so ``from package import submodule`` still falls through to the
    import system.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
