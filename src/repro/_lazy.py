"""On-demand package exports (PEP 562).

Every CLI run, runner worker and service job is a fresh interpreter that
pays, in start-up time and peak memory, for whatever its first ``import``
pulls in.  A package ``__init__`` that re-exports its submodules' names
with ``from … import`` blocks makes importing any one module load the
whole package, and through it every package that one imports.

Instead, each package ``__init__`` declares one table — submodule →
names it exports — and hands it to :func:`lazy_exports`, which derives
``__all__`` and returns a module ``__getattr__`` that imports the
defining submodule the first time a name is read.  ``hasattr``,
``from pkg import name`` and ``from pkg import *`` all go through it.

This module imports nothing from ``repro``, so ``import repro`` loads it
and nothing else.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for a package re-exporting ``table``.

    ``table`` maps a submodule name relative to ``package`` (dotted for
    deeper modules) to the names the package exports from it.  A resolved
    name is stored in the package namespace, so each is imported once and
    later reads are plain attribute lookups.
    """
    owner: Dict[str, str] = {
        name: f"{package}.{module}" for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return list(owner), __getattr__, __dir__
