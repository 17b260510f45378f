"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' public names eagerly makes
every importer pay for all of them: a spawned shard child that needs
two modules of ``repro.core`` would load the whole monitor, the
telemetry HTTP server and the polling baseline.  With
:func:`lazy_exports` the ``__init__`` only names where each export
lives; the submodule is imported the first time the name is read.

    __getattr__, __dir__ = lazy_exports(__name__, {
        "Aggregator": ".aggregator",
        "EventStore": ".store",
    })

Only relative names of the package's own submodules are accepted, so a
lazy map cannot carry an import edge to another package that the
import-statement graph (``tests/test_architecture.py``) would not see.
"""

from __future__ import annotations

import importlib
import re
import sys
from typing import Any, Callable, List, Mapping, Tuple

__all__ = ["lazy_exports"]

#: ``.submodule`` or ``.subpackage.module``: one leading dot, no parents.
_RELATIVE = re.compile(r"\.[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for *package*.

    *exports* maps each public name to the relative name of the
    submodule that defines it.  A name is resolved on first access and
    cached in the package's globals, so later reads never reach
    ``__getattr__``; an unmapped name raises :class:`AttributeError`.
    """
    for name, module in exports.items():
        if not _RELATIVE.fullmatch(module):
            raise ValueError(
                f"{package}.{name}: lazy export must name a submodule "
                f"relatively ('.module'), got {module!r}"
            )
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
