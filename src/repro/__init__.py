"""repro -- a reproduction of "Distributed XML Design" (Abiteboul, Gottlob, Manna; PODS 2009).

The library implements the paper's theory of typing distributed XML
documents: kernel documents with docking points for external resources,
bottom-up consistency (``cons[S]`` and ``typeT(τn)``), and top-down typing
(sound / local / maximal-local / perfect typings, their verification and
existence problems), together with every substrate those results rely on
(string automata, regular expressions, unranked tree automata and the
R-DTD / R-SDTD / R-EDTD schema abstractions).

The convenient entry points live in :mod:`repro.api`; the most common ones
are re-exported lazily here so that ``import repro`` stays cheap and the
subpackages (``repro.automata``, ``repro.trees``, ...) can also be imported
directly without pulling in the whole library.  Every subpackage re-exports
its public names the same way, through :func:`lazy_exports`: a process
loads only the modules whose names it reads.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping
from typing import Any

__version__ = "1.0.0"


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of a lazily re-exporting package.

    ``exports`` maps each submodule of ``package`` (a dotted path relative
    to it) to the names the package re-exports from it; a name equal to its
    submodule's path is that submodule itself.  A name's submodule is
    imported when the name is first read (PEP 562), and the value is then
    stored on the package, so later reads are plain attribute lookups.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        source = importlib.import_module(f"{package}.{module}")
        value = source if name == module else getattr(source, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owner})

    return list(owner), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "api": (
            "BatchValidator",
            "CompilationEngine",
            "Design",
            "DesignReport",
            "DesignSession",
            "ExecutionConfig",
            "Federation",
            "analyze_design",
            "bottom_up_design",
            "dtd",
            "sdtd",
            "edtd",
            "get_default_engine",
            "kernel",
            "MODES",
            "new_trace_id",
            "top_down_design",
            "tree",
            "typing_of",
            "use_engine",
            "ServiceHandle",
            "StreamingValidator",
            "ValidationRuntime",
            "WorkloadReport",
        ),
    },
)
__all__.append("__version__")
