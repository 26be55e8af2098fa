"""The start-up budget: each serving role imports only what it runs.

A server, pod or directory process starts by importing its role's module
(through ``repro.cli``); every module it loads is compiled or read at each
launch, so the roles must not pull in the design-analysis procedures, the
load and chaos tools, the workload generators or the HTTP exporter that
they never run.  The subpackages re-export their names lazily, and every
name they list in ``__all__`` must still resolve.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Modules no serving role may load at import time.
UNUSED_BY_ROLES = (
    "repro.api",
    "repro.federation.orchestrator",
    "repro.service.loadgen",
    "repro.service.faults",
    "repro.workloads",
    "repro.distributed.runtime.driver",
    "repro.core.perfect",
    "repro.core.existence",
    "repro.core.words",
    "repro.core.consistency",
    "repro.core.reduction",
    "repro.core.locality",
    "repro.schemas.closures",
    "http.server",
)


@pytest.mark.parametrize(
    "role",
    ["repro.cli", "repro.service.server", "repro.federation.pod", "repro.federation.directory"],
)
def test_a_role_imports_only_what_it_runs(role):
    src = str(Path(repro.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import {role}; "
        "import json; print(json.dumps(sorted(sys.modules)))"
    )
    loaded = json.loads(
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, check=True, text=True, timeout=60
        ).stdout
    )
    unused = [
        name
        for name in loaded
        if any(name == module or name.startswith(module + ".") for module in UNUSED_BY_ROLES)
    ]
    assert unused == []


def test_every_exported_name_resolves():
    packages = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    assert "repro.distributed.runtime" in packages
    for package in packages:
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{package}.{name}"
