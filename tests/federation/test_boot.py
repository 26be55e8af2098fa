"""A process federation's boot: a failed boot leaves no child running."""

from __future__ import annotations

import subprocess

import pytest

from repro.errors import DesignError
from repro.federation import Federation
from repro.workloads.synthetic import distributed_workload


def test_a_failed_boot_stops_every_launched_child(monkeypatch):
    workload = distributed_workload(peers=4, documents=4, seed=3)
    launched: list[subprocess.Popen] = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            launched.append(self)

    await_port_file = Federation._await_port_file

    def failing_wait(self, port_file, *rest):
        # The last argument names the member being awaited.
        if "pod-1" in rest[-1]:
            raise DesignError("pod 'pod-1' never wrote its port file (forced)")
        return await_port_file(self, port_file, *rest)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    monkeypatch.setattr(Federation, "_await_port_file", failing_wait)
    try:
        with pytest.raises(DesignError, match="forced"):
            Federation(
                workload.kernel,
                workload.typing,
                workload.initial_documents,
                pods=2,
                spawn="process",
            )
        roles = [proc.args[3] for proc in launched]
        assert roles == ["directory", "pod", "pod"]
        assert [proc.poll() is None for proc in launched] == [False, False, False]
    finally:
        for proc in launched:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
