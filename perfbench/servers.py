"""Server processes of a run: launch, register, measure from outside, stop.

Every server is a separate OS process started through the repository's own
CLI (``repro.cli serve`` for the single server; the process-spawn
:class:`~repro.federation.Federation` for the directory and its pods), with
default settings.  Resources are read from ``/proc``: CPU as user plus
system ticks of ``/proc/<pid>/stat``, peak resident memory as ``VmHWM``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from inputs import DESIGN, kernel_term

_TICK = os.sysconf("SC_CLK_TCK")

#: Seconds a server gets to bind, and to exit after a shutdown request.
_BOOT_SECONDS = 60.0
_EXIT_SECONDS = 60.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU of one process so far."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # Fields after the command name start at field 3 (state); utime and
    # stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def server_children() -> dict[int, str]:
    """``pid -> role`` of this process's ``repro.cli`` children."""
    me = os.getpid()
    found: dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                ppid = int(handle.read().rsplit(b")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except (OSError, ValueError, IndexError):
            continue
        if b"repro.cli" in argv:
            found[int(entry)] = argv[argv.index(b"repro.cli") + 1].decode()
    return found


#: The variables :func:`child_environment` sets for server processes.
_CHILD_VARIABLES = ("PYTHONPATH", "PERFBENCH_SPANS")


def child_environment(src: Path, hook: Path | None, spans: Path | None) -> dict:
    """The environment server processes start with (traced when ``hook``)."""
    env = dict(os.environ)
    env.pop("PERFBENCH_SPANS", None)
    paths = [str(src)]
    if hook is not None:
        paths.insert(0, str(hook))
        env["PERFBENCH_SPANS"] = str(spans)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _set_variable(name: str, value) -> None:
    if value is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = value


class SingleServer:
    """One ``ValidationServer`` process with the design registered.

    ``cpus`` lists the CPU its threads are pinned to.
    """

    def __init__(self, workdir: Path, env: dict, typing: dict, documents: dict) -> None:
        from repro.service.client import ServiceClient

        port_file = workdir / f"server-{time.monotonic_ns()}.port"
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--port-file", str(port_file)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self._generator_cpus = os.sched_getaffinity(0)
        try:
            self.port = _await_port(port_file, self.proc)
            self.client = ServiceClient("127.0.0.1", self.port, timeout=_BOOT_SECONDS)
            self.client.register_design(DESIGN, kernel_term(typing), typing, documents)
            self.setup_seconds = time.perf_counter() - started
            # The server's threads share one CPU and the generator gets the
            # other: left to the scheduler, the two met on one CPU in some
            # runs and not in others, and the server's threads hopped
            # between CPUs (about 30% more server CPU per publication).
            cpus = sorted(self._generator_cpus)
            self.cpus = cpus[-1:]
            if len(cpus) > 1:
                _pin(self.proc.pid, cpus[-1])
                os.sched_setaffinity(0, cpus[:-1])
        except BaseException:
            os.sched_setaffinity(0, self._generator_cpus)
            self.proc.kill()
            self.proc.wait(_EXIT_SECONDS)
            raise
        self.pods = {"server": (("127.0.0.1", self.port), tuple(typing))}
        self.directory = None

    @property
    def pids(self) -> dict[int, str]:
        return {self.proc.pid: "serve"}

    def close(self) -> None:
        from repro.service.protocol import ServiceError

        os.sched_setaffinity(0, self._generator_cpus)
        try:
            self.client.shutdown()
        except (ServiceError, OSError):
            pass
        self.client.close()
        try:
            self.proc.wait(_EXIT_SECONDS)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(_EXIT_SECONDS)
            raise


class FederationServers:
    """A process federation: one directory plus ``pods`` peer pods.

    ``cpus`` lists the CPUs the pods are pinned to.
    """

    def __init__(self, workdir: Path, env: dict, typing: dict, documents: dict, pods: int) -> None:
        import tempfile

        from repro.federation import Federation
        from repro.trees.xml_io import tree_from_xml

        trees = {function: tree_from_xml(text) for function, text in documents.items()}
        # The orchestrator spawns its members with this process's
        # environment, and keeps their port files in a temporary directory:
        # point both at this run.
        saved = {name: os.environ.get(name) for name in _CHILD_VARIABLES}
        for name in _CHILD_VARIABLES:
            _set_variable(name, env.get(name))
        tempfile.tempdir = str(workdir)
        started = time.perf_counter()
        try:
            self.federation = Federation(
                kernel_term(typing), typing, trees, pods=pods, design_id=DESIGN, spawn="process"
            )
        finally:
            for name, value in saved.items():
                _set_variable(name, value)
            tempfile.tempdir = None
        self.setup_seconds = time.perf_counter() - started
        described = self.federation.describe()
        self.directory = tuple(described["directory"])
        self.pods = {
            pod: (tuple(info["endpoint"]), tuple(info["functions"]))
            for pod, info in described["pods"].items()
        }
        self._pids = server_children()
        # Each pod gets a CPU of its own.  Left to the scheduler, the two
        # pods share one CPU in some runs and not in others, which moves
        # throughput by ~15% from run to run.
        cpus = sorted(os.sched_getaffinity(0))
        pod_pids = sorted(pid for pid, role in self._pids.items() if role == "pod")
        for index, pid in enumerate(pod_pids):
            _pin(pid, cpus[index % len(cpus)])
        self.cpus = sorted({cpus[index % len(cpus)] for index in range(len(pod_pids))})

    @property
    def pids(self) -> dict[int, str]:
        return self._pids

    def close(self) -> None:
        outcome = self.federation.close()
        if not outcome.get("clean", False):
            raise RuntimeError("a federation member had to be killed at shutdown")


def _pin(pid: int, cpu: int) -> None:
    """Pin every thread of a process to one CPU (later threads inherit it)."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), {cpu})
        except ProcessLookupError:
            pass  # the thread ended after the listing


def _await_port(port_file: Path, proc: subprocess.Popen) -> int:
    deadline = time.monotonic() + _BOOT_SECONDS
    while time.monotonic() < deadline:
        if port_file.exists():
            text = port_file.read_text(encoding="utf-8").strip()
            if text:
                return int(text)
        if proc.poll() is not None:
            raise RuntimeError(f"the server exited with code {proc.returncode} before binding")
        time.sleep(0.005)
    raise RuntimeError("the server did not bind in time")
