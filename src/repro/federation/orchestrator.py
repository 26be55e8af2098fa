"""The :class:`Federation` orchestrator: directory + pods as one handle.

A federation takes the same ingredients as a single-process runtime -- a
kernel document, a typing, initial documents -- and runs them as a real
multi-party deployment: one :class:`~repro.federation.directory.DirectoryServer`
plus ``pods`` :class:`~repro.federation.pod.PodServer` processes (or
threads), each owning a disjoint subset of the kernel's functions (the
deterministic :class:`~repro.distributed.runtime.sharding.ShardMap`
round-robin) and running its own :class:`ValidationRuntime` behind the
wire protocol.

Two spawn modes share every other code path:

* ``spawn="thread"`` boots each server on its own thread and event loop
  in this process (:class:`~repro.service.server.ServiceHandle`) -- fast
  enough for differential tests, yet everything still crosses real TCP
  sockets and the real frame protocol.
* ``spawn="process"`` boots each server as a child interpreter via
  ``repro-design directory`` / ``repro-design pod`` with the port-file
  handshake -- real OS processes that can genuinely be killed.

Publications are routed to the owning pod; the global verdict comes from
the directory's collected peer acks; :meth:`Federation.state_digest`
merges the pods' exported runtime states
(:func:`~repro.distributed.runtime.runtime.merge_states`) into a digest
byte-comparable with a single-process runtime's -- the differential gate
of ``tests/federation/test_differential.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Mapping, Optional, Union

from repro.core.kernel import KernelTree
from repro.distributed.runtime.runtime import merge_states, state_digest_of
from repro.distributed.runtime.sharding import ShardMap
from repro.errors import DesignError
from repro.federation.directory import DirectoryServer
from repro.federation.pod import PodServer
from repro.observability.exposition import merge_expositions
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.service.server import ServiceHandle
from repro.trees.document import Tree
from repro.trees.xml_io import tree_to_xml

__all__ = ["Federation", "SPAWN_MODES"]

#: How a federation boots its member servers.
SPAWN_MODES = ("thread", "process")

#: Seconds a spawned child gets to write its port file before boot fails.
_BOOT_DEADLINE = 30.0

#: Seconds a shutdown request gets before the child is killed (and the
#: kill reported as a leak).
_SHUTDOWN_DEADLINE = 15.0


class _Pod:
    """Bookkeeping for one member pod (thread handle or child process)."""

    def __init__(self, pod_id: str, functions: tuple[str, ...]) -> None:
        self.pod_id = pod_id
        self.functions = functions
        self.handle: Optional[ServiceHandle] = None
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None
        self.host: str = "127.0.0.1"
        self.port: int = 0
        self.alive = False


class Federation:
    """Spawn and drive a directory + peer-pod federation for one design.

    Parameters
    ----------
    kernel:
        The design's kernel document (a :class:`KernelTree` or term text).
    typing:
        The local typing -- ``function -> schema`` (a
        :class:`~repro.core.typing.TreeTyping` or plain mapping).  Schemas
        cross the wire as DTD text, like ``register_design``.
    documents:
        The initial ``function -> Tree`` documents.
    pods:
        How many peer pods to spawn (clamped to the function count).
    spawn:
        ``"thread"`` (in-process servers, default) or ``"process"``
        (child interpreters via the CLI).
    """

    def __init__(
        self,
        kernel: Union[KernelTree, str],
        typing,
        documents: Mapping[str, Tree],
        pods: int = 2,
        design_id: str = "federated",
        spawn: str = "thread",
        host: str = "127.0.0.1",
        workers: int = 2,
        lease_ttl: float = 30.0,
        lease_interval: float = 5.0,
        client_timeout: Optional[float] = 30.0,
        metrics: bool = False,
    ) -> None:
        if spawn not in SPAWN_MODES:
            raise DesignError(
                f"unknown spawn mode {spawn!r}: expected one of {', '.join(SPAWN_MODES)}"
            )
        self.kernel = KernelTree(kernel) if isinstance(kernel, str) else kernel
        self._types = dict(typing.items()) if hasattr(typing, "items") else dict(typing)
        self._documents = dict(documents)
        self.design_id = design_id
        self.spawn = spawn
        self.host = host
        self.workers = workers
        self.lease_ttl = lease_ttl
        self.lease_interval = lease_interval
        self.client_timeout = client_timeout
        #: When true every member serves /metrics on an ephemeral port
        #: (discovered through ``ping()["limits"]["metrics_port"]``).
        self.metrics = metrics
        self.typing_version = 1

        functions = self.kernel.functions
        if not functions:
            raise DesignError("a federation needs a kernel with at least one function")
        missing = [f for f in functions if f not in self._types]
        if missing:
            raise DesignError(f"the typing has no component for {missing[0]!r}")
        pod_count = max(1, min(pods, len(functions)))
        self.shard_map = ShardMap.over(functions, pod_count)
        self._owner = {
            function: shard
            for shard in self.shard_map.shards()
            for function in self.shard_map.members(shard)
        }
        #: function -> the bytes of its latest wire publication, replayed
        #: into a respawned pod so its content-addressed state converges
        #: back to the federation's.
        self._last_payload: dict[str, Union[str, bytes]] = {}
        self._workdir = Path(tempfile.mkdtemp(prefix="repro-federation-"))
        self._directory_handle: Optional[ServiceHandle] = None
        self._directory_proc: Optional[subprocess.Popen] = None
        self._directory_client: Optional[ServiceClient] = None
        self.directory_host = host
        self.directory_port = 0
        self._pods = [
            _Pod(f"pod-{shard}", self.shard_map.members(shard))
            for shard in self.shard_map.shards()
        ]
        self._closed = False
        try:
            self._boot()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # boot
    # ------------------------------------------------------------------ #

    def _boot(self) -> None:
        self._start_directory()
        self._directory_client = ServiceClient(
            self.directory_host, self.directory_port, timeout=self.client_timeout
        )
        self._directory_client.typing_update(self.typing_version)
        for pod in self._pods:
            self._start_pod(pod)
            self._register_fragment(pod)

    def _child_env(self) -> dict:
        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def _await_port_file(self, port_file: Path, what: str) -> int:
        deadline = time.monotonic() + _BOOT_DEADLINE
        while time.monotonic() < deadline:
            if port_file.exists():
                text = port_file.read_text(encoding="utf-8").strip()
                if text:
                    return int(text)
            time.sleep(0.02)
        raise DesignError(f"{what} never wrote its port file (boot failed?)")

    def _start_directory(self) -> None:
        if self.spawn == "thread":
            server = DirectoryServer(
                host=self.host,
                port=0,
                lease_ttl=self.lease_ttl,
                metrics_port=0 if self.metrics else None,
            )
            self._directory_handle = ServiceHandle(server).start()
            self.directory_host = server.host
            self.directory_port = server.port
            return
        port_file = self._workdir / "directory.port"
        self._directory_proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "directory",
                "--host", self.host, "--port", "0",
                "--port-file", str(port_file),
                "--lease-ttl", str(self.lease_ttl),
            ]
            + (["--metrics-port", "0"] if self.metrics else []),
            env=self._child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.directory_port = self._await_port_file(port_file, "the directory server")
        self.directory_host = self.host

    def _start_pod(self, pod: _Pod) -> None:
        if self.spawn == "thread":
            server = PodServer(
                host=self.host,
                port=0,
                pod_id=pod.pod_id,
                directory_host=self.directory_host,
                directory_port=self.directory_port,
                lease_interval=self.lease_interval,
                runtime_workers=self.workers,
                metrics_port=0 if self.metrics else None,
            )
            pod.handle = ServiceHandle(server).start()
            pod.host, pod.port = server.host, server.port
        else:
            port_file = self._workdir / f"{pod.pod_id}-{time.monotonic_ns()}.port"
            pod.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "pod",
                    "--host", self.host, "--port", "0",
                    "--port-file", str(port_file),
                    "--pod-id", pod.pod_id,
                    "--directory", f"{self.directory_host}:{self.directory_port}",
                    "--lease-interval", str(self.lease_interval),
                    "--workers", str(self.workers),
                ]
                + (["--metrics-port", "0"] if self.metrics else []),
                env=self._child_env(),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            pod.host = self.host
            pod.port = self._await_port_file(port_file, f"pod {pod.pod_id!r}")
        pod.client = ServiceClient(pod.host, pod.port, timeout=self.client_timeout)
        pod.alive = True

    def _fragment_term(self, pod: _Pod) -> str:
        root = self.kernel.tree.label
        return f"{root}({' '.join(pod.functions)})" if pod.functions else root

    def _register_fragment(self, pod: _Pod) -> dict:
        """(Re-)register a pod's fragment, then replay its latest payloads.

        Registration installs the *seed* documents; re-publishing each
        owned function's latest wire payload brings the pod's
        content-addressed state back to the federation's current one.
        """
        result = pod.client.register_design(
            self.design_id,
            self._fragment_term(pod),
            {function: self._types[function] for function in pod.functions},
            {
                function: tree_to_xml(self._documents[function])
                for function in pod.functions
                if function in self._documents
            },
            replace=True,
            typing_version=self.typing_version,
        )
        for function in pod.functions:
            payload = self._last_payload.get(function)
            if payload is None:
                continue
            try:
                pod.client.publish(self.design_id, function, payload)
            except ServiceError as error:
                # A malformed latest payload is an invalid publication;
                # replaying it records exactly that.
                if error.code != "invalid-xml":
                    raise
        return result

    # ------------------------------------------------------------------ #
    # publication routing
    # ------------------------------------------------------------------ #

    def _pod_of(self, function: str) -> _Pod:
        shard = self._owner.get(function)
        if shard is None:
            raise DesignError(f"no pod owns function {function!r}")
        pod = self._pods[shard]
        if not pod.alive or pod.client is None:
            raise ServiceError(
                "connection-lost", f"pod {pod.pod_id!r} (owner of {function!r}) is down"
            )
        return pod

    def publish(
        self, function: str, payload: Union[str, bytes], trace_id: Optional[str] = None
    ) -> dict:
        """Route one wire publication to the owning pod.

        The payload is recorded as the function's latest even when the pod
        refuses it as malformed: a typing change replays it, so the peer
        stays invalid, as a single runtime keeps it.
        """
        pod = self._pod_of(function)
        try:
            result = pod.client.publish(
                self.design_id, function, payload, trace_id=trace_id
            )
        except ServiceError as error:
            if error.code == "invalid-xml":
                self._last_payload[function] = payload
            raise
        self._last_payload[function] = payload
        return result

    def publish_stream(
        self,
        function: str,
        payload,
        chunk_bytes: int = 65536,
        trace_id: Optional[str] = None,
    ) -> dict:
        """Route one chunked streamed publication to the owning pod."""
        if not isinstance(payload, (str, bytes)):
            payload = b"".join(
                chunk.encode("utf-8") if isinstance(chunk, str) else chunk
                for chunk in payload
            )
        pod = self._pod_of(function)
        result = pod.client.publish_stream(
            self.design_id,
            function,
            payload,
            chunk_bytes=chunk_bytes,
            trace_id=trace_id,
        )
        self._last_payload[function] = payload
        return result

    def revalidate(self, force: bool = False) -> dict:
        """Run a validation round on every live pod; AND the verdicts."""
        valid = True
        validated = 0
        for pod in self._pods:
            if not pod.alive:
                continue
            report = pod.client.revalidate(self.design_id, force=force)
            valid = valid and bool(report["valid"])
            validated += report["peers_validated"]
        return {"design": self.design_id, "valid": valid, "peers_validated": validated}

    # ------------------------------------------------------------------ #
    # federation views
    # ------------------------------------------------------------------ #

    def global_verdict(self) -> dict:
        """The directory's view: collected acks, staleness, coverage."""
        return self._directory_client.global_verdict(self.design_id)

    def peer_acks(self) -> dict[str, bool]:
        """Merged per-function acknowledgements straight from the pods."""
        acks: dict[str, bool] = {}
        for pod in self._pods:
            if pod.alive:
                acks.update(pod.client.pod_state(self.design_id)["acks"])
        return acks

    def export_state(self) -> dict:
        """The merged runtime state across every live pod."""
        return merge_states(
            pod.client.pod_state(self.design_id)["state"]
            for pod in self._pods
            if pod.alive
        )

    def state_digest(self) -> str:
        """A digest byte-comparable with ``ValidationRuntime.state_digest``."""
        return state_digest_of(self.export_state())

    # ------------------------------------------------------------------ #
    # observability views
    # ------------------------------------------------------------------ #

    def _members(self) -> list[tuple[str, str, "ServiceClient", str]]:
        """``(member_id, role, client, host)`` for every dialable member."""
        members = [("directory", "directory", self._directory_client, self.directory_host)]
        members.extend(
            (pod.pod_id, "pod", pod.client, pod.host)
            for pod in self._pods
            if pod.alive and pod.client is not None
        )
        return members

    def metrics_endpoints(self) -> dict[str, str]:
        """``member_id -> http://host:port/metrics`` for members exposing one.

        The port is whatever the member advertises in ``ping()`` limits --
        works for thread and process spawns alike, since both resolve
        their ephemeral exporter port at start.
        """
        endpoints: dict[str, str] = {}
        for member_id, _role, client, host in self._members():
            port = client.ping().get("limits", {}).get("metrics_port")
            if port:
                endpoints[member_id] = f"http://{host}:{port}/metrics"
        return endpoints

    def scrape_all(self) -> str:
        """Scrape every member's /metrics and merge into one exposition.

        Each member's series gain ``pod`` and ``role`` labels, so the
        merged text stays valid Prometheus format with no series
        collisions across members.
        """
        parts: list[tuple[tuple[tuple[str, str], ...], str]] = []
        roles = {member_id: role for member_id, role, _c, _h in self._members()}
        for member_id, url in self.metrics_endpoints().items():
            with urllib.request.urlopen(url, timeout=10.0) as response:
                text = response.read().decode("utf-8")
            labels = (("pod", member_id), ("role", roles.get(member_id, "pod")))
            parts.append((labels, text))
        return merge_expositions(parts)

    def trace(self, trace_id: Optional[str] = None, limit: Optional[int] = None) -> list:
        """The federation's events that carry a trace id (optionally one id's)."""
        return self._events("trace", trace_id=trace_id, limit=limit)

    def logs(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
        level: Optional[str] = None,
    ) -> list:
        """The federation's events at or above a level floor (optionally one trace's)."""
        return self._events("logs", trace_id=trace_id, limit=limit, level=level)

    def _events(self, op: str, **filters) -> list:
        """Every member's ring pulled over the ``op`` wire op, merged by timestamp.

        This is how one publication's story that hops pod -> directory is
        reconstructed even when the members are separate OS processes.
        """
        events: list[dict] = []
        for _member_id, _role, client, _host in self._members():
            events.extend(getattr(client, op)(**filters)["events"])
        events.sort(key=lambda event: event.get("ts", 0.0))
        return events

    def health_endpoints(self) -> dict[str, dict[str, str]]:
        """``member_id -> {"healthz": url, "readyz": url}`` for exporting members."""
        endpoints: dict[str, dict[str, str]] = {}
        for member_id, url in self.metrics_endpoints().items():
            base = url.rsplit("/", 1)[0]
            endpoints[member_id] = {
                "healthz": f"{base}/healthz",
                "readyz": f"{base}/readyz",
            }
        return endpoints

    def resync(self) -> dict:
        """Force every live pod to re-join and re-push to the directory.

        The deterministic twin of waiting out the heartbeat after a
        directory restart or a healed partition.
        """
        outcomes = {}
        for pod in self._pods:
            if pod.alive:
                outcomes[pod.pod_id] = pod.client.lease_renew(pod.pod_id)
        return outcomes

    def propagate_typing(self, typing=None) -> dict:
        """Install a (new) typing federation-wide, fencing stale verdicts.

        Bumps the typing version, announces it to the directory (which
        marks every collected ack stale), then re-registers each pod's
        fragment under the new version and replays its functions' latest
        payloads -- the wire twin of
        :meth:`ValidationRuntime.propagate_typing`, which keeps the
        current documents too.
        """
        if typing is not None:
            types = dict(typing.items()) if hasattr(typing, "items") else dict(typing)
            missing = [f for f in self.kernel.functions if f not in types]
            if missing:
                raise DesignError(f"the typing has no component for {missing[0]!r}")
            self._types = types
        self.typing_version += 1
        self._directory_client.typing_update(self.typing_version)
        for pod in self._pods:
            if pod.alive:
                self._register_fragment(pod)
        return {"typing_version": self.typing_version}

    # ------------------------------------------------------------------ #
    # fault operations (what the chaos tests drive)
    # ------------------------------------------------------------------ #

    def kill_pod(self, index: int) -> str:
        """Kill one pod abruptly (no dereg, no graceful drain)."""
        pod = self._pods[index]
        if pod.client is not None:
            try:
                pod.client.close()
            except OSError:  # pragma: no cover
                pass
            pod.client = None
        if pod.proc is not None:
            pod.proc.kill()
            pod.proc.wait(timeout=_SHUTDOWN_DEADLINE)
            pod.proc = None
        if pod.handle is not None:
            # Thread spawn cannot SIGKILL a thread; closing the handle is
            # the closest analogue (the directory is *not* told either way).
            pod.handle.close()
            pod.handle = None
        pod.alive = False
        return pod.pod_id

    def respawn_pod(self, index: int) -> dict:
        """Boot a replacement pod and replay its fragment's state into it.

        The new pod re-registers the fragment (initial documents + the
        current typing version, which re-joins the directory under the
        same pod id with the new endpoint) and then re-publishes the
        latest wire payload of every function it owns, so its
        content-addressed runtime state converges to exactly what the
        killed pod held.
        """
        pod = self._pods[index]
        if pod.alive:
            raise DesignError(f"pod {pod.pod_id!r} is still alive")
        self._start_pod(pod)
        return self._register_fragment(pod)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def describe(self) -> dict:
        return {
            "design": self.design_id,
            "spawn": self.spawn,
            "directory": [self.directory_host, self.directory_port],
            "typing_version": self.typing_version,
            "pods": {
                pod.pod_id: {
                    "functions": list(pod.functions),
                    "endpoint": [pod.host, pod.port],
                    "alive": pod.alive,
                }
                for pod in self._pods
            },
        }

    def _shutdown_server(
        self,
        client: Optional[ServiceClient],
        proc: Optional[subprocess.Popen],
        handle: Optional[ServiceHandle],
    ) -> bool:
        """Gracefully stop one member; returns True when nothing leaked."""
        clean = True
        if client is not None:
            try:
                client.shutdown()
            except (ServiceError, OSError):
                pass  # already down; the wait below still applies
            try:
                client.close()
            except OSError:  # pragma: no cover
                pass
        if proc is not None:
            try:
                proc.wait(timeout=_SHUTDOWN_DEADLINE)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=_SHUTDOWN_DEADLINE)
                clean = False
        if handle is not None:
            handle.close()
        return clean

    def close(self) -> dict:
        """Shut the whole federation down; reports whether it was leak-free."""
        if self._closed:
            return {"clean": True, "already_closed": True}
        self._closed = True
        clean = True
        for pod in self._pods:
            if pod.alive:
                clean = self._shutdown_server(pod.client, pod.proc, pod.handle) and clean
                pod.client, pod.proc, pod.handle = None, None, None
                pod.alive = False
        clean = (
            self._shutdown_server(
                self._directory_client, self._directory_proc, self._directory_handle
            )
            and clean
        )
        self._directory_client = None
        self._directory_proc = None
        self._directory_handle = None
        return {"clean": clean}

    def __enter__(self) -> "Federation":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()
