"""The federation peer pod: a validation server that reports to a directory.

A :class:`PodServer` is a full :class:`~repro.service.server.ValidationServer`
-- it registers designs over the wire, ingests publications through the
micro-batch and streaming paths, and sheds overload exactly like a
standalone server -- plus the federation duties of a peer:

* on start it **joins** its directory with the functions it serves and its
  dialable endpoint, and keeps the membership alive with periodic
  ``lease_renew`` heartbeats;
* after every state-changing op (register, publish, stream end,
  revalidate) it **pushes** its per-function acknowledgements to the
  directory via ``peer_verdict`` -- inside the op's :meth:`_post_op` hook,
  so by the time the client sees the publish reply the directory's global
  verdict already reflects it;
* it answers ``pod_state`` with its runtime's exported validation state,
  which the orchestrator merges across pods for the differential
  state-digest check.

Directory communication is strictly **best-effort**: a partitioned or
dead directory never fails a client's publish -- the pod counts the
error (:attr:`PodServer.directory_errors`), drops the connection, and
retries on the next heartbeat.  A heartbeat answered with the typed
``unknown-pod`` error (the directory restarted and lost its membership)
triggers a full resync: re-join plus re-push of every design's verdicts.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from repro.service.client import AsyncServiceClient
from repro.service.protocol import ServiceError
from repro.service.server import ValidationServer

__all__ = ["PodServer"]

#: Default heartbeat period (seconds) between lease renewals.
DEFAULT_LEASE_INTERVAL = 5.0

#: Ops whose successful completion changes the acks the directory holds.
_VERDICT_OPS = frozenset({"publish", "publish_stream_end", "revalidate"})


class PodServer(ValidationServer):
    """A peer pod: a validation server joined to a federation directory."""

    def __init__(
        self,
        *args,
        pod_id: str,
        directory_host: Optional[str] = None,
        directory_port: Optional[int] = None,
        lease_interval: float = DEFAULT_LEASE_INTERVAL,
        directory_timeout: Optional[float] = 10.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.pod_id = pod_id
        self.logger.component = f"pod:{pod_id}"
        self.directory_host = directory_host
        self.directory_port = directory_port
        self.lease_interval = lease_interval
        self.directory_timeout = directory_timeout
        #: Count of failed directory interactions (partition tolerance is
        #: observable: the pod keeps serving while this climbs).
        self.directory_errors = 0
        self._directory_client: Optional[AsyncServiceClient] = None
        self._lease_task: Optional[asyncio.Task] = None
        #: Monotonic stamp of the last successful directory interaction;
        #: ``/readyz`` calls the lease stale past 3 heartbeat periods.
        self._lease_ok_at: Optional[float] = None
        #: design -> the typing version its verdicts are stamped with
        #: (supplied by the orchestrator as an extra ``register_design`` /
        #: ``typing_update`` field; defaults to 0).
        self._design_typing_version: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        await super().start()
        if self.directory_host is not None:
            await self._sync_directory()
            self._lease_task = asyncio.get_running_loop().create_task(
                self._lease_loop(), name="repro-pod-lease"
            )

    async def aclose(self) -> None:
        if self._lease_task is not None:
            self._lease_task.cancel()
            try:
                await self._lease_task
            except asyncio.CancelledError:
                pass
            self._lease_task = None
        await self._drop_directory_client()
        await super().aclose()

    # ------------------------------------------------------------------ #
    # op dispatch: the pod's own federation ops
    # ------------------------------------------------------------------ #

    async def _execute(self, op, body, blob, connection):
        if op == "pod_state":
            return self._pod_state(body["design"])
        if op == "typing_update":
            return self._typing_update(body)
        if op == "lease_renew":
            # A pod answering ``lease_renew`` is the orchestrator forcing
            # an immediate directory resync (deterministic recovery in
            # tests and operations, instead of waiting out a heartbeat).
            synced = await self._sync_directory()
            return {
                "pod": self.pod_id,
                "synced": synced,
                "directory_errors": self.directory_errors,
            }
        return await super()._execute(op, body, blob, connection)

    def _pod_state(self, design_id: str) -> dict:
        entry = self.design(design_id)
        return {
            "design": design_id,
            "pod": self.pod_id,
            "functions": sorted(entry.document.resources),
            "state": entry.runtime.export_state(),
            "acks": entry.runtime.peer_acks(),
            "typing_version": self._design_typing_version.get(design_id, 0),
        }

    def _typing_update(self, body: dict) -> dict:
        version = body["version"]
        if not isinstance(version, int) or version < 0:
            raise ServiceError("bad-request", "'version' must be a non-negative integer")
        design = body.get("design")
        targets = [design] if design else list(self._design_typing_version) or list(self._designs)
        for design_id in targets:
            current = self._design_typing_version.get(design_id, 0)
            self._design_typing_version[design_id] = max(current, version)
        return {"pod": self.pod_id, "version": version, "designs": sorted(targets)}

    async def _post_op(self, op: str, body: dict, result: dict) -> None:
        if op == "register_design":
            design_id = body["design"]
            version = body.get("typing_version", 0)
            if isinstance(version, int):
                self._design_typing_version[design_id] = version
            await self._sync_directory()
        elif op in _VERDICT_OPS:
            design_id = result.get("design") or body.get("design")
            if design_id:
                raw_trace = body.get("trace")
                trace_id = raw_trace if isinstance(raw_trace, str) and raw_trace else None
                await self._push_verdict(design_id, trace_id=trace_id)
        elif op == "typing_update":
            await self._sync_directory()

    # ------------------------------------------------------------------ #
    # directory communication (best-effort, never fails a client op)
    # ------------------------------------------------------------------ #

    async def _directory(self) -> Optional[AsyncServiceClient]:
        if self.directory_host is None or self.directory_port is None:
            return None
        if self._directory_client is None:
            self._directory_client = await AsyncServiceClient.connect(
                self.directory_host, self.directory_port, timeout=self.directory_timeout
            )
        return self._directory_client

    async def _drop_directory_client(self) -> None:
        client, self._directory_client = self._directory_client, None
        if client is not None:
            try:
                await client.close()
            except (ServiceError, OSError, RuntimeError):  # pragma: no cover
                pass

    async def _note_directory_error(self) -> None:
        self.directory_errors += 1
        self.logger.warning("directory.error", pod=self.pod_id, errors=self.directory_errors)
        await self._drop_directory_client()

    # ------------------------------------------------------------------ #
    # readiness: a pod is routable only while its lease is fresh
    # ------------------------------------------------------------------ #

    def lease_fresh(self) -> bool:
        """True while the directory acked us within 3 heartbeat periods.

        Vacuously true for a standalone pod (no directory configured):
        there is no federation to be absent from.
        """
        if self.directory_host is None:
            return True
        stamp = self._lease_ok_at
        return stamp is not None and time.monotonic() - stamp < 3 * self.lease_interval

    def _readiness_checks(self) -> dict:
        checks = super()._readiness_checks()
        checks["lease_fresh"] = self.lease_fresh()
        return checks

    def _note_lease_ok(self) -> None:
        self._lease_ok_at = time.monotonic()

    async def _sync_directory(self) -> bool:
        """(Re-)join and push every design's verdicts; False on failure.

        Retries once on a freshly-dialed connection: the common failure is
        a cached connection to a directory that has since restarted.
        """
        for _attempt in range(2):
            try:
                client = await self._directory()
                if client is None:
                    return False
                functions = sorted(
                    {
                        function
                        for entry in self._designs.values()
                        for function in entry.document.resources
                    }
                )
                await client.join(
                    self.pod_id, functions, endpoint=(self.host, self.port)
                )
                for design_id, entry in list(self._designs.items()):
                    await client.peer_verdict(
                        self.pod_id,
                        design_id,
                        entry.runtime.peer_acks(),
                        self._design_typing_version.get(design_id, 0),
                    )
                self._note_lease_ok()
                self.logger.info(
                    "directory.join", pod=self.pod_id,
                    functions=len(functions), designs=len(self._designs),
                )
                return True
            except (ServiceError, OSError, ConnectionError):
                # Drops the cached connection, so the retry re-dials.
                await self._note_directory_error()
        return False

    async def _push_verdict(self, design_id: str, trace_id: Optional[str] = None) -> bool:
        entry = self._designs.get(design_id)
        if entry is None:
            return False
        started = time.perf_counter()
        try:
            client = await self._directory()
            if client is None:
                return False
            await client.peer_verdict(
                self.pod_id,
                design_id,
                entry.runtime.peer_acks(),
                self._design_typing_version.get(design_id, 0),
                trace_id=trace_id,
            )
        except (ServiceError, OSError, ConnectionError):
            await self._note_directory_error()
            self.logger.log_flat(
                "warning", "verdict.push_failed", trace_id, "design", design_id, "pod", self.pod_id
            )
            return False
        self._note_lease_ok()
        self.logger.log_flat(
            "info", "verdict.push", trace_id, "design", design_id, "pod", self.pod_id,
            "ms", round(1000 * (time.perf_counter() - started), 3),
        )
        return True

    async def _lease_loop(self) -> None:
        while True:
            await asyncio.sleep(self.lease_interval)
            try:
                client = await self._directory()
                if client is None:
                    continue
                await client.lease_renew(self.pod_id)
                self._note_lease_ok()
            except ServiceError as error:
                if error.code == "unknown-pod":
                    # The directory restarted: membership and verdicts are
                    # gone.  Re-join and re-push everything.
                    self.logger.warning("directory.resync", pod=self.pod_id)
                    await self._sync_directory()
                else:
                    await self._note_directory_error()
            except (OSError, ConnectionError):
                await self._note_directory_error()
