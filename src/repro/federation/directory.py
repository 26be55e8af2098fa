"""The federation directory server: membership, leases, verdict collection.

A :class:`DirectoryServer` is a :class:`~repro.service.server.ValidationServer`
that additionally serves the federation's coordination ops:

* ``join`` -- a pod registers itself with the functions it owns (and,
  optionally, its dialable endpoint).  Joining grants a lease of
  :attr:`DirectoryServer.lease_ttl` seconds; membership outlives the
  lease (an expired pod is reported, not forgotten) so that a global
  verdict can never silently shrink its coverage when a pod dies.
* ``lease_renew`` -- the pod's heartbeat.  A renewal from a pod the
  directory does not know (the directory restarted and lost its state)
  answers a typed ``unknown-pod`` error, which is the signal the pod uses
  to re-join and re-push its verdicts.
* ``typing_update`` -- installs a new typing version.  Every verdict
  recorded against an older version is fenced: it still exists, but the
  global verdict reports it stale and answers ``None`` until fresh acks
  arrive (the distributed twin of the runtime invalidating its cached
  acks on ``propagate_typing``).
* ``peer_verdict`` -- a pod pushes its per-function acknowledgements for
  one design, stamped with the typing version they were computed under.
* ``global_verdict`` -- derives the design's global verdict from the
  collected acks: ``True``/``False`` only when every joined function has
  a fresh acknowledgement, ``None`` while coverage is incomplete or any
  ack is stale.

All directory state lives on the event loop thread (like the design
registry of the base server), so the op handlers are plain synchronous
methods -- directly unit-testable without a socket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.service.server import OpError, ValidationServer

__all__ = ["DirectoryServer", "PodRecord"]

#: Default lease duration granted to a joining pod (seconds).
DEFAULT_LEASE_TTL = 30.0


def _verdict_state(valid: Optional[bool]) -> str:
    """The one-word state a tri-valued global verdict is reported as."""
    if valid is None:
        return "incomplete"
    return "valid" if valid else "invalid"


@dataclass
class PodRecord:
    """One pod's membership entry."""

    pod: str
    functions: tuple[str, ...]
    endpoint: Optional[tuple[str, int]]
    expires_at: float
    joins: int = 1

    def expired(self, now: float) -> bool:
        return now > self.expires_at


@dataclass
class _DesignVerdicts:
    """The collected per-function acknowledgements for one design."""

    #: function -> (ack, typing version it was computed under, pod id).
    acks: dict = field(default_factory=dict)


class DirectoryServer(ValidationServer):
    """A validation server that also coordinates a pod federation."""

    def __init__(self, *args, lease_ttl: float = DEFAULT_LEASE_TTL, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.logger.component = "directory"
        self.lease_ttl = lease_ttl
        self._pods: dict[str, PodRecord] = {}
        self._typing_version = 0
        self._verdicts: dict[str, _DesignVerdicts] = {}
        #: Injectable monotonic clock for deterministic lease tests.
        self._lease_clock = time.monotonic
        #: design -> the last global verdict derived here; lets a traced
        #: ``peer_verdict`` record the exact flip it caused.
        self._last_global: dict[str, Optional[bool]] = {}
        registry = self.metrics.registry
        self._gauge_pods_live = registry.gauge_family(
            "repro_federation_pods_live", "pods holding an unexpired lease"
        )
        self._gauge_pods_total = registry.gauge_family(
            "repro_federation_pods_joined", "pods ever joined (leases may be expired)"
        )
        self._gauge_lease_age = registry.gauge_family(
            "repro_federation_lease_age_seconds",
            "seconds since each pod's lease was last renewed",
            ("pod",),
        )
        self._gauge_typing_version = registry.gauge_family(
            "repro_federation_typing_version", "the federation's current typing version"
        )
        self._gauge_verdict = registry.gauge_family(
            "repro_federation_global_verdict",
            "one-hot global-verdict state per design (valid/invalid/incomplete)",
            ("design", "state"),
        )

    # ------------------------------------------------------------------ #
    # federation-wide exposition aggregates
    # ------------------------------------------------------------------ #

    def _render_metrics(self) -> str:
        self._refresh_federation_gauges()
        return super()._render_metrics()

    def _refresh_federation_gauges(self) -> None:
        """Rebuild the aggregate gauges from directory state, per scrape.

        Runs on the exporter's scrape thread while the op handlers mutate
        state on the event loop; the reads are snapshots of small dicts
        and a torn iteration (a pod joining mid-scrape) just means that
        scrape keeps the previous values -- never an error response.
        """
        try:
            pods = list(self._pods.values())
            designs = sorted(self._verdicts)
            now = self._lease_clock()
        except RuntimeError:  # pragma: no cover - mutated mid-iteration
            return
        live = sum(1 for record in pods if not record.expired(now))
        self._gauge_pods_live.labels().set(live)
        self._gauge_pods_total.labels().set(len(pods))
        self._gauge_typing_version.labels().set(self._typing_version)
        self._gauge_lease_age.clear()
        for record in pods:
            age = max(0.0, self.lease_ttl - (record.expires_at - now))
            self._gauge_lease_age.labels(pod=record.pod).set(round(age, 3))
        self._gauge_verdict.clear()
        for design in designs:
            state = _verdict_state(self._global_verdict_of(design)["valid"])
            for candidate in ("valid", "invalid", "incomplete"):
                self._gauge_verdict.labels(design=design, state=candidate).set(
                    1 if candidate == state else 0
                )

    # ------------------------------------------------------------------ #
    # readiness: the directory aggregates federation-wide health
    # ------------------------------------------------------------------ #

    def _readiness_checks(self) -> dict:
        """The directory is routable only while every joined pod is leased.

        A federation whose membership has expired entries cannot answer a
        complete global verdict, so balancers should stop sending design
        work here until the pods come back (or are deliberately removed).
        """
        checks = super()._readiness_checks()
        now = self._lease_clock()
        pods = list(self._pods.values())
        checks["federation_leases"] = all(not record.expired(now) for record in pods)
        return checks

    # ------------------------------------------------------------------ #
    # op dispatch
    # ------------------------------------------------------------------ #

    async def _execute(self, op, body, blob, connection):
        if op == "join":
            return self._join_pod(body)
        if op == "membership":
            return {"pods": self.membership(), "typing_version": self._typing_version}
        if op == "lease_renew":
            return self._renew_lease(body)
        if op == "typing_update":
            return self._typing_update(body)
        if op == "peer_verdict":
            return self._record_verdict(body)
        if op == "global_verdict":
            return self._global_verdict_of(body["design"])
        return await super()._execute(op, body, blob, connection)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def _join_pod(self, body: dict) -> dict:
        pod = body["pod"]
        functions = body["functions"]
        if not isinstance(pod, str) or not pod:
            raise OpError("bad-request", "'pod' must be a non-empty string")
        if not isinstance(functions, (list, tuple)):
            raise OpError("bad-request", "'functions' must be a list of function names")
        endpoint = body.get("endpoint")
        resolved = (str(endpoint[0]), int(endpoint[1])) if endpoint else None
        now = self._lease_clock()
        record = self._pods.get(pod)
        if record is None:
            record = PodRecord(pod, tuple(functions), resolved, now + self.lease_ttl)
            self._pods[pod] = record
        else:
            record.functions = tuple(functions)
            record.endpoint = resolved or record.endpoint
            record.expires_at = now + self.lease_ttl
            record.joins += 1
        self.logger.info(
            "pod.join", pod=pod, functions=len(record.functions),
            joins=record.joins, pods=len(self._pods),
        )
        return {
            "pod": pod,
            "lease_ttl": self.lease_ttl,
            "typing_version": self._typing_version,
            "pods": len(self._pods),
        }

    def _renew_lease(self, body: dict) -> dict:
        pod = body["pod"]
        record = self._pods.get(pod)
        if record is None:
            # The directory restarted (or reaped the pod): the pod must
            # re-join and re-push its verdicts -- this typed error is the
            # recovery signal its lease loop reacts to.
            raise OpError("unknown-pod", f"no pod joined under {pod!r}; re-join")
        record.expires_at = self._lease_clock() + self.lease_ttl
        return {
            "pod": pod,
            "lease_ttl": self.lease_ttl,
            "typing_version": self._typing_version,
        }

    def membership(self) -> dict:
        """The current membership view (pod -> functions / lease state)."""
        now = self._lease_clock()
        return {
            record.pod: {
                "functions": list(record.functions),
                "endpoint": list(record.endpoint) if record.endpoint else None,
                "expired": record.expired(now),
                "joins": record.joins,
            }
            for record in self._pods.values()
        }

    # ------------------------------------------------------------------ #
    # typing versions and verdicts
    # ------------------------------------------------------------------ #

    def _typing_update(self, body: dict) -> dict:
        version = body["version"]
        if not isinstance(version, int) or version < 0:
            raise OpError("bad-request", "'version' must be a non-negative integer")
        # Monotonic: a late-arriving older update can never roll the
        # federation back to a superseded typing.
        self._typing_version = max(self._typing_version, version)
        return {"version": self._typing_version}

    def _record_verdict(self, body: dict) -> dict:
        pod, design = body["pod"], body["design"]
        acks, version = body["acks"], body["typing_version"]
        if not isinstance(acks, dict):
            raise OpError("bad-request", "'acks' must be an object of function -> bool")
        if not isinstance(version, int):
            raise OpError("bad-request", "'typing_version' must be an integer")
        raw_trace = body.get("trace")
        trace_id = raw_trace if isinstance(raw_trace, str) and raw_trace else None
        before = self._last_global.get(design, self._global_verdict_of(design)["valid"])
        verdicts = self._verdicts.setdefault(design, _DesignVerdicts())
        for function, ack in acks.items():
            current = verdicts.acks.get(function)
            # Never let an ack computed under an older typing overwrite a
            # fresher one (out-of-order delivery across pods).
            if current is not None and current[1] > version:
                continue
            verdicts.acks[function] = (bool(ack), version, pod)
        after = self._global_verdict_of(design)["valid"]
        self._last_global[design] = after
        self.logger.log_flat(
            "info", "verdict.record", trace_id,
            "pod", pod, "design", design, "recorded", len(acks),
        )
        if after is not before:
            self.logger.log_flat(
                "info", "verdict.flip", trace_id,
                "design", design, "old", _verdict_state(before), "new", _verdict_state(after),
            )
        return {
            "design": design,
            "recorded": len(acks),
            "typing_version": self._typing_version,
        }

    def _global_verdict_of(self, design: str) -> dict:
        now = self._lease_clock()
        expected: list[str] = []
        expired_pods: list[str] = []
        for record in self._pods.values():
            expected.extend(record.functions)
            if record.expired(now):
                expired_pods.append(record.pod)
        verdicts = self._verdicts.get(design, _DesignVerdicts())
        acks: dict[str, bool] = {}
        stale: list[str] = []
        missing: list[str] = []
        for function in expected:
            entry = verdicts.acks.get(function)
            if entry is None:
                missing.append(function)
                continue
            ack, version, _pod = entry
            if version < self._typing_version:
                stale.append(function)
                continue
            acks[function] = ack
        complete = bool(expected) and not missing and not stale
        valid = all(acks.values()) if complete else None
        return {
            "design": design,
            "valid": valid,
            "complete": complete,
            "acks": acks,
            "stale": sorted(stale),
            "missing": sorted(missing),
            "typing_version": self._typing_version,
            "pods": len(self._pods),
            "expired_pods": sorted(expired_pods),
        }
