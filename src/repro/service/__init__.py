"""Validation-as-a-service: a network boundary over the distributed runtime.

The paper's setting is a network of autonomous peers keeping a
distributed document typed; everything below this package runs
in-process.  ``repro.service`` adds the actual service boundary:

* :mod:`~repro.service.protocol` -- the versioned, length-prefixed frame
  protocol (JSON body + raw-XML attachment, typed error frames);
* :mod:`~repro.service.server` -- the asyncio TCP server with its
  admission controller (micro-batched publications over a
  :class:`~repro.distributed.runtime.runtime.ValidationRuntime`, run on
  the event loop) and :class:`~repro.service.server.ServiceHandle` (a
  server on its own thread for blocking callers);
* :mod:`~repro.service.client` -- pipelined async and blocking clients;
* :mod:`~repro.service.metrics` -- the service metrics registry, sharing
  one counter implementation (:mod:`repro.metrics`) with the simulated
  peer network's byte/message ledger;
* :mod:`~repro.service.loadgen` -- open-/closed-loop load generation
  replaying :func:`~repro.workloads.synthetic.distributed_workload`
  streams over loopback, with goodput/shed accounting under overload;
* :mod:`~repro.service.faults` -- the seeded chaos proxy
  (:class:`~repro.service.faults.FaultyTransport`) that drops, delays,
  truncates, duplicates and severs frames deterministically, so every
  failure mode is a reproducible test.
"""

from repro.service.client import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from repro.service.faults import FaultPlan, FaultyTransport
from repro.service.loadgen import LoadReport, publication_stream, run_load
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ProtocolError,
)
from repro.service.server import ServiceHandle, ValidationServer

__all__ = [
    "AsyncServiceClient",
    "FaultPlan",
    "FaultyTransport",
    "LoadReport",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RETRYABLE_CODES",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "ServiceMetrics",
    "ValidationServer",
    "publication_stream",
    "run_load",
]
