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

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "client": ("AsyncServiceClient", "RetryPolicy", "ServiceClient", "ServiceError"),
        "faults": ("FaultPlan", "FaultyTransport"),
        "loadgen": ("LoadReport", "publication_stream", "run_load"),
        "metrics": ("ServiceMetrics",),
        "protocol": ("MAX_FRAME_BYTES", "PROTOCOL_VERSION", "RETRYABLE_CODES", "ProtocolError"),
        "server": ("ServiceHandle", "ValidationServer"),
    },
)
