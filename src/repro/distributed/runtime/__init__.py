"""The sharded, incremental distributed-validation runtime.

The serial :class:`~repro.distributed.network.DistributedDocument`
simulation validates peers one at a time on the calling thread.  This
package turns it into a runtime:

* :mod:`~repro.distributed.runtime.sharding` -- deterministic assignment of
  peers to shards;
* :mod:`~repro.distributed.runtime.scheduler` -- the scheduler running a
  round's shard tasks in the settling thread, on the runtime's one engine;
* :mod:`~repro.distributed.runtime.runtime` -- :class:`ValidationRuntime`:
  sharded local validation plus content-addressed incremental
  revalidation (only peers whose document fingerprint changed revalidate;
  the global verdict is re-derived from cached acknowledgements);
* :mod:`~repro.distributed.runtime.driver` -- :class:`WorkloadDriver`:
  replay synthetic publication workloads through the serial, runtime and
  centralized strategies and compare their cost ledgers.

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "driver": ("STRATEGIES", "StrategyOutcome", "WorkloadDriver", "WorkloadReport"),
        "runtime": (
            "RuntimeReport",
            "RuntimeStats",
            "StreamIngest",
            "StreamPublishReport",
            "ValidationRuntime",
            "merge_states",
            "state_digest_of",
        ),
        "scheduler": ("ShardScheduler",),
        "sharding": ("ShardMap",),
    },
)
