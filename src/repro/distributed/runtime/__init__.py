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
"""

from repro.distributed.runtime.driver import (
    STRATEGIES,
    StrategyOutcome,
    WorkloadDriver,
    WorkloadReport,
)
from repro.distributed.runtime.runtime import (
    RuntimeReport,
    RuntimeStats,
    StreamIngest,
    StreamPublishReport,
    ValidationRuntime,
    merge_states,
    state_digest_of,
)
from repro.distributed.runtime.scheduler import ShardScheduler
from repro.distributed.runtime.sharding import ShardMap

__all__ = [
    "STRATEGIES",
    "RuntimeReport",
    "RuntimeStats",
    "ShardMap",
    "ShardScheduler",
    "StrategyOutcome",
    "StreamIngest",
    "StreamPublishReport",
    "ValidationRuntime",
    "WorkloadDriver",
    "WorkloadReport",
    "merge_states",
    "state_digest_of",
]
