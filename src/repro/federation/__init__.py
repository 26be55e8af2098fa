"""Multi-process federation: peer pods + a directory server.

The paper's setting is a *network* of autonomous peers keeping one
distributed document typed (conf_pods_AbiteboulGM09, Section 1); this
package runs it as real processes instead of simulated peers:

* :mod:`~repro.federation.directory` -- the directory server: design
  membership with heartbeat leases, typing-version propagation, and
  per-peer verdict collection into a global verdict;
* :mod:`~repro.federation.pod` -- the peer pod: a full validation server
  owning a subset of the design's functions, joined to its directory and
  pushing verdict updates after every state change;
* :mod:`~repro.federation.orchestrator` -- :class:`Federation`: spawn a
  directory plus N pods (threads or child processes), route publications
  to the owning pod, and compare merged state digests against a
  single-process :class:`~repro.distributed.runtime.ValidationRuntime`.

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "directory": ("DirectoryServer", "PodRecord"),
        "orchestrator": ("SPAWN_MODES", "Federation"),
        "pod": ("PodServer",),
    },
)
