"""A simulated distributed-document substrate (the Active XML setting of Section 1).

The paper's resources are web services hosted by remote peers; there is no
network in this reproduction, so the peers are in-process objects with
explicit message and byte accounting.  The substrate lets the examples and
benchmarks exercise the scenario that motivates the theory: validating a
document that spans several machines either *centrally* (ship every remote
subtree to the coordinator and validate the materialised document against
the global type) or *locally* (each peer validates its own data against its
propagated local type; soundness of the typing then guarantees global
validity without shipping any data).

The names below are re-exported lazily (:func:`repro.lazy_exports`): each
submodule is imported when one of its names is first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "peer": ("Message", "Peer", "ResourcePeer"),
        "network": ("DistributedDocument", "Network", "ValidationReport"),
        "runtime.runtime": ("RuntimeReport", "RuntimeStats", "ValidationRuntime"),
        "runtime.driver": ("WorkloadDriver", "WorkloadReport"),
    },
)
