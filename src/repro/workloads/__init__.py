"""Workloads: the paper's running example and synthetic design families.

* :mod:`repro.workloads.eurostat` -- the National Consumer Price Index
  example of Section 1 (Figures 1-6), used by the examples, the tests and
  the figure benchmarks.
* :mod:`repro.workloads.synthetic` -- parameterised families of kernels,
  types and designs used by the table benchmarks to exhibit the growth
  behaviours of Tables 2 and 3.

The two submodules are imported lazily (:func:`repro.lazy_exports`), when
first read.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "eurostat": ("eurostat",),
        "synthetic": ("synthetic",),
    },
)
