"""Table 3 (rows A-C) -- verifying a given typing: loc[S], ml[S], perf[S].

The paper separates the nFA-DTD / nFA-SDTD column (PSPACE) from the
nFA-EDTD column (EXPTIME-complete for ``loc``).  The benchmark verifies
typings of growing designs and checks the shape: for the same kernel, the
EDTD verification (which runs through tree-automaton equivalence and the
normalisation machinery) is more expensive than the DTD verification (which
reduces to word problems per kernel node).
"""

from __future__ import annotations

import time

import pytest

from repro.core.existence import find_local_typing, find_perfect_typing
from repro.core.locality import is_local, is_maximal_local, is_perfect
from repro.engine import CompilationEngine, use_engine
from repro.workloads import eurostat, synthetic

DTD_SIZES = (2, 3, 4)


@pytest.mark.parametrize("k", DTD_SIZES)
def test_loc_verification_dtd(benchmark, k):
    design = synthetic.separable_topdown_design(k)
    typing = find_perfect_typing(design)
    assert typing is not None
    assert benchmark(is_local, design, typing)


@pytest.mark.parametrize("k", DTD_SIZES)
def test_ml_verification_dtd(benchmark, k):
    design = synthetic.separable_topdown_design(k)
    typing = find_perfect_typing(design)
    assert benchmark(is_maximal_local, design, typing)


@pytest.mark.parametrize("k", DTD_SIZES)
def test_perf_verification_dtd(benchmark, k):
    design = synthetic.separable_topdown_design(k)
    typing = find_perfect_typing(design)
    assert benchmark(is_perfect, design, typing)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_loc_verification_edtd(benchmark, k):
    design = synthetic.edtd_topdown_design(k)
    typing = find_local_typing(design)
    assert typing is not None
    assert benchmark(is_local, design, typing)


def test_eurostat_verification(benchmark):
    design = eurostat.top_down_design(countries=2)
    typing = eurostat.figure4_typing(countries=2)
    assert benchmark(is_perfect, design, typing)


def test_dtd_vs_edtd_verification_shape(benchmark, table):
    """Table 3's column separation: EDTD verification costs more than DTD verification.

    Both designs share the kernel ``s0(f1 b(f2) f3)``; the EDTD target keeps
    ``k`` disjoint specialisations of ``b`` apart while the DTD target is its
    element-name projection (the DTD closure), so the only difference is the
    schema language the verification has to reason in.
    """
    from repro.core.design import TopDownDesign
    from repro.schemas.closures import dtd_closure

    k = 5
    edtd_design = synthetic.edtd_topdown_design(k)
    edtd_typing = find_local_typing(edtd_design)
    dtd_design = TopDownDesign(dtd_closure(edtd_design.target), edtd_design.kernel)
    dtd_typing = find_local_typing(dtd_design)
    assert edtd_typing is not None and dtd_typing is not None

    def cold_time(design, typing) -> float:
        # A fresh engine per run: on a warm one the check is a memo lookup,
        # and the two columns' costs would not show.
        with use_engine(CompilationEngine()):
            start = time.perf_counter()
            is_local(design, typing)
            return time.perf_counter() - start

    # Best of 5, interleaved so that a slow spell of the host hits both columns.
    runs = [(cold_time(dtd_design, dtd_typing), cold_time(edtd_design, edtd_typing)) for _ in range(5)]
    dtd_time = min(dtd for dtd, _edtd in runs)
    edtd_time = min(edtd for _dtd, edtd in runs)

    table(
        "Table 3 (loc verification: nFA-DTD vs nFA-EDTD, same kernel)",
        ["design", "loc[S] time"],
        [
            [f"nFA-DTD (projection, {k} contents)", f"{1000 * dtd_time:.2f} ms"],
            [f"nFA-EDTD ({k} specialisations)", f"{1000 * edtd_time:.2f} ms"],
        ],
    )
    assert edtd_time > dtd_time
    benchmark(is_local, edtd_design, edtd_typing)
