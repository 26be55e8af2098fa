"""Shared pytest fixtures and hypothesis configuration."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.engine import CompiledSchema

# A single moderate profile: the property-based tests build automata and
# compare languages by brute force, which is slow per example; keep the
# example counts modest so the whole suite stays fast and deterministic.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture(params=["shared", "evicting"])
def label_tables(request, monkeypatch):
    """Run a test on both ways a label automaton steps.

    ``shared``: the default caps, so steps are looked up in tables other
    documents (and other tests) have filled.  ``evicting``: every
    ``CompiledSchema`` capped at one interned state and one successor per
    state, so nearly every step is computed afresh and drops the tables
    while runs in flight still hold states from them.
    """
    if request.param == "evicting":
        monkeypatch.setattr(CompiledSchema, "state_capacity", 1)
        monkeypatch.setattr(CompiledSchema, "transition_capacity", 1)
    return request.param
