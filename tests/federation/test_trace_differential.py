"""One publication's lifecycle reconstructed across a process federation.

The acceptance gate for end-to-end tracing: a trace id minted by the
caller must ride every wire frame a publication triggers -- pod op,
runtime publish, shard settle, verdict push to the directory -- so that
``Federation.trace(tid)`` can stitch the full story back together from
the per-member rings, across real OS process boundaries.
"""

from __future__ import annotations

import pytest

from repro.federation import Federation
from repro.observability.exposition import SAMPLE_LINE_RE
from repro.observability.logs import new_trace_id
from repro.workloads.synthetic import distributed_workload
from repro.trees.xml_io import tree_to_xml


@pytest.fixture(scope="module")
def workload():
    return distributed_workload(peers=3, documents=4, seed=13, records=4, fields=3)


def _lifecycle(federation, workload, function):
    trace_id = new_trace_id()
    payload = tree_to_xml(workload.initial_documents[function])
    result = federation.publish(function, payload, trace_id=trace_id)
    assert result["valid"] in (True, False)
    return trace_id, federation.trace(trace_id)


def _spawn_and_trace(workload, spawn):
    with Federation(
        workload.kernel,
        workload.typing,
        workload.initial_documents,
        pods=2,
        spawn=spawn,
        workers=2,
        metrics=True,
    ) as federation:
        function = next(iter(workload.initial_documents))
        trace_id, events = _lifecycle(federation, workload, function)
        scrape = federation.scrape_all()
        assert federation.close()["clean"]
    return trace_id, events, scrape


@pytest.mark.parametrize("spawn", ["thread", "process"])
def test_trace_spans_pods_and_directory(workload, spawn):
    trace_id, events, scrape = _spawn_and_trace(workload, spawn)

    assert events, "the publication left no trace"
    assert all(event["trace"] == trace_id for event in events)
    # Chronologically ordered when merged across members.
    stamps = [event["ts"] for event in events]
    assert stamps == sorted(stamps)

    components = {event["component"] for event in events}
    # The owning pod served the op and pushed its verdict...
    assert any(component.startswith("pod:") for component in components), components
    # ...and the directory recorded it: the id crossed the wire twice.
    assert "directory" in components, components

    names = {event["name"] for event in events}
    assert "op" in names
    assert "verdict.push" in names
    assert "verdict.record" in names

    push = next(event for event in events if event["name"] == "verdict.push")
    record = next(event for event in events if event["name"] == "verdict.record")
    assert push["component"].startswith("pod:")
    assert record["component"] == "directory"
    assert record["pod"] == push["component"].removeprefix("pod:")

    # The same run's merged scrape covers every member with pod/role labels.
    for line in scrape.splitlines():
        if line and not line.startswith("#"):
            assert SAMPLE_LINE_RE.match(line), f"bad merged sample: {line!r}"
    assert 'role="directory"' in scrape
    assert 'pod="pod-0"' in scrape and 'pod="pod-1"' in scrape
    assert "repro_requests_total" in scrape
    assert "repro_federation_pods_live" in scrape


def test_distinct_publications_keep_distinct_traces(workload):
    """Two publications in one federation never bleed into each other's trace."""
    with Federation(
        workload.kernel,
        workload.typing,
        workload.initial_documents,
        pods=2,
        spawn="thread",
        workers=2,
    ) as federation:
        functions = list(workload.initial_documents)[:2]
        first_id, first = _lifecycle(federation, workload, functions[0])
        second_id, second = _lifecycle(federation, workload, functions[1])
        assert federation.close()["clean"]
    assert first_id != second_id
    assert first and second
    assert {event["trace"] for event in first} == {first_id}
    assert {event["trace"] for event in second} == {second_id}


def test_untraced_publications_leave_no_events(workload):
    with Federation(
        workload.kernel,
        workload.typing,
        workload.initial_documents,
        pods=2,
        spawn="thread",
        workers=2,
    ) as federation:
        function = next(iter(workload.initial_documents))
        payload = tree_to_xml(workload.initial_documents[function])
        federation.publish(function, payload)
        assert federation.trace() == []
        assert federation.close()["clean"]
