"""One publication's events reconstructed across a process federation.

The acceptance gate for the event ring: the trace id a caller mints must
label every event the publication provokes -- pod admission, runtime
queue, shard settle, verdict push, directory record -- so that
``Federation.logs(tid)`` tells one time-ordered story, the same one
``Federation.trace(tid)`` returns, even when the members are separate OS
processes.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.federation import Federation
from repro.observability.logs import new_trace_id
from repro.workloads.synthetic import distributed_workload
from repro.trees.xml_io import tree_to_xml


@pytest.fixture(scope="module")
def workload():
    return distributed_workload(peers=3, documents=4, seed=13, records=4, fields=3)


def _publish_and_collect(workload, spawn):
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
        trace_id = new_trace_id()
        payload = tree_to_xml(workload.initial_documents[function])
        result = federation.publish(function, payload, trace_id=trace_id)
        assert result["valid"] in (True, False)
        logs = federation.logs(trace_id)
        trace = federation.trace(trace_id)
        health = {
            member: {kind: _get_json(url) for kind, url in urls.items()}
            for member, urls in federation.health_endpoints().items()
        }
        assert federation.close()["clean"]
    return trace_id, logs, trace, health


def _get_json(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


@pytest.mark.parametrize("spawn", ["thread", "process"])
def test_logs_and_trace_interleave_by_trace_id(workload, spawn):
    trace_id, logs, trace, health = _publish_and_collect(workload, spawn)

    assert logs, "the publication left no log lines"
    assert trace, "the publication left no trace events"
    assert all(event["trace"] == trace_id for event in logs)

    # The story spans process boundaries: the owning pod spoke and the
    # directory answered, in the same ring-merged log stream.
    components = {event["component"] for event in logs}
    assert any(component.startswith("pod:") for component in components), components
    assert "directory" in components, components

    steps = [(event["component"], event["name"]) for event in logs]
    published = next(
        index for index, (component, name) in enumerate(steps)
        if component.startswith("pod:") and name == "runtime.publish"
    )
    assert any(name == "verdict.push" for _component, name in steps)
    # Causality survives the merge: the publication was queued on the pod
    # before the directory could record its verdict.  (The pod's own
    # verdict.push lands after the round-trip, so it trails the record.)
    assert published < steps.index(("directory", "verdict.record"))

    # One ring, one export: the trace of the id is the same events.
    assert trace == logs

    # Every member answered its health endpoints while serving the run.
    assert len(health) == 3  # 2 pods + directory
    for _member, endpoints in health.items():
        healthz_status, healthz = endpoints["healthz"]
        readyz_status, readyz = endpoints["readyz"]
        assert healthz_status == 200 and healthz["status"] == "ok"
        assert readyz_status == 200 and readyz["ready"] is True


def test_level_floor_filters_the_federation_story(workload):
    with Federation(
        workload.kernel,
        workload.typing,
        workload.initial_documents,
        pods=2,
        spawn="thread",
        workers=2,
    ) as federation:
        function = next(iter(workload.initial_documents))
        trace_id = new_trace_id()
        payload = tree_to_xml(workload.initial_documents[function])
        federation.publish(function, payload, trace_id=trace_id)
        all_events = federation.logs(trace_id)
        warnings_only = federation.logs(trace_id, level="warning")
        assert federation.close()["clean"]
    assert all_events
    assert len(warnings_only) <= len(all_events)
    assert all(
        event["level"] in ("warning", "error") for event in warnings_only
    )


def test_untraced_logs_still_flow_without_a_trace_id(workload):
    """logs() without a trace id returns the whole federation chatter."""
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
        everything = federation.logs()
        assert federation.close()["clean"]
    # Lifecycle events (join, listen) appear even with no trace id minted.
    names = {event["name"] for event in everything}
    assert "pod.join" in names
    assert all("trace" not in event or event["trace"] for event in everything)
