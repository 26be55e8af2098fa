"""The unified DesignSession API: one design, four execution substrates.

Every mode must answer the same verdicts for the same publications, the
design-free statics must not warn, and unknown modes must fail
with errors that name the valid choices.
"""

from __future__ import annotations

import pytest

from repro.api import MODES, DesignSession, ExecutionConfig, dtd, new_trace_id
from repro.errors import DesignError
from repro.trees.xml_io import tree_to_xml
from repro.workloads.synthetic import distributed_workload


def build_workload():
    return distributed_workload(peers=3, documents=8, seed=2, invalid_rate=0.4, records=4, fields=3)


def replay(session, workload):
    current = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}
    verdicts = []
    for event in workload.events:
        current[event.function] = tree_to_xml(event.document)
        for function, payload in current.items():
            result = session.publish(function, payload)
        verdicts.append(result["valid"])
    return verdicts


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_answers_the_same_verdicts(mode):
    workload = build_workload()
    with DesignSession(
        workload.kernel, workload.typing, workload.initial_documents, mode="serial"
    ) as baseline:
        expected = replay(baseline, workload)
    config = ExecutionConfig(mode=mode, workers=2)
    with DesignSession(
        workload.kernel, workload.typing, workload.initial_documents, config
    ) as session:
        assert session.mode == mode
        actual = replay(session, workload)
        final = session.validate()
        assert final["valid"] == expected[-1]
        report = session.report()
    assert actual == expected
    assert report["valid"] == expected[-1]
    assert report["functions"] == sorted(workload.initial_documents)


def test_publish_stream_agrees_with_publish():
    workload = build_workload()
    payloads = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}
    for mode in ("runtime", "service"):
        with DesignSession(
            workload.kernel, workload.typing, workload.initial_documents, mode=mode, workers=2
        ) as session:
            for function, payload in payloads.items():
                streamed = session.publish_stream(function, payload.encode("utf-8"), chunk_bytes=64)
                assert streamed["valid"] is True


def test_endpoint_is_exposed_only_for_dialable_modes():
    workload = build_workload()
    with DesignSession(
        workload.kernel, workload.typing, workload.initial_documents, mode="runtime"
    ) as session:
        assert session.endpoint is None
    with DesignSession(
        workload.kernel, workload.typing, workload.initial_documents, mode="service"
    ) as session:
        host, port = session.endpoint
        assert port > 0


def test_unknown_mode_names_the_valid_choices():
    with pytest.raises(DesignError) as excinfo:
        ExecutionConfig(mode="sharded")
    message = str(excinfo.value)
    for mode in MODES:
        assert mode in message


def test_config_and_overrides_are_mutually_exclusive():
    workload = build_workload()
    with pytest.raises(DesignError):
        DesignSession(
            workload.kernel,
            workload.typing,
            workload.initial_documents,
            ExecutionConfig(mode="serial"),
            mode="runtime",
        )


def test_closed_session_refuses_the_verbs():
    workload = build_workload()
    session = DesignSession(
        workload.kernel, workload.typing, workload.initial_documents, mode="serial"
    )
    session.close()
    session.close()  # idempotent
    with pytest.raises(DesignError):
        session.validate()


def test_runtime_trace_has_one_event_per_site():
    workload = build_workload()
    event = workload.events[0]
    trace_id = new_trace_id()
    with DesignSession(
        workload.kernel, workload.typing, workload.initial_documents, mode="runtime", workers=2
    ) as session:
        session.publish(event.function, tree_to_xml(event.document), trace_id=trace_id)
        names = [entry["name"] for entry in session.trace(trace_id)]
        assert session.logs(trace_id) == session.trace(trace_id)
    assert sorted(names) == ["runtime.publish", "shard.settle"]


class TestDesignFreeStatics:
    def test_the_new_statics_do_not_warn(self, recwarn):
        schema = dtd("r", {"r": "a*"})
        assert DesignSession.stream_validate(schema, "<r/>") is True
        report = DesignSession.run_workload(peers=2, documents=4, workers=2)
        assert report.verdicts_agree
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]
