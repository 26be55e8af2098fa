"""Directory op handlers, driven directly (no socket)."""

from __future__ import annotations

import pytest

from repro.federation import DirectoryServer


@pytest.fixture
def directory():
    server = DirectoryServer()
    try:
        yield server
    finally:
        server.close_threads()


def push(directory, acks: dict, version: int = 0, pod: str = "p0") -> None:
    directory._record_verdict(
        {"pod": pod, "design": "d", "acks": acks, "typing_version": version}
    )


def flips(directory) -> list[tuple[str, str]]:
    return [
        (event["old"], event["new"])
        for event in directory.logger.export()
        if event["name"] == "verdict.flip"
    ]


def test_a_push_derives_the_global_verdict_once(monkeypatch):
    directory = DirectoryServer()
    try:
        directory._join_pod({"pod": "p0", "functions": ["f1", "f2"]})

        def push(acks: dict) -> None:
            directory._record_verdict(
                {"pod": "p0", "design": "d", "acks": acks, "typing_version": 0}
            )

        push({"f1": True, "f2": True})
        derive = directory._global_verdict_of
        calls = []
        monkeypatch.setattr(
            directory, "_global_verdict_of", lambda design: calls.append(design) or derive(design)
        )
        push({"f1": False})
        assert calls == ["d"]
        flips = [event for event in directory.logger.export() if event["name"] == "verdict.flip"]
        assert (flips[-1]["old"], flips[-1]["new"]) == ("valid", "invalid")
    finally:
        directory.close_threads()


def test_an_unchanged_push_keeps_the_verdict_without_deriving_it(directory, monkeypatch):
    directory._join_pod({"pod": "p0", "functions": ["f1", "f2"]})
    push(directory, {"f1": True, "f2": True})
    derive = directory._global_verdict_of
    calls = []
    monkeypatch.setattr(
        directory, "_global_verdict_of", lambda design: calls.append(design) or derive(design)
    )
    push(directory, {"f1": True, "f2": True})
    assert calls == []
    assert directory._last_global["d"] is True
    assert flips(directory) == [("incomplete", "valid")]
    records = [e for e in directory.logger.export() if e["name"] == "verdict.record"]
    assert len(records) == 2


def test_a_typing_update_stales_the_verdict_until_fresh_acks_arrive(directory):
    directory._join_pod({"pod": "p0", "functions": ["f1"]})
    push(directory, {"f1": True})
    directory._typing_update({"version": 1})
    push(directory, {"f1": True})  # nothing changed, but the acks are stale now
    assert directory._last_global["d"] is None
    push(directory, {"f1": True}, version=1)
    assert directory._last_global["d"] is True
    assert flips(directory) == [
        ("incomplete", "valid"), ("valid", "incomplete"), ("incomplete", "valid")
    ]


def test_a_join_makes_the_verdict_incomplete_even_on_an_unchanged_push(directory):
    directory._join_pod({"pod": "p0", "functions": ["f1"]})
    push(directory, {"f1": True})
    directory._join_pod({"pod": "p1", "functions": ["f2"]})
    push(directory, {"f1": True})
    assert directory._last_global["d"] is None
    assert flips(directory)[-1] == ("valid", "incomplete")
    push(directory, {"f2": True}, pod="p1")
    assert directory._last_global["d"] is True
