"""Directory op handlers, driven directly (no socket)."""

from __future__ import annotations

from repro.federation import DirectoryServer


def test_a_push_derives_the_global_verdict_once(monkeypatch):
    directory = DirectoryServer(runtime_workers=1)
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
