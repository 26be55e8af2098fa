"""Typing-change probe: where one retype of a perfbench-shaped design goes, in process.

A typing change is the paper's top-down step run again: a new global type
is propagated into one local type per peer, the client sends that typing,
and the server compiles every local type and re-checks every peer's
document against it.  This probe runs the change in one process over the
design of perfbench's single-server workloads, built by perfbench's own
generator (``perfbench/inputs.py``) -- the flat kernel ``s0(f1 ... fn)``
under a record DTD, each version adding a fresh element name, so every
peer's local type is ``root_fi -> record*`` plus the record rules -- and
prints the median of each stage over the versions:

* ``typing_ms``: ``find_perfect_typing`` over the version's global schema;
* ``render_ms``: the client's encoding of the typing (one
  ``DTD.describe()`` per peer);
* ``register_ms``: ``ValidationServer._register`` on a server that is never
  started, and the ``schemas_ms``, ``compile_ms`` and ``seed_ms`` that its
  ``design.register`` event reports;
* ``address_us``: ``tree_fingerprint`` over one parsed seed document.

Two counts are deterministic and are what ``--smoke`` gates: renderings per
typing (calls of ``nfa_to_regex_text``) and label tables built per
registration (``label-table`` misses of the runtime's engine)::

    PYTHONPATH=src python benchmarks/bench_typing_change.py
    PYTHONPATH=src python benchmarks/bench_typing_change.py --smoke
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time
from pathlib import Path

from repro.automata import to_regex
from repro.engine.batch import parse_payload
from repro.engine.compilation import CompilationEngine, use_engine
from repro.engine.fingerprint import tree_fingerprint
from repro.service.client import _schema_fields
from repro.service.server import ValidationServer

DESIGN = "probe"

#: The repository root, from which perfbench's input generator imports.
REPO = Path(__file__).resolve().parent.parent

#: The label-table kind of the runtime engine's stats, spelled out rather
#: than imported so that the probe also runs on a tree without shared
#: label tables (to size a change against its parent).
LABEL_TABLE_KIND = "label-table"


def perfbench_inputs():
    """perfbench's generator: the global record DTD of each version and its perfect typing."""
    if str(REPO) not in sys.path:
        sys.path.append(str(REPO))
    from perfbench import inputs

    return inputs


def seed_document(function: str, records: int = 8) -> str:
    """A ~1 KB document that every version accepts (each record keyed and stamped)."""
    record = (
        "<record><key>{key}</key><field><value/></field>"
        "<group><field/><field/></group><group><note/></group><stamp/></record>"
    )
    body = "".join(record.format(key=f"{function}-{index}") for index in range(records))
    return f"<root_{function}>{body}</root_{function}>"


class _Counted:
    """Count the calls of a module function (renderings of automaton content models)."""

    def __init__(self, module, name: str) -> None:
        self.module, self.name = module, name
        self.original = getattr(module, name)
        self.calls = 0

    def __enter__(self) -> "_Counted":
        def counted(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        setattr(self.module, self.name, counted)
        return self

    def __exit__(self, *_exc_info) -> None:
        setattr(self.module, self.name, self.original)


def _stage_fields(server: ValidationServer) -> dict:
    """The stage timings of the last ``design.register`` event (absent ones omitted)."""
    events = [event for event in server.logger.export() if event["name"] == "design.register"]
    return {key: events[-1][key] for key in ("schemas_ms", "compile_ms", "seed_ms") if key in events[-1]}


def probe(peers: int, versions: int) -> dict:
    """Run ``versions`` typing changes over ``peers`` peers; per-stage medians and counts."""
    inputs = perfbench_inputs()
    functions = [f"f{index}" for index in range(1, peers + 1)]
    documents = {function: seed_document(function) for function in functions}
    kernel = inputs.kernel_term(functions)
    server = ValidationServer()
    loop = asyncio.new_event_loop()
    samples: dict[str, list] = {}
    renderings, tables = [], []
    try:
        for version in range(1, versions + 1):
            started = time.perf_counter()
            typing = inputs.perfect_typing(version, functions)
            typed = time.perf_counter()
            # A fresh engine per typing, so each change renders as a first one would.
            with use_engine(CompilationEngine()), _Counted(to_regex, "nfa_to_regex_text") as rendered:
                schemas = _schema_fields(typing)
            encoded = time.perf_counter()
            body = {
                "design": DESIGN, "kernel": kernel, "schemas": schemas,
                "documents": documents, "replace": True,
            }
            result = loop.run_until_complete(server._register(body))
            registered = time.perf_counter()
            if result["valid"] is not True:
                raise AssertionError(f"version {version}: registration verdict {result['valid']!r}")
            stats = server.design(DESIGN).runtime.engine_stats()["by_kind"]
            renderings.append(rendered.calls)
            tables.append(stats.get(LABEL_TABLE_KIND, {}).get("misses"))
            stages = {
                "typing_ms": 1000 * (typed - started),
                "render_ms": 1000 * (encoded - typed),
                "register_ms": 1000 * (registered - encoded),
                **_stage_fields(server),
            }
            for key, value in stages.items():
                samples.setdefault(key, []).append(value)
        roots = [parse_payload(text) for text in documents.values()]
        for _ in range(versions):
            started = time.perf_counter()
            for root in roots:
                tree_fingerprint(root)
            samples.setdefault("address_us", []).append(1e6 * (time.perf_counter() - started) / peers)
    finally:
        loop.close()
    labels = len(typing[functions[0]].alphabet)
    return {
        "peers": peers,
        "versions": versions,
        "medians": {key: round(statistics.median(values), 3) for key, values in samples.items()},
        "renderings_per_typing": sorted(set(renderings)),
        "label_tables_per_registration": sorted(set(tables)),
        "labels_per_peer": labels,
    }


def smoke() -> dict:
    """The deterministic counts of a 16-peer change, checked.

    Each peer's root rule is the same solver-built ``record*`` automaton,
    so one typing renders one content model; each peer adds only its root
    label's table to those of the shared record rules.
    """
    summary = probe(16, 4)
    labels = summary["labels_per_peer"]
    assert summary["renderings_per_typing"] == [1], summary
    assert summary["label_tables_per_registration"] == [16 + labels - 1], summary
    return summary


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="check the deterministic counts (CI)")
    parser.add_argument("--versions", type=int, default=40, help="typing changes per design size")
    args = parser.parse_args(argv)
    if args.smoke:
        print(json.dumps(smoke(), indent=2, sort_keys=True))
        print("typing-change smoke OK")
        return 0
    for peers in (16, 32):
        print(json.dumps(probe(peers, args.versions), sort_keys=True))
    return 0


def test_typing_change_counts():
    smoke()


if __name__ == "__main__":
    raise SystemExit(main())
