#!/usr/bin/env python
"""Machine-readable core-benchmark runner: ``BENCH_core.json`` across PRs.

Runs the table2 / table3 / fig7 scenarios (the same decision procedures the
pytest-benchmark modules time) with a plain ``perf_counter`` harness and
writes one JSON file mapping scenario name to mean milliseconds, problem
sizes, and the git SHA, so the performance trajectory of the repository is
diffable across PRs::

    PYTHONPATH=src python benchmarks/run_all.py                # full run
    PYTHONPATH=src python benchmarks/run_all.py --smoke        # CI-sized run
    PYTHONPATH=src python benchmarks/run_all.py --smoke \\
        --check benchmarks/BENCH_baseline.json --max-regression 3.0

``--check`` compares against a committed baseline and exits non-zero when
any scenario regressed by more than ``--max-regression`` (default 3×); new
or removed scenarios are reported but never fail the check.

Each scenario is timed twice: ``cold`` (fresh compilation engine every
round -- the end-to-end cost of a first analysis) and ``warm`` (one shared
engine -- the steady-state cost the serving layers see).  Means are over
``--rounds`` rounds after one untimed warm-up round for the warm case.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except Exception:  # pragma: no cover - git may be absent in CI images
        return "unknown"


# --------------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------------- #


def _scenario_table2_cons(language: str, n: int):
    """cons[S] on the bottom-up chain family (Table 2)."""
    from repro.core.consistency import check_consistency
    from repro.workloads import synthetic

    design = synthetic.bottom_up_chain(n)
    sizes = {"resources": n, "kernel": design.kernel.size, "typing": design.typing.size}

    def run():
        result = check_consistency(design.kernel, design.typing, language)
        assert result.consistent

    return run, sizes


def _scenario_table3_perfect(k: int):
    """∃-perf on the separable top-down family (Table 3 row E)."""
    from repro.core.existence import find_perfect_typing
    from repro.workloads import synthetic

    design = synthetic.separable_topdown_design(k)
    sizes = {"k": k}

    def run():
        assert find_perfect_typing(design) is not None

    return run, sizes


def _scenario_table3_local(k: int):
    """∃-loc on the interleaved word family (Table 3 row D)."""
    from repro.core.existence import find_local_typing
    from repro.workloads import synthetic

    design = synthetic.word_topdown_design(k)
    sizes = {"k": k}

    def run():
        assert find_local_typing(design) is not None

    return run, sizes


def _scenario_fig7_build(k: int, functions: int):
    """Perfect-automaton construction Ω(A, w) (Figure 7 / Algorithm 1)."""
    from repro.automata.regex import regex_to_nfa
    from repro.core.perfect import PerfectAutomaton
    from repro.core.words import KernelString

    symbols = ", ".join(f"x{i}" for i in range(1, k + 1))
    target = regex_to_nfa(f"({symbols})+", names=True)
    kernel = KernelString(
        [()] * (functions + 1), [f"f{i}" for i in range(1, functions + 1)]
    )
    sizes = {"target_states": k, "functions": functions}

    def run():
        perfect = PerfectAutomaton(target, kernel)
        assert perfect.compatible
        perfect.omega_nfa()

    return run, sizes


def _publication_pairs(peers: int, documents: int):
    """The driver's publication stream as ``(function, payload-bytes)`` pairs."""
    from repro.service.loadgen import publication_stream
    from repro.workloads import synthetic

    workload = synthetic.distributed_workload(
        peers=peers, documents=documents, seed=0, invalid_rate=0.05
    )
    return workload, [(f, p.encode("utf-8")) for f, p in publication_stream(workload)]


def _scenario_local_validation(peers: int, documents: int):
    """The tree-based per-publication path: parse to Tree, validate bottom-up.

    The PR 1 "local validation" baseline at wire granularity -- every
    payload arrives as bytes and is parsed before the compiled-schema run
    loop sees it.  The ``peak_kib`` extra records the tree path's peak
    allocation on the stream's largest document (what streaming avoids).
    """
    import tracemalloc

    from repro.engine import BatchValidator
    from repro.trees.xml_io import tree_from_xml

    workload, pairs = _publication_pairs(peers, documents)
    validators = {f: BatchValidator(workload.typing[f]) for f in workload.initial_documents}
    sizes = {"peers": peers, "documents": documents, "publications": len(pairs)}
    _function, largest = max(pairs, key=lambda item: len(item[1]))
    tracemalloc.start()
    tree_from_xml(largest)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    extras = {"peak_kib": round(peak / 1024, 1)}

    def run():
        for function, payload in pairs:
            validators[function].validate(tree_from_xml(payload))
        return extras

    return run, sizes


def _scenario_streaming_validate(peers: int, documents: int):
    """Event-driven validation of the same stream: wire bytes to verdict.

    Extras record the subsystem's memory story next to its wall-clock:
    peak allocation on the largest document (chunk-fed) and the stream's
    maximum document depth -- the O(depth) bound's two witnesses.
    """
    import tracemalloc

    from repro.streaming import StreamingValidator

    workload, pairs = _publication_pairs(peers, documents)
    machines = {f: StreamingValidator(workload.typing[f]) for f in workload.initial_documents}
    sizes = {"peers": peers, "documents": documents, "publications": len(pairs)}
    function, largest = max(pairs, key=lambda item: len(item[1]))
    max_depth = 0
    for probe_function, payload in pairs[: len(workload.initial_documents)]:
        run_probe = machines[probe_function].run()
        run_probe.feed(payload)
        run_probe.finish()
        max_depth = max(max_depth, run_probe.max_depth)
    tracemalloc.start()
    machines[function].validate_payload(largest, chunk_bytes=8192)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    extras = {"peak_kib": round(peak / 1024, 1), "max_doc_depth": max_depth}

    def run():
        for pair_function, payload in pairs:
            machines[pair_function].validate_payload(payload)
        return extras

    return run, sizes


#: Teardown callbacks registered by scenarios that hold live resources
#: (service handles, client sockets); run once after all timing is done.
_CLEANUPS: list = []


def _close_scenarios() -> None:
    while _CLEANUPS:
        _CLEANUPS.pop()()


#: Shared state of the two publish-latency scenarios (one server boot).
_PUBLISH_STATE: dict = {}


def _service_publish_state():
    """One server + client + pre-published payloads, shared by p50/p99."""
    if not _PUBLISH_STATE:
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceHandle, ValidationServer
        from repro.trees.xml_io import tree_to_xml
        from repro.workloads import synthetic

        workload = synthetic.distributed_workload(peers=8, documents=8, seed=0)
        handle = ServiceHandle(ValidationServer()).start()
        _CLEANUPS.append(handle.close)
        client = ServiceClient(handle.host, handle.port)
        _CLEANUPS.append(client.close)
        payloads = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}
        client.register_design(
            "bench", str(workload.kernel.tree), dict(workload.typing.items()), payloads
        )
        for function, payload in payloads.items():
            client.publish("bench", function, payload)  # first sight: validates
        _PUBLISH_STATE.update(client=client, payloads=payloads)
        _CLEANUPS.append(_PUBLISH_STATE.clear)
    return _PUBLISH_STATE["client"], _PUBLISH_STATE["payloads"]


def _scenario_service_publish(quantile: str):
    """Per-publish round-trip latency percentile over a live loopback service.

    A blocking client re-publishes byte-identical payloads (the steady
    state: fingerprint fast path, no validation rounds), so the number is
    the floor of the service stack -- framing, asyncio scheduling,
    admission batching, one sha256.  The scenario's extra key
    ``p50_ms``/``p99_ms`` carries the percentile; ``mean_ms`` stays the
    harness wall-clock of a whole round of publishes.  Both percentile
    scenarios drive the same server, booted here at build time so no
    timed round (in particular no "cold" round) absorbs the boot.
    """
    from repro.metrics import Histogram

    client, payloads = _service_publish_state()
    fraction = {"p50": 0.50, "p99": 0.99}[quantile]
    repeats = 4
    sizes = {"peers": 8, "publications_per_round": repeats * len(payloads)}

    def run():
        histogram = Histogram()
        for _ in range(repeats):
            for function, payload in payloads.items():
                started = time.perf_counter()
                result = client.publish("bench", function, payload)
                histogram.record(1000 * (time.perf_counter() - started))
                assert result["clean"]
        return {f"{quantile}_ms": round(histogram.percentile(fraction), 4)}

    return run, sizes


def _scenario_service_throughput(peers: int, documents: int):
    """Closed-loop service throughput: the headline publications/second.

    The extra ``throughput_per_s`` key is the acceptance number (>= 1k/s
    on loopback for the 8-peer record workload).
    """
    from repro.service.loadgen import run_load
    from repro.service.server import ServiceHandle, ValidationServer
    from repro.workloads import synthetic

    workload = synthetic.distributed_workload(
        peers=peers, documents=documents, seed=0, invalid_rate=0.05
    )
    handle = ServiceHandle(ValidationServer()).start()
    _CLEANUPS.append(handle.close)
    # Register at build time (one untimed warm-up replay), so neither the
    # cold nor the warm rounds pay the boot/registration cost.
    run_load(handle.host, handle.port, workload, design="bench", clients=4, pipeline=8)
    rounds = documents - peers + 1
    sizes = {"peers": peers, "documents": documents, "publications": rounds * peers, "clients": 4}

    def run():
        report = run_load(
            handle.host,
            handle.port,
            workload,
            design="bench",
            clients=4,
            pipeline=8,
            register=False,
        )
        assert report.errors == 0
        return {
            "throughput_per_s": round(report.throughput, 1),
            "p50_ms": round(report.p50_ms, 4),
            "p99_ms": round(report.p99_ms, 4),
            "publications": report.publications,
        }

    return run, sizes


def _scenario_observability_overhead(peers: int, documents: int):
    """The cost of full observability on the closed-loop throughput headline.

    One server carrying the full observability stack -- labeled metric
    families, the ``/metrics`` exporter, the event ring, the sampling
    profiler -- driven with the same workload twice per measurement:
    once fully observed (every publication mints and propagates a fresh
    trace id, the event ring records every op, the profiler samples at
    50 hz), once dormant (no ids, the ring disabled, profiler stopped, so
    every emit short-circuits and the exporter sits idle).  Using *one* server
    instance is the
    point: two separately-booted servers differ by up to ~10% from
    thread placement and allocator state alone, which drowns the few
    percent being measured.  Each round runs several back-to-back ABBA
    cycles (off/on/on/off, direction alternating) so drive-order bias
    cancels and load drift covers both sides equally.

    The gated number, ``observability_overhead_pct``, is the ratio of
    *lower-quartile per-drive process-CPU* (traced vs dormant), pooled
    across every drive of the whole bench run.  Wall-clock throughput
    ratios on this workload are bimodal at +-10% -- scheduler/core-
    placement states persist across whole 50 ms drives -- and no
    feasible number of drives stabilizes their median, while CPU noise
    is one-sided (interference and batching under-amortization only add
    cycles), so the low quartile converges on the true per-publication
    cost; an A/A run of the same harness reads ~0%.  Throughput medians
    are still reported alongside for the headline.  The CI bench job
    gates the overhead at <= 5%.
    """
    import gc

    from repro.service.loadgen import run_load
    from repro.service.server import ServiceHandle, ValidationServer
    from repro.workloads import synthetic

    workload = synthetic.distributed_workload(
        peers=peers, documents=documents, seed=0, invalid_rate=0.05
    )
    handle = ServiceHandle(ValidationServer(metrics_port=0)).start()
    _CLEANUPS.append(handle.close)
    run_load(handle.host, handle.port, workload, design="bench", clients=4, pipeline=8)
    plain_cpu: list[float] = []
    observed_cpu: list[float] = []
    plain_tps: list[float] = []
    observed_tps: list[float] = []
    rounds = documents - peers + 1
    sizes = {"peers": peers, "documents": documents, "publications": rounds * peers, "clients": 4}

    def drive(observe):
        # The whole stack toggles together: trace ids on the wire, the
        # event ring, and the 50 hz sampling profiler are one
        # "observed" posture (the CI gate covers their combined cost).
        server = handle.server
        if observe:
            server.logger.enabled = True
            server.profiler.start(hz=50, reset=False)
        else:
            server.profiler.stop()
            server.logger.enabled = False
        # Collect *between* drives so a full collection's pause never
        # lands inside one side of a pair (the peers' network logs keep
        # the heap growing across drives).
        gc.collect()
        start = time.process_time()
        report = run_load(
            handle.host, handle.port, workload, design="bench",
            clients=4, pipeline=8, register=False, trace=observe,
        )
        cpu = time.process_time() - start
        assert report.errors == 0
        return cpu, report.throughput

    def lower_quartile(values):
        return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]

    def run():
        observed = 0.0
        for cycle in range(3):
            # The cycle direction alternates (ABBA then BAAB) so any
            # position-in-cycle effect lands on each side equally often.
            if cycle % 2 == 0:
                off_a = drive(observe=False)
                on_a = drive(observe=True)
                on_b = drive(observe=True)
                off_b = drive(observe=False)
            else:
                on_a = drive(observe=True)
                off_a = drive(observe=False)
                off_b = drive(observe=False)
                on_b = drive(observe=True)
            plain_cpu.extend((off_a[0], off_b[0]))
            observed_cpu.extend((on_a[0], on_b[0]))
            plain_tps.extend((off_a[1], off_b[1]))
            observed_tps.extend((on_a[1], on_b[1]))
            observed = on_b[1]
        ratio = lower_quartile(observed_cpu) / max(lower_quartile(plain_cpu), 1e-9)
        overhead = max(0.0, (ratio - 1.0) * 100.0)
        return {
            "throughput_per_s": round(observed, 1),
            "plain_throughput_per_s": round(statistics.median(plain_tps), 1),
            "observed_throughput_per_s": round(statistics.median(observed_tps), 1),
            "plain_cpu_s_per_drive": round(lower_quartile(plain_cpu), 5),
            "observed_cpu_s_per_drive": round(lower_quartile(observed_cpu), 5),
            "observability_overhead_pct": round(overhead, 2),
        }

    return run, sizes


def _scenario_service_overload(factor: float, peers: int, documents: int):
    """Goodput under deliberate overload: offered load at ``factor`` times
    the unloaded closed-loop capacity, retrying clients against a bounded
    admission queue.

    The extras are the overload-survival headline: ``goodput_per_s`` (and
    its ratio to the unloaded throughput -- the number the chaos CI job
    gates at >= 0.6), tail latency under shedding, and how many
    publications were shed and retried.  Zero ``errors`` means every
    publication eventually landed exactly once (content-addressed dedup
    absorbs the re-publications).
    """
    from repro.service.client import RetryPolicy
    from repro.service.loadgen import run_load
    from repro.service.server import ServiceHandle, ValidationServer
    from repro.workloads import synthetic

    workload = synthetic.distributed_workload(
        peers=peers, documents=documents, seed=0, invalid_rate=0.0
    )
    handle = ServiceHandle(ValidationServer(max_queue_depth=128)).start()
    _CLEANUPS.append(handle.close)
    run_load(handle.host, handle.port, workload, design="bench", clients=4, pipeline=8)
    baseline = run_load(
        handle.host, handle.port, workload, design="bench", clients=4, pipeline=8,
        register=False,
    )
    offered = factor * baseline.throughput
    policy = RetryPolicy(attempts=10, base_delay=0.002, max_delay=0.05, seed=0)
    rounds = documents - peers + 1
    sizes = {
        "peers": peers,
        "documents": documents,
        "publications": rounds * peers,
        "max_queue_depth": 128,
        "overload_factor": factor,
    }

    def run():
        report = run_load(
            handle.host, handle.port, workload, design="bench",
            mode="open", rate=offered, clients=4, register=False, retry=policy,
        )
        assert report.errors == 0
        return {
            "goodput_per_s": round(report.goodput, 1),
            "goodput_ratio": round(report.goodput / max(baseline.throughput, 1e-6), 3),
            "offered_rate": round(offered, 1),
            "p99_ms": round(report.p99_ms, 4),
            "shed": report.shed,
            "retries": report.retries,
        }

    return run, sizes


def _scenario_federation_publish(pods: int, peers: int, documents: int):
    """Steady-state publish round-trips through a directory + pod federation.

    A thread-spawn federation (in-process servers on real loopback
    sockets) is booted at build time; each timed round re-publishes
    byte-identical payloads through the owning pods and reads the
    directory's global verdict.  Relative to ``service_publish_*`` this
    adds the orchestrator's routing, the pod's ``peer_verdict`` push
    (inside the publish round-trip, by design) and one directory
    ``global_verdict`` read per round.  The extra ``p50_ms`` is the
    per-publish latency percentile.
    """
    from repro.federation import Federation
    from repro.metrics import Histogram
    from repro.trees.xml_io import tree_to_xml
    from repro.workloads import synthetic

    workload = synthetic.distributed_workload(
        peers=peers, documents=documents, seed=0, invalid_rate=0.05,
        records=5, fields=3,
    )
    federation = Federation(
        workload.kernel, workload.typing, workload.initial_documents,
        pods=pods, spawn="thread", workers=2,
    )
    _CLEANUPS.append(lambda: federation.close())
    payloads = {f: tree_to_xml(doc) for f, doc in workload.initial_documents.items()}
    for function, payload in payloads.items():
        federation.publish(function, payload)  # first sight: validates
    repeats = 4
    sizes = {"pods": pods, "peers": peers, "publications_per_round": repeats * len(payloads)}

    def run():
        histogram = Histogram()
        for _ in range(repeats):
            for function, payload in payloads.items():
                started = time.perf_counter()
                result = federation.publish(function, payload)
                histogram.record(1000 * (time.perf_counter() - started))
                assert result["clean"]
        verdict = federation.global_verdict()
        assert verdict["complete"]
        return {
            "p50_ms": round(histogram.percentile(0.50), 4),
            "global_verdict": verdict["valid"],
        }

    return run, sizes


def _scenario_distributed_workload(strategy: str, peers: int, documents: int):
    """One full workload replay through the distributed runtime's driver.

    ``serial`` parses and revalidates every publication; ``runtime`` is the
    sharded thread-pool runtime with content-addressed incremental ingest.
    The recorded ratio between the two is the headline of PR 3 (the
    ``speedup_vs_serial`` key is derived in :func:`main`).
    """
    from repro.distributed.runtime import WorkloadDriver
    from repro.workloads import synthetic

    workload = synthetic.distributed_workload(
        peers=peers, documents=documents, seed=0, invalid_rate=0.05
    )
    driver = WorkloadDriver(workload, max_workers=4)
    sizes = {"peers": peers, "documents": documents, "workers": 4}

    def run():
        report = driver.run((strategy,))
        assert report.outcome(strategy).rounds == documents - peers + 1

    return run, sizes


def _scenarios(smoke: bool):
    cons_sizes = (2, 8) if smoke else (2, 4, 8)
    for language in ("EDTD", "SDTD", "DTD"):
        for n in cons_sizes:
            yield f"table2_cons_{language.lower()}_{n}", _scenario_table2_cons(language, n)
    for k in ((2,) if smoke else (2, 3, 4)):
        yield f"table3_exists_perfect_{k}", _scenario_table3_perfect(k)
    for k in ((2,) if smoke else (2, 3)):
        yield f"table3_exists_local_{k}", _scenario_table3_local(k)
    fig7_cases = ((8, 3),) if smoke else ((2, 1), (4, 2), (8, 3))
    for k, functions in fig7_cases:
        yield f"fig7_perfect_automaton_{k}_{functions}", _scenario_fig7_build(k, functions)
    documents = 24 if smoke else 40
    yield "local_validation_8", _scenario_local_validation(8, documents)
    yield "streaming_validate_8", _scenario_streaming_validate(8, documents)
    if not smoke:
        yield "streaming_validate_100", _scenario_streaming_validate(100, 110)
    for strategy in ("serial", "runtime"):
        yield (
            f"distributed_workload_{strategy}_8",
            _scenario_distributed_workload(strategy, 8, documents),
        )
    if not smoke:
        yield (
            "distributed_workload_runtime_100",
            _scenario_distributed_workload("runtime", 100, 200),
        )
    for quantile in ("p50", "p99"):
        yield f"service_publish_{quantile}", _scenario_service_publish(quantile)
    yield "service_throughput_8", _scenario_service_throughput(8, documents)
    yield "service_throughput_8_observed", _scenario_observability_overhead(8, documents)
    if not smoke:
        yield "service_throughput_100", _scenario_service_throughput(100, 110)
    yield "service_overload_4x", _scenario_service_overload(4.0, 8, 40 if smoke else 80)
    yield "federation_publish_2pods", _scenario_federation_publish(2, 4, 14)


# --------------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------------- #


def _time_rounds(run, rounds: int, fresh_engine: bool) -> tuple[list[float], object]:
    """Time ``rounds`` runs; also returns the last run's return value.

    Scenarios may return a dict of extra result keys (percentiles,
    throughput) that gets merged into their ``BENCH_core.json`` entry.
    """
    from repro.engine.compilation import reset_default_engine

    times = []
    last = None
    if not fresh_engine:
        reset_default_engine()
        last = run()  # warm-up: populate the engine caches
    for _ in range(rounds):
        if fresh_engine:
            reset_default_engine()
        start = time.perf_counter()
        last = run()
        times.append(time.perf_counter() - start)
    return times, last


def run_benchmarks(smoke: bool, rounds: int) -> dict:
    results = {}
    for name, (run, sizes) in _scenarios(smoke):
        cold, _ = _time_rounds(run, max(1, rounds // 3), fresh_engine=True)
        warm, extra = _time_rounds(run, rounds, fresh_engine=False)
        results[name] = {
            "mean_ms": round(1000 * statistics.mean(warm), 4),
            "min_ms": round(1000 * min(warm), 4),
            "cold_mean_ms": round(1000 * statistics.mean(cold), 4),
            "rounds": rounds,
            "sizes": sizes,
        }
        if isinstance(extra, dict):
            results[name].update(extra)
        print(
            f"{name:40s} warm {results[name]['mean_ms']:9.3f} ms   "
            f"cold {results[name]['cold_mean_ms']:9.3f} ms"
        )
    return results


def check_regressions(current: dict, baseline_path: Path, max_regression: float) -> int:
    """Fail when any scenario regressed by more than ``max_regression``.

    The baseline may come from a different machine (the committed one is
    recorded on a dev box, CI runs on shared runners), so raw wall-clock
    ratios conflate hardware speed with code regressions.  Ratios are
    therefore *normalized by the median ratio across all scenarios*: a
    uniformly slower machine shifts every ratio equally and normalizes
    away, while a genuine per-scenario regression stands out against the
    rest of the run.
    """
    baseline = json.loads(baseline_path.read_text())
    baseline_results = baseline.get("results", {})
    # Bound on how much the median ratio may normalize away.  Without it, a
    # change that slows *most* scenarios uniformly (e.g. a pessimization in
    # the shared kernel) would shift the median itself and pass unnoticed;
    # clamping means any across-the-board slowdown beyond this factor still
    # shows up as per-scenario regressions.
    max_machine_factor = 3.0
    ratios = {}
    for name, entry in current.items():
        reference = baseline_results.get(name)
        if reference is None:
            print(f"note: scenario {name} has no baseline entry (new scenario)")
            continue
        ratios[name] = (entry["mean_ms"] / max(reference["mean_ms"], 1e-6), reference["mean_ms"], entry["mean_ms"])
    for name in baseline_results:
        if name not in current:
            print(f"note: baseline scenario {name} was not run")
    if not ratios:
        print("no scenarios in common with the baseline; nothing to check")
        return 0
    machine_factor = statistics.median(ratio for ratio, _ref, _cur in ratios.values())
    machine_factor = min(max(machine_factor, 1.0 / max_machine_factor), max_machine_factor)
    print(f"machine factor (median ratio vs baseline, clamped to {max_machine_factor}x): {machine_factor:.2f}x")
    failures = []
    for name, (ratio, reference_ms, current_ms) in sorted(ratios.items()):
        normalized = ratio / max(machine_factor, 1e-6)
        status = "OK" if normalized <= max_regression else "REGRESSION"
        print(
            f"{name:40s} {reference_ms:9.3f} -> {current_ms:9.3f} ms  "
            f"({ratio:5.2f}x raw, {normalized:5.2f}x normalized)  {status}"
        )
        if normalized > max_regression:
            failures.append((name, normalized))
    if failures:
        print(f"\n{len(failures)} scenario(s) regressed by more than {max_regression}x (normalized):")
        for name, normalized in failures:
            print(f"  {name}: {normalized:.2f}x")
        return 1
    print(f"\nno scenario regressed by more than {max_regression}x (normalized)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized subset and fewer rounds")
    parser.add_argument("--rounds", type=int, default=None, help="timed rounds per scenario")
    parser.add_argument(
        "--output", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_core.json"
    )
    parser.add_argument("--check", type=Path, default=None, help="baseline JSON to compare against")
    parser.add_argument("--max-regression", type=float, default=3.0)
    args = parser.parse_args(argv)

    rounds = args.rounds if args.rounds is not None else (5 if args.smoke else 20)
    try:
        results = run_benchmarks(args.smoke, rounds)
    finally:
        _close_scenarios()
    serial = results.get("distributed_workload_serial_8")
    runtime = results.get("distributed_workload_runtime_8")
    if serial and runtime:
        speedup = round(serial["mean_ms"] / max(runtime["mean_ms"], 1e-6), 2)
        runtime["speedup_vs_serial"] = speedup
        print(f"\ndistributed runtime speedup vs serial (8 peers): {speedup}x")
    tree_path = results.get("local_validation_8")
    streaming = results.get("streaming_validate_8")
    if tree_path and streaming:
        speedup = round(tree_path["mean_ms"] / max(streaming["mean_ms"], 1e-6), 2)
        streaming["speedup_vs_tree"] = speedup
        print(f"streaming validation speedup vs tree path (8 peers): {speedup}x")
    payload = {
        "git_sha": _git_sha(),
        "smoke": args.smoke,
        "rounds": rounds,
        "python": sys.version.split()[0],
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")
    if args.check is not None:
        return check_regressions(results, args.check, args.max_regression)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
