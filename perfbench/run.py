#!/usr/bin/env python3
"""Publication benchmark: closed-loop publishers against real server processes.

Usage, from the repository root::

    python3 perfbench/run.py --workload fresh_edits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see NOTES.md for why each exists and what it bypasses):

* ``fresh_edits`` -- 16 peers on one ``ValidationServer``; every
  publication is a new ~1 KB document (5% invalid, 1% malformed).
* ``steady_republish`` -- 32 peers on a 2-pod process federation; about
  97% of publications are byte-identical re-publications.
* ``large_streams`` -- 4 peers stream 0.25-1 MiB documents through
  chunked ``publish_stream`` (5% invalid).

Every run ends with a typing-change storm on the quiesced servers.  Every
reply is checked against the generator's own oracle, and the servers'
``stats`` counters must show the conditions the workload's name claims.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, and
prints the per-layer ledger.  The last line of standard output is one
JSON object; the exit code is 1 when any check failed.

End-to-end timings are scaled to a reference CPU speed that speed probes
(``probe.py``) measure on every CPU through the run; each line also shows
the timing as read.  Publication-phase metrics are medians over equal
time slices of the phase.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOOK = HERE / "hook"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: Equal time slices of the publication phase.  Its end-to-end metrics
#: are medians over the slices, so a disturbance of the host that lasts
#: less than half the phase does not move them.
SLICES = 5

#: Publication-phase metrics taken per slice, with their units.
SLICED = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "server_cpu_us_per_pub": "us",
}


@dataclass(frozen=True)
class Workload:
    name: str
    peers: int
    #: 0 runs one ValidationServer; otherwise a process federation.
    pods: int
    streamed: bool
    #: True when most publications re-publish byte-identical content (the
    #: clean share must reach 95%); otherwise it must stay below 1%.
    republishes: bool
    plan: Callable
    #: Publications per second the prepared inputs cover without repeating.
    rate_cap: float
    #: Typing changes in the storm that ends the run.
    retypes: int


def _workloads() -> dict[str, Workload]:
    from inputs import fresh_edits_plan, large_streams_plan, steady_republish_plan

    return {
        workload.name: workload
        for workload in (
            Workload("fresh_edits", 16, 0, False, False, fresh_edits_plan, 1800.0, 96),
            Workload("steady_republish", 32, 2, False, True, steady_republish_plan, 8000.0, 64),
            Workload("large_streams", 4, 0, True, False, large_streams_plan, 8.0, 32),
        )
    }


@dataclass
class Slice:
    """One time slice of a publication phase."""

    window_ns: tuple[int, int]
    #: Latencies of the publications acknowledged within the slice.
    latencies_ms: list
    #: CPU of every server process over the slice.
    server_cpu_s: float

    @property
    def seconds(self) -> float:
        return (self.window_ns[1] - self.window_ns[0]) / 1e9


@dataclass
class Phase:
    """One measured publication phase (and its storm) on one set of servers."""

    tally: object
    latencies_ms: array
    slices: list
    #: Publications of the measured phase: acknowledged (answered as the
    #: oracle expects) and sent; ``warm_pubs`` were sent off the clock.
    pubs: int
    sent: int
    warm_pubs: int
    seconds: float
    window_ns: tuple[int, int]
    storm_ns: tuple[int, int] = (0, 0)
    #: CPUs the server processes are pinned to.
    cpus: tuple = ()
    server_cpu_s: float = 0.0
    directory_cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    processes: int = 0
    retype_ms: list = field(default_factory=list)
    memo_hit_ratio: float = 0.0
    conditions: list = field(default_factory=list)

    @property
    def cpu_us_per_pub(self) -> float:
        return self.server_cpu_s * 1e6 / max(1, self.pubs)


def launch(workload: Workload, workdir: Path, typing: dict, seeds: dict, spans: Path | None):
    from servers import FederationServers, SingleServer, child_environment

    env = child_environment(SRC, HOOK if spans is not None else None, spans)
    if workload.pods:
        return FederationServers(workdir, env, typing, seeds, workload.pods)
    return SingleServer(workdir, env, typing, seeds)


def _runtime_totals(stats: dict) -> dict:
    from inputs import DESIGN

    design = stats.get("designs", {}).get(DESIGN)
    return design["runtime"] if design else {}


def check_conditions(workload: Workload, stats: dict, directory_stats, phase: Phase) -> list[str]:
    """What the servers' own counters say, against what the workload claims."""
    problems = []
    totals = {"publications": 0, "clean_publications": 0, "streamed_publications": 0}
    for server, snapshot in stats.items():
        runtime = _runtime_totals(snapshot)
        for key in totals:
            totals[key] += runtime.get(key, 0)
        shed = snapshot["service"]["counters"].get("shed.total", 0)
        if shed:
            problems.append(f"{server} shed {shed} requests")
    if directory_stats is not None and directory_stats["service"]["counters"].get("shed.total", 0):
        problems.append("the directory shed requests")
    sent = phase.sent + phase.warm_pubs
    if totals["publications"] != sent:
        problems.append(f"runtime publications {totals['publications']} != generator's {sent}")
    clean = totals["clean_publications"] / max(1, totals["publications"])
    if workload.republishes and clean < 0.95:
        problems.append(f"clean share {clean:.4f} is below 95%")
    if not workload.republishes and clean >= 0.01:
        problems.append(f"clean share {clean:.4f} is not below 1%")
    if directory_stats is not None:
        answered = directory_stats["service"]["counters"].get("requests.peer_verdict", 0)
        if answered < sent:
            problems.append(f"the directory answered {answered} peer_verdict for {sent} publishes")
    if workload.streamed and totals["streamed_publications"] != totals["publications"]:
        problems.append(
            f"streamed publications {totals['streamed_publications']} "
            f"!= publications {totals['publications']}"
        )
    return problems


def _memo_hit_ratio(stats: dict) -> float:
    from inputs import DESIGN

    hits = misses = 0
    for snapshot in stats.values():
        design = snapshot.get("designs", {}).get(DESIGN)
        if design:
            counters = design["engine"]["by_kind"].get("batch-validate", {})
            hits += counters.get("hits", 0)
            misses += counters.get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


async def mark_slices(pids, seconds: float, marks: list) -> None:
    """Append ``(perf_counter_ns, server CPU s)`` at each slice boundary."""
    from servers import cpu_seconds

    started = time.perf_counter()
    for index in range(SLICES + 1):
        await asyncio.sleep(max(0.0, started + index * seconds / SLICES - time.perf_counter()))
        marks.append((time.perf_counter_ns(), sum(cpu_seconds(pid) for pid in pids)))


def slice_phase(marks: list, latencies_ms, completed_ns) -> list[Slice]:
    """The slices between consecutive marks, each with the latencies ending in it."""
    slices = []
    for (start, cpu_start), (end, cpu_end) in zip(marks, marks[1:]):
        taken = [ms for ms, done in zip(latencies_ms, completed_ns) if start <= done < end]
        slices.append(Slice((start, end), taken, cpu_end - cpu_start))
    return slices


async def measure(workload: Workload, servers, plan, seconds: float, storm: bool) -> Phase:
    """Warm up, drive the closed loop, read every server, then run the storm."""
    from loadgen import Tally, closed_loop, connect, publish_round, storm_federation, storm_single
    from inputs import DESIGN
    from servers import cpu_seconds, peak_rss_mib

    pods = list(servers.pods.items())
    if workload.pods:
        clients = await connect([endpoint for _pod, (endpoint, _functions) in pods])
        route = {
            function: client
            for client, (_pod, (_endpoint, functions)) in zip(clients, pods)
            for function in functions
        }
        directory = (await connect([servers.directory]))[0]
    else:
        endpoint = pods[0][1][0]
        clients = await connect([endpoint, endpoint])
        route = {
            function: clients[index % len(clients)] for index, function in enumerate(plan.functions)
        }
        directory = None
    try:
        tally = Tally()
        await publish_round(route, plan.seeds, workload.streamed, tally)
        warm_pubs, warm_acked = tally.attempted, tally.acknowledged
        tally.latencies_ms, tally.completed_ns = array("d"), array("q")
        pids = servers.pids
        cpu_before = {pid: cpu_seconds(pid) for pid in pids}
        started = time.perf_counter_ns()
        marks: list[tuple[int, float]] = []
        await asyncio.gather(
            closed_loop(route, plan, seconds, workload.streamed, tally),
            mark_slices(pids, seconds, marks),
        )
        ended = time.perf_counter_ns()
        cpu_used = {pid: cpu_seconds(pid) - cpu_before[pid] for pid in pids}
        pubs, sent = tally.acknowledged - warm_acked, tally.attempted - warm_pubs
        latencies, tally.latencies_ms = tally.latencies_ms, array("d")
        completed, tally.completed_ns = tally.completed_ns, array("q")
        if plan.closing:
            await publish_round(route, plan.closing, workload.streamed, tally)
        phase = Phase(
            tally=tally,
            latencies_ms=latencies,
            slices=slice_phase(marks, latencies, completed),
            pubs=pubs,
            sent=sent,
            warm_pubs=tally.attempted - sent,
            seconds=tally.ended - tally.started,
            window_ns=(started, ended),
            cpus=tuple(servers.cpus),
            server_cpu_s=sum(cpu_used.values()),
            directory_cpu_s=sum(cpu for pid, cpu in cpu_used.items() if pids[pid] == "directory"),
            peak_rss_mib=sum(peak_rss_mib(pid) for pid in pids),
            processes=len(pids),
        )
        stats = {pod: await clients[index].stats() for index, (pod, _) in enumerate(pods)}
        directory_stats = await directory.stats() if directory is not None else None
        phase.memo_hit_ratio = _memo_hit_ratio(stats)
        phase.conditions = check_conditions(workload, stats, directory_stats, phase)
        expected = tally.expected_verdict(plan.functions)
        if directory is not None:
            verdict = (await directory.global_verdict(DESIGN))["valid"]
        else:
            verdict = (await clients[0].revalidate(DESIGN))["valid"]
        if verdict is not expected:
            tally.fail(f"global verdict {verdict!r} after the last publication, expected {expected}")
        if storm:
            storm_started = time.perf_counter_ns()
            versions = range(1, workload.retypes + 1)
            if directory is not None:
                pod_routes = [
                    (client, functions)
                    for client, (_pod, (_endpoint, functions)) in zip(clients, pods)
                ]
                phase.retype_ms = await storm_federation(
                    pod_routes, directory, plan, tally, versions, base=1
                )
            else:
                phase.retype_ms = await storm_single(clients[0], plan, tally, versions)
            phase.storm_ns = (storm_started, time.perf_counter_ns())
        return phase
    finally:
        for client in clients + ([directory] if directory is not None else []):
            await client.close()


def _percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def end_to_end(phase: Phase, setups: list[float], setup_ns: tuple[int, int], probes, notes: list) -> dict:
    """``name -> (value, unit, samples, raw)`` for the untraced run.

    Timings are brought to the reference speed of :mod:`probe`: each slice
    of the publication phase by the speed of the servers' CPUs over it,
    set-up and the storm, where the generator works as well, by that of
    every CPU.  A publication-phase metric is the median over the slices.
    ``raw`` is the timing as read, ``None`` for memory.
    """
    from probe import REFERENCE_MS

    sliced: dict[str, tuple[list, list]] = {name: ([], []) for name in SLICED}
    counted = [piece for piece in phase.slices if piece.latencies_ms]
    if not counted:
        raise RuntimeError("no publication was acknowledged within the publication phase")
    for piece in counted:
        factor = REFERENCE_MS / probes.probe_ms(phase.cpus, piece.window_ns)
        latencies = sorted(piece.latencies_ms)
        reads = {
            "throughput_per_s": (len(latencies) / piece.seconds, 1 / factor),
            "latency_p50_ms": (_percentile(latencies, 50), factor),
            "latency_p90_ms": (_percentile(latencies, 90), factor),
            "latency_p99_ms": (_percentile(latencies, 99), factor),
            "server_cpu_us_per_pub": (piece.server_cpu_s * 1e6 / len(latencies), factor),
        }
        for name, (raw, scale) in reads.items():
            sliced[name][0].append(raw * scale)
            sliced[name][1].append(raw)
    everywhere = sorted(probes.samples)
    setup_ms = probes.probe_ms(everywhere, setup_ns)
    storm_ms = probes.probe_ms(everywhere, phase.storm_ns)
    notes.append(
        f"speed probe: {probes.probe_ms(phase.cpus, phase.window_ns):.4f} ms on CPUs "
        f"{list(phase.cpus)} over the publication phase, {setup_ms:.4f} ms on CPUs {everywhere} "
        f"over set-up, {storm_ms:.4f} ms over the storm; timings are scaled to {REFERENCE_MS} ms"
    )
    samples = sum(len(piece.latencies_ms) for piece in counted)
    metrics = {
        name: (statistics.median(scaled), SLICED[name], samples, statistics.median(raws))
        for name, (scaled, raws) in sliced.items()
    }
    metrics["server_peak_rss_mib"] = (phase.peak_rss_mib, "MiB", phase.processes, None)
    for name, unit, raws, ms in (
        ("setup_s", "s", setups, setup_ms),
        ("retype_p50_ms", "ms", phase.retype_ms, storm_ms),
    ):
        raw = statistics.median(raws)
        metrics[name] = (raw * REFERENCE_MS / ms, unit, len(raws), raw)
    return metrics


def traced_ledger(
    phase: Phase, untraced: Phase, spans: Path, pids: dict, generator, probes, notes: list
) -> dict:
    """Per-layer metrics of a traced phase; per-process GC lines go to ``notes``."""
    import ledger

    records = ledger.load(spans, pids)
    publication = ledger.Fold(*phase.window_ns)
    storm = ledger.Fold(*phase.storm_ns)
    for pid, spans_of_process in records.items():
        process = ledger.Fold(*phase.window_ns)
        process.add(spans_of_process)
        notes.append(f"GC of {pids[pid]} process {pid}: {process.gc_summary()}")
        publication.absorb(process)
        storm.add(spans_of_process)
    generator_fold = ledger.Fold(*phase.storm_ns)
    generator_fold.add(generator.records())
    # The halves run minutes apart at the host's speed of the moment: the
    # overhead compares their CPU per publication at one speed.
    untraced_cpu_us_per_pub = (
        untraced.cpu_us_per_pub
        * probes.probe_ms(phase.cpus, phase.window_ns)
        / probes.probe_ms(untraced.cpus, untraced.window_ns)
    )
    metrics = ledger.per_layer(
        publication,
        storm,
        generator_fold,
        phase.pubs,
        len(phase.retype_ms),
        phase.server_cpu_s,
        phase.directory_cpu_s,
        phase.memo_hit_ratio,
        untraced_cpu_us_per_pub,
    )
    return {name: (value, unit, phase.pubs, None) for name, (value, unit) in metrics.items()}


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    failures: list
    conditions: list
    metrics: dict
    notes: list

    @property
    def correct(self) -> bool:
        return not self.failed and not self.conditions


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    from inputs import perfect_typing
    from probe import SpeedProbes

    notes: list[str] = []
    # The probes run from before the inputs are built, so they have started
    # by the first set-up; their samples are read once they stopped.
    with SpeedProbes(os.sched_getaffinity(0)) as probes:
        plan = workload.plan(seed, seconds, workload.peers, workload.rate_cap)
        typing = perfect_typing(0, plan.functions)
        for function in plan.functions:
            if typing[function].start != plan.roots[function]:
                raise RuntimeError(f"local type of {function} starts at {typing[function].start}")
        seeds = {function: plan.seeds[function].text() for function in plan.functions}
        # The prepared inputs live for the whole run: keep them out of the
        # generator's own collections.
        gc.collect()
        gc.freeze()
        try:
            if not trace:
                setups = []
                setup_started = time.perf_counter_ns()
                for _ in range(SETUPS - 1):
                    servers = launch(workload, workdir, typing, seeds, None)
                    setups.append(servers.setup_seconds)
                    servers.close()
                servers = launch(workload, workdir, typing, seeds, None)
                setups.append(servers.setup_seconds)
                setup_ns = (setup_started, time.perf_counter_ns())
                try:
                    phase = asyncio.run(measure(workload, servers, plan, seconds, storm=True))
                finally:
                    servers.close()
                tallies = [phase]
            else:
                import layertrace
                from repro.core import existence

                servers = launch(workload, workdir, typing, seeds, None)
                try:
                    untraced = asyncio.run(measure(workload, servers, plan, seconds / 2, storm=False))
                finally:
                    servers.close()
                spans = workdir / f"spans-{workload.name}"
                spans.mkdir()
                generator = layertrace.Recorder()
                original = existence.find_perfect_typing
                existence.find_perfect_typing = generator.span(original, "typing.perfect")
                try:
                    servers = launch(workload, workdir, typing, seeds, spans)
                    try:
                        phase = asyncio.run(measure(workload, servers, plan, seconds / 2, storm=True))
                        pids = dict(servers.pids)
                    finally:
                        servers.close()
                finally:
                    existence.find_perfect_typing = original
                tallies = [untraced, phase]
        finally:
            gc.unfreeze()
    if not trace:
        metrics = end_to_end(phase, setups, setup_ns, probes, notes)
    else:
        metrics = traced_ledger(phase, untraced, spans, pids, generator, probes, notes)
    return Result(
        workload.name,
        attempted=sum(p.tally.attempted for p in tallies),
        failed=sum(p.tally.failed for p in tallies),
        failures=[failure for p in tallies for failure in p.tally.failures],
        conditions=[condition for p in tallies for condition in p.conditions],
        metrics=metrics,
        notes=notes,
    )


def report(results: list[Result]) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    combined = len(results) > 1
    metrics = {}
    for result in results:
        for name, (value, unit, samples, raw) in result.metrics.items():
            read = "" if raw is None else f" read {raw:.4f}"
            print(f"{result.workload:<17} {name:<38} {value:>14.4f} {unit:<7} (n={samples}){read}")
            metrics[f"{result.workload}.{name}" if combined else name] = {"value": value, "unit": unit}
        ratio = result.failed / max(1, result.attempted)
        print(
            f"{result.workload:<17} {'failed_ratio':<38} {ratio:>14.4f} {'ratio':<7} "
            f"(n={result.attempted})"
        )
        for line in result.notes:
            print(f"{result.workload:<17} {line}")
        for line in result.failures + result.conditions:
            print(f"{result.workload:<17} CHECK FAILED: {line}")
    return {
        "correct": all(result.correct for result in results),
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HOOK), str(SRC)]
    workloads = _workloads()
    if args.workload != "all" and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads)} or all")
    names = list(workloads) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        results = [
            run_workload(workloads[name], args.seed, args.seconds, bool(args.trace), workdir)
            for name in names
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    summary = report(results)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
