"""The per-layer ledger: span files of a traced run folded into metrics.

Spans are filtered to a time window (the publication phase, or the
typing-change storm) by their start stamp.  A layer's busy time is thread
CPU minus the GC CPU that ran inside it; GC is reported on its own.
``unattributed`` is server CPU (from ``/proc``) not covered by any root
span -- a span with no parent on its thread -- nor by a collection that
ran outside every span.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path

from layertrace import FIELDS, NAME_ID

_WIDTH = len(FIELDS)


class Totals:
    """Sums over the spans of one name."""

    __slots__ = ("count", "cpu", "busy", "wall", "aux", "aux2", "zero_aux", "max_wall")

    def __init__(self) -> None:
        self.count = self.cpu = self.busy = self.wall = 0
        self.aux = self.aux2 = self.zero_aux = self.max_wall = 0

    def mean(self, value: float) -> float:
        return value / self.count if self.count else 0.0


class Fold:
    """Per-name totals and root-span coverage over one time window."""

    def __init__(self, start_ns: int, end_ns: int) -> None:
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.totals = {name: Totals() for name in NAME_ID}
        #: CPU of root spans, collections outside every span included.
        self.covered_cpu = 0

    def add(self, records: array) -> None:
        names = list(NAME_ID)
        start_ns, end_ns = self.start_ns, self.end_ns
        for offset in range(0, len(records), _WIDTH):
            _sid, name, _tid, start, end, cpu, parent, gc_cpu, aux, aux2 = records[
                offset : offset + _WIDTH
            ]
            if not start_ns <= start <= end_ns:
                continue
            totals = self.totals[names[name]]
            wall = end - start
            totals.count += 1
            totals.wall += wall
            totals.aux += aux
            totals.aux2 += aux2
            totals.zero_aux += aux == 0
            if wall > totals.max_wall:
                totals.max_wall = wall
            if cpu >= 0:
                totals.cpu += cpu
                totals.busy += cpu - gc_cpu
                if parent == -1:
                    self.covered_cpu += cpu

    def absorb(self, other: "Fold") -> None:
        """Add another process's fold of the same window into this one."""
        for name, theirs in other.totals.items():
            mine = self.totals[name]
            for slot in Totals.__slots__:
                if slot != "max_wall":
                    setattr(mine, slot, getattr(mine, slot) + getattr(theirs, slot))
            mine.max_wall = max(mine.max_wall, theirs.max_wall)
        self.covered_cpu += other.covered_cpu

    def gc_summary(self) -> str:
        return " ".join(
            f"gen{g}={self[f'gc.gen{g}'].count} ({self[f'gc.gen{g}'].wall / 1e6:.1f} ms)"
            for g in range(3)
        )

    def __getitem__(self, name: str) -> Totals:
        return self.totals[name]


def load(directory: Path, pids) -> dict[int, array]:
    """The span records each listed process wrote at exit."""
    spans = {}
    for pid in pids:
        header = directory / f"spans-{pid}.json"
        if not header.exists():
            raise RuntimeError(f"server process {pid} wrote no spans")
        meta = json.loads(header.read_text(encoding="utf-8"))
        if tuple(meta["fields"]) != FIELDS or tuple(meta["names"]) != tuple(NAME_ID):
            raise RuntimeError(f"span file of process {pid} has another layout")
        records = array("q")
        records.frombytes((directory / f"spans-{pid}.bin").read_bytes())
        spans[pid] = records
    return spans


def per_layer(
    publication: Fold,
    storm: Fold,
    generator: Fold,
    pubs: int,
    retypes: int,
    server_cpu_s: float,
    directory_cpu_s: float,
    memo_hit_ratio: float,
    untraced_cpu_us_per_pub: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    p = publication
    pubs = max(1, pubs)
    per_retype = 1.0 / max(1, retypes)
    us, ms = 1e-3, 1e-6

    parse = p["xml.parse"].busy * us / pubs
    build = p["tree_from_xml"].busy * us / pubs - parse
    fold = p["dfa.fold"].busy * us / pubs
    gc_cpu = sum(p[f"gc.gen{g}"].cpu for g in range(3)) * us / pubs
    server = server_cpu_s * 1e6 / pubs
    covered = p.covered_cpu * us / pubs
    fed_bytes = p["streaming.feed"].aux
    metrics = {
        "server.cpu_us_per_pub": (server, "us"),
        "xml.parse.cpu_us_per_pub": (parse, "us"),
        "tree.build.cpu_us_per_pub": (build, "us"),
        "dfa.fold.cpu_us_per_pub": (fold, "us"),
        "gc.cpu_us_per_pub": (gc_cpu, "us"),
        "remainder.cpu_us_per_pub": (server - parse - build - fold - gc_cpu, "us"),
        "tree.from_xml.wait_us_per_pub": (
            (p["tree_from_xml"].wall - p["tree_from_xml"].cpu) * us / pubs, "us"
        ),
        "dfa.fold.wait_us_per_pub": ((p["dfa.fold"].wall - p["dfa.fold"].cpu) * us / pubs, "us"),
        "dfa.reject_ratio": (p["dfa.fold"].mean(p["dfa.fold"].zero_aux), "ratio"),
        "engine.memo_hit_ratio": (memo_hit_ratio, "ratio"),
        "gc.pause_us_per_pub": (sum(p[f"gc.gen{g}"].wall for g in range(3)) * us / pubs, "us"),
        "gc.gen2.max_pause_ms": (p["gc.gen2"].max_wall * ms, "ms"),
        "runtime.rounds_per_pub": (p["runtime.round"].count / pubs, "ratio"),
        "runtime.round.wall_ms_mean": (p["runtime.round"].mean(p["runtime.round"].wall) * ms, "ms"),
        "runtime.shard_wait_ms_mean": (
            p["runtime.map_shards"].mean(p["runtime.map_shards"].wall - p["runtime.map_shards"].cpu)
            * ms,
            "ms",
        ),
        "runtime.parse_failed_ratio": (p["tree_from_xml"].mean(p["tree_from_xml"].aux), "ratio"),
        "admission.wait_ms_mean": (
            p["admission.batch"].aux2 / p["admission.batch"].aux * ms if p["admission.batch"].aux else 0.0,
            "ms",
        ),
        "admission.batch_size_mean": (p["admission.batch"].mean(p["admission.batch"].aux), "count"),
        "admission.batch.cpu_us_per_pub": (p["admission.batch"].cpu * us / pubs, "us"),
        "runtime.publish.cpu_us_per_pub": (p["runtime.publish"].cpu * us / pubs, "us"),
        "runtime.clean_ratio": (p["runtime.publish"].mean(p["runtime.publish"].aux), "ratio"),
        "fingerprint.cpu_us_per_pub": (p["fingerprint"].cpu * us / pubs, "us"),
        "protocol.decode.cpu_us_per_pub": (p["protocol.decode"].cpu * us / pubs, "us"),
        "protocol.encode.cpu_us_per_pub": (p["protocol.encode"].cpu * us / pubs, "us"),
        "protocol.frames_per_pub": (
            (p["protocol.decode"].count + p["protocol.encode"].count) / pubs, "count"
        ),
        "logs.cpu_us_per_pub": (p["logs.log_flat"].cpu * us / pubs, "us"),
        "network.messages_per_pub": (p["network.send"].count / pubs, "count"),
        "federation.push.wall_ms_mean": (
            p["federation.push"].mean(p["federation.push"].wall) * ms, "ms"
        ),
        "federation.push_changed_ratio": (p["federation.push"].mean(p["federation.push"].aux), "ratio"),
        "federation.push_failed_ratio": (p["federation.push"].mean(p["federation.push"].aux2), "ratio"),
        "directory.cpu_us_per_pub": (directory_cpu_s * 1e6 / pubs, "us"),
        "streaming.feed.cpu_ms_per_mib": (
            p["streaming.feed"].cpu * ms / (fed_bytes / 2**20) if fed_bytes else 0.0, "ms/MiB"
        ),
        "runtime.settle_stream.cpu_us_per_pub": (p["runtime.settle_stream"].cpu * us / pubs, "us"),
        "register.wall_ms_per_retype": (storm["register.build_design"].wall * ms * per_retype, "ms"),
        "compile.cpu_ms_per_retype": (storm["compile"].cpu * ms * per_retype, "ms"),
        "typing.perfect.cpu_ms_per_retype": (generator["typing.perfect"].cpu * ms * per_retype, "ms"),
        "unattributed.cpu_us_per_pub": (server - covered, "us"),
        "ledger.coverage_pct": (100.0 * covered / server if server else 0.0, "%"),
        "tracing.overhead_pct": (
            100.0 * (server / untraced_cpu_us_per_pub - 1.0) if untraced_cpu_us_per_pub else 0.0, "%"
        ),
    }
    for generation in range(3):
        totals = p[f"gc.gen{generation}"]
        metrics[f"gc.gen{generation}.collections"] = (float(totals.count), "count")
        metrics[f"gc.gen{generation}.pause_ms"] = (totals.wall * ms, "ms")
    return metrics
