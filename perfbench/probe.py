"""Host speed probes: a fixed pure-Python task timed on each CPU, all run long.

The benchmark runs on CPUs shared with other tenants, whose speed moves by
up to half from one minute to the next (see NOTES.md).  A probe is a
process pinned to one CPU that runs :func:`task` every :data:`INTERVAL`
seconds and records its thread CPU time.  The task never touches ``repro``,
so its cost moves with the host only.  A timing of a time window times
:data:`REFERENCE_MS` / :meth:`SpeedProbes.probe_ms` of that window reads as
on a CPU on which the task takes :data:`REFERENCE_MS`.

Run as a script, one probe samples until its standard input closes, then
prints its samples as one JSON list of ``[start_ns, cpu_ns]`` pairs.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Seconds between two samples; a sample takes about a millisecond, so a
#: probe takes about 1% of its CPU.
INTERVAL = 0.1

#: The task's thread CPU in milliseconds that scaled timings refer to:
#: about its median on a 2-vCPU Intel Xeon VM shared with other tenants,
#: where its median over a 30 s run ranged from 0.68 to 1.14 ms.
REFERENCE_MS = 1.0

#: Seconds a probe gets to print its samples and exit.
_EXIT_SECONDS = 30.0

_DOCUMENT = (
    "<root>"
    + "".join(
        f"<record><key>k{index}</key><field><value/></field><group><note/></group><stamp/></record>"
        for index in range(24)
    )
    + "</root>"
).encode()


def task() -> int:
    """A fixed mix of parsing, tree walking and interpreter arithmetic."""
    import xml.etree.ElementTree as ET

    counts: dict[str, int] = {}
    for _ in range(2):
        for element in ET.fromstring(_DOCUMENT).iter():
            counts[element.tag] = counts.get(element.tag, 0) + 1
    total = 0
    for value in range(6000):
        total += value * value % 7
    return total + sum(counts.values())


def sample(cpu: int, interval: float) -> list[tuple[int, int]]:
    """Time :func:`task` on ``cpu`` every ``interval`` s until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not select.select([sys.stdin], [], [], interval)[0]:
        started, cpu_started = time.perf_counter_ns(), time.thread_time_ns()
        task()
        samples.append((started, time.thread_time_ns() - cpu_started))
    return samples


class SpeedProbes:
    """One probe process per CPU, from construction to :meth:`stop`."""

    def __init__(self, cpus) -> None:
        self.samples: dict[int, list] = {}
        self._procs: dict[int, subprocess.Popen] = {}
        try:
            for cpu in sorted(cpus):
                self._procs[cpu] = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), str(cpu), str(INTERVAL)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
        except BaseException:
            self._kill()
            raise

    def __enter__(self) -> "SpeedProbes":
        return self

    def __exit__(self, kind, _value, _traceback) -> None:
        if kind is None:
            self.stop()
        else:
            self._kill()

    def stop(self) -> None:
        """Close every probe's stdin, collect its samples and reap it."""
        try:
            for cpu, proc in self._procs.items():
                output, _ = proc.communicate(timeout=_EXIT_SECONDS)
                if proc.returncode != 0:
                    raise RuntimeError(f"the speed probe on CPU {cpu} exited with {proc.returncode}")
                self.samples[cpu] = json.loads(output)
        finally:
            self._kill()

    def _kill(self) -> None:
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self._procs = {}

    def probe_ms(self, cpus, window_ns: tuple[int, int]) -> float:
        """Mean over ``cpus`` of the median task CPU (ms) started in the window.

        A window shorter than :data:`INTERVAL` may hold no sample of a CPU;
        its sample started nearest to the window's middle stands in.
        """
        start, end = window_ns
        middle = (start + end) // 2
        medians = []
        for cpu in cpus:
            samples = self.samples[cpu]
            if not samples:
                raise RuntimeError(f"the speed probe on CPU {cpu} took no sample")
            taken = [cost for started, cost in samples if start <= started <= end]
            if not taken:
                taken = [min(samples, key=lambda item: abs(item[0] - middle))[1]]
            medians.append(statistics.median(taken) / 1e6)
        return statistics.fmean(medians)


if __name__ == "__main__":
    json.dump(sample(int(sys.argv[1]), float(sys.argv[2])), sys.stdout)
