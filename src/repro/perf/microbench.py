"""Engine microbenchmarks: host throughput of the simulation primitives.

Three hot paths, each timed against the fixed pure-Python
:func:`calibration_loop` in the same process, so the reported
``ratio_vs_calibration`` (calibration seconds per bench second) is
machine-independent where the raw rates are not:

* ``events`` — bare event-loop turnaround: processes yielding numeric
  delays (events fired per host-second).
* ``port_roundtrips`` — dependent DRAM reads through a
  :class:`~repro.sim.memory.MemoryPort` (round-trips per host-second).
* ``channel_msgs`` — producer/consumer over a :class:`~repro.sim.sync.Fifo`
  (messages per host-second).

Wall-clock reads below are the *measurement* of host cost — they never
influence simulated behaviour, which is why the determinism-lint
pragmas are legitimate.

Timed regions run with the garbage collector quiesced
(:func:`quiesced_gc`, the same discipline as :mod:`timeit`): a cyclic
collection triggered by heap state accumulated *outside* the bench —
a long pytest session, a prior CLI invocation — would otherwise land
inside one side's timing window and not the other's, and at
``--repeats 1`` a single such pause is enough to flip a ratio.  For the
same reason a bench and the calibration loop are timed in interleaved
pairs (:func:`calibrated`) rather than one's repeats after the
other's.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import statistics
import time
from typing import Callable, Dict, Tuple

from ..sim.clock import ClockDomain
from ..sim.memory import DramModel, Heap
from ..sim.sync import Fifo
from ..sim.engine import Engine

__all__ = ["run_microbenchmarks", "quiesced_gc", "calibration_loop",
           "calibrated"]


@contextlib.contextmanager
def quiesced_gc():
    """Collect garbage now, then keep the collector off while timing."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


Sample = Dict[str, float]


def calibration_loop(n: int = 30_000) -> Sample:
    """A fixed pure-Python workload, the yardstick for every ratio.

    It exercises what the simulator spends its host time on (a heap of
    ``(when, seq, fn, arg)`` items, generator resumptions, bound-method
    calls, attribute and dict traffic) and never changes, so a bench's
    seconds divided into the loop's measure the bench, not the host.
    """
    class Actor:
        __slots__ = ("state", "gen")

        def __init__(self) -> None:
            self.state = 0
            self.gen = self.body()
            next(self.gen)

        def body(self):
            while True:
                value = yield
                self.state = (self.state * 31 + value) & 0xFFFF

        def step(self, value: int) -> None:
            self.gen.send(value)

    actors = [Actor() for _ in range(16)]
    table: Dict[int, int] = {}
    heap: list = []
    with quiesced_gc():
        t0 = time.perf_counter()   # det: allow(wall-clock)
        for i in range(n):
            heapq.heappush(heap, ((i * 7919) % 97, i, actors[i & 15].step, i))
            if len(heap) > 32:
                _when, seq, fn, arg = heapq.heappop(heap)
                fn(arg)
                table[seq & 1023] = table.get(seq & 1023, 0) + 1
        dt = time.perf_counter() - t0   # det: allow(wall-clock)
    return {"seconds": dt}


def calibrated(repeats: int, bench: Callable[[], Sample]
               ) -> Tuple[Sample, float]:
    """Time ``bench`` against :func:`calibration_loop`; return the
    bench's fastest sample and its calibration ratio.

    ``bench`` returns a sample with its timed ``"seconds"``.  Each of
    the ``repeats`` rounds times both back to back, alternating which
    goes first; the ratio is the median over rounds of calibration
    seconds / bench seconds.  On a shared host the achievable speed
    drifts in stretches longer than one sample, so a ratio of two
    independent best-ofs can pair one side's best from a quiet stretch
    with the other's from a busy one; the two samples of a round share
    their stretch, and the median drops a round split by a change of
    pace.
    """
    best = None
    ratios = []
    for i in range(max(1, repeats)):
        if i % 2:
            calib = calibration_loop()
            sample = bench()
        else:
            sample = bench()
            calib = calibration_loop()
        ratios.append(calib["seconds"] / sample["seconds"])
        if best is None or sample["seconds"] < best["seconds"]:
            best = sample
    return best, statistics.median(ratios)


def _bench_events(n_yields: int) -> Dict[str, float]:
    eng = Engine()

    def ticker(n):
        for _ in range(n):
            yield 1.0

    for _ in range(4):
        eng.process(ticker(n_yields // 4))
    with quiesced_gc():
        t0 = time.perf_counter()   # det: allow(wall-clock)
        eng.run()
        dt = time.perf_counter() - t0   # det: allow(wall-clock)
    return {"seconds": dt, "events": float(eng.events_fired),
            "rate": eng.events_fired / dt}


def _bench_port(n_reads: int) -> Dict[str, float]:
    eng = Engine()
    clock = ClockDomain(eng, 125.0, name="bench")
    heap = Heap()
    dram = DramModel(eng, clock, heap)
    port = dram.new_port("bench", max_outstanding=4)
    base = heap.alloc(64)

    def reader(n):
        for i in range(n):
            yield port.read(base + (i & 63))   # dependent round-trips

    eng.process(reader(n_reads))
    with quiesced_gc():
        t0 = time.perf_counter()   # det: allow(wall-clock)
        eng.run()
        dt = time.perf_counter() - t0   # det: allow(wall-clock)
    return {"seconds": dt, "events": float(eng.events_fired),
            "rate": n_reads / dt}


def _bench_channel(n_msgs: int) -> Dict[str, float]:
    eng = Engine()
    fifo = Fifo(eng, capacity=16, name="bench")

    def producer(n):
        for i in range(n):
            yield fifo.put(i)

    def consumer(n):
        for _ in range(n):
            yield fifo.get()

    eng.process(producer(n_msgs))
    eng.process(consumer(n_msgs))
    with quiesced_gc():
        t0 = time.perf_counter()   # det: allow(wall-clock)
        eng.run()
        dt = time.perf_counter() - t0   # det: allow(wall-clock)
    return {"seconds": dt, "events": float(eng.events_fired),
            "rate": n_msgs / dt}


def run_microbenchmarks(smoke: bool = False,
                        repeats: int = 3) -> Dict[str, Dict[str, object]]:
    """Time each primitive; report rates and calibration ratios."""
    sizes = {
        "events": 50_000 if smoke else 200_000,
        "port_roundtrips": 5_000 if smoke else 20_000,
        "channel_msgs": 12_500 if smoke else 50_000,
    }
    benches = {
        "events": _bench_events,
        "port_roundtrips": _bench_port,
        "channel_msgs": _bench_channel,
    }
    out: Dict[str, Dict[str, object]] = {}
    for name, bench in benches.items():
        n = sizes[name]
        best, ratio = calibrated(repeats, lambda: bench(n))
        out[name] = {
            "n": n,
            "rate_per_sec": best["rate"],
            "ratio_vs_calibration": ratio,
            "events_fired": best["events"],
        }
    return out
