"""Engine microbenchmarks: host throughput of the simulation primitives.

Three hot paths, each timed on the production engine and on the
preserved pre-overhaul :class:`~repro.perf.refengine.ReferenceEngine`
so the reported ``speedup_vs_reference`` is machine-independent (both
engines run in the same process on the same host):

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
inside one engine's timing window and not the other's, and at
``--repeats 1`` a single such pause is enough to flip a
``speedup_vs_reference`` ratio.  For the same reason the two engines
are timed in interleaved pairs (:func:`paired_timing`) rather than one
engine's repeats after the other's.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from typing import Callable, Dict, Tuple

from ..sim.clock import ClockDomain
from ..sim.memory import DramModel, Heap
from ..sim.sync import Fifo
from ..sim.engine import Engine
from .refengine import ReferenceEngine

__all__ = ["run_microbenchmarks", "quiesced_gc", "paired_timing"]


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


def paired_timing(repeats: int, fast: Callable[[], Sample],
                  slow: Callable[[], Sample]) -> Tuple[Sample, Sample, float]:
    """Time two functions in interleaved pairs; return bests and speedup.

    Each function returns a sample with its timed ``"seconds"``.  Each
    of the ``repeats`` rounds times both back to back, alternating which
    goes first.  Returned are each side's fastest sample (the reported
    host rates) and the median over rounds of ``slow / fast`` seconds
    (the speedup).  On a shared host the achievable speed drifts in
    stretches longer than one sample, so a ratio of two independent
    best-ofs can pair one side's best from a quiet stretch with the
    other's from a busy one; the two samples of a round share their
    stretch, and the median drops a round split by a change of pace.
    """
    best_fast = best_slow = None
    ratios = []
    for i in range(max(1, repeats)):
        if i % 2:
            s = slow()
            f = fast()
        else:
            f = fast()
            s = slow()
        ratios.append(s["seconds"] / f["seconds"])
        if best_fast is None or f["seconds"] < best_fast["seconds"]:
            best_fast = f
        if best_slow is None or s["seconds"] < best_slow["seconds"]:
            best_slow = s
    return best_fast, best_slow, statistics.median(ratios)


def _bench_events(engine_factory: Callable, n_yields: int) -> Dict[str, float]:
    eng = engine_factory()

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


def _bench_port(engine_factory: Callable, n_reads: int) -> Dict[str, float]:
    eng = engine_factory()
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


def _bench_channel(engine_factory: Callable, n_msgs: int) -> Dict[str, float]:
    eng = engine_factory()
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
    """Time each primitive on both engines; report rates and speedups."""
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
        fast, ref, speedup = paired_timing(
            repeats, lambda: bench(Engine, n),
            lambda: bench(ReferenceEngine, n))
        if fast["events"] != ref["events"] and name == "events":
            # the ticker is pure engine; any event-count drift is a bug
            raise RuntimeError(
                f"microbench {name}: events_fired diverged "
                f"(fast={fast['events']} reference={ref['events']})")
        out[name] = {
            "n": n,
            "rate_per_sec": fast["rate"],
            "reference_rate_per_sec": ref["rate"],
            "speedup_vs_reference": speedup,
            "events_fired": fast["events"],
        }
    return out
