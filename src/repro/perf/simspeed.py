"""End-to-end simulation speed: simulated nanoseconds per host-second.

The sweeps that reproduce the paper's figures are budgeted in
host-seconds, so the number that matters is how much simulated time one
host-second buys on a realistic workload.  This bench times the seeded
YCSB and TPC-C smoke scenarios (the same ones the cycle-equivalence
checker replays) plus the Figure 9 YCSB smoke configuration, on both
the production engine and the pre-overhaul
:class:`~repro.perf.refengine.ReferenceEngine`.

The YCSB/TPC-C timers measure the *run* phase only: building and
loading the database advances no simulated time, so folding it into a
simulated-ns-per-host-second figure would just dilute the number with
engine-independent host work.  The Figure 9 entry deliberately times
the whole `bionicdb_ycsb_tput` call — that is what a sweep pays.

As in :mod:`repro.perf.microbench`, wall-clock reads only *measure*
host cost; all simulated behaviour is seeded and deterministic.  Timed
regions run under :func:`~repro.perf.microbench.quiesced_gc` so a
cyclic collection owed to heap state from *outside* the bench cannot
land in one engine's window and skew ``speedup_vs_reference``, and the
two sides of every ratio are timed in interleaved pairs
(:func:`~repro.perf.microbench.paired_timing`).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional

from ..bench.fig09 import bionicdb_ycsb_tput
from ..softcore import SoftcoreConfig
from .equivalence import SETUPS as _SETUPS
from .microbench import paired_timing, quiesced_gc
from .refengine import ReferenceEngine

__all__ = ["run_simspeed", "time_compiled_tier"]


def _scenario_sampler(setup: Callable, engine_factory: Optional[Callable],
                      scale: int) -> Callable[[], Dict[str, float]]:
    """One timed run phase per call; raises if repeats diverge."""
    first = []

    def sample() -> Dict[str, float]:
        # fresh setup each repeat: the run phase mutates database state
        _db, run = setup(engine_factory, scale)
        with quiesced_gc():
            t0 = time.perf_counter()   # det: allow(wall-clock)
            fp = run()
            dt = time.perf_counter() - t0   # det: allow(wall-clock)
        if not first:
            first.append(fp)
        elif fp != first[0]:
            raise RuntimeError("scenario is non-deterministic across repeats")
        return {"seconds": dt, "sim_ns": fp["now_ns"],
                "events_fired": fp["events_fired"]}

    return sample


def _fig09_sampler(engine_factory: Optional[Callable],
                   softcore: Optional[SoftcoreConfig] = None
                   ) -> Callable[[], Dict[str, float]]:
    """One timed fig09 smoke call per call; raises if repeats diverge."""
    first = []

    def sample() -> Dict[str, float]:
        with quiesced_gc():
            t0 = time.perf_counter()   # det: allow(wall-clock)
            t = bionicdb_ycsb_tput(2, n_txns=60, records_per_partition=2000,
                                   engine_factory=engine_factory,
                                   softcore=softcore)
            dt = time.perf_counter() - t0   # det: allow(wall-clock)
        if not first:
            first.append(t)
        elif t != first[0]:
            raise RuntimeError("fig09 smoke is non-deterministic across repeats")
        return {"seconds": dt, "throughput_tps": t}

    return sample


def time_compiled_tier(repeats: int = 3) -> Dict[str, object]:
    """Time the fig09 smoke whole-call on both execution tiers.

    The compiled tier must produce an identical simulated throughput
    (its equivalence is enforced field-by-field in repro.perf
    equivalence); here only the *host* cost ratio is measured.  The
    tiers are timed in ``repeats`` interleaved pairs and the whole call
    is timed — loading included — because that is what a sweep pays
    per point.
    """
    compiled, interp, speedup = paired_timing(
        repeats, _fig09_sampler(None, softcore=SoftcoreConfig(compiled=True)),
        _fig09_sampler(None))
    if interp["throughput_tps"] != compiled["throughput_tps"]:
        raise RuntimeError(
            f"fig09 smoke: simulated throughput diverged between tiers "
            f"(interpreted={interp['throughput_tps']} "
            f"compiled={compiled['throughput_tps']})")
    return {
        "repeats": max(1, repeats),
        "throughput_tps": compiled["throughput_tps"],
        "host_seconds": compiled["seconds"],
        "interpreted_host_seconds": interp["seconds"],
        "speedup_vs_interpreted": speedup,
    }


def run_simspeed(smoke: bool = False, repeats: int = 3,
                 scenarios: Optional[Iterable[str]] = None
                 ) -> Dict[str, Dict[str, object]]:
    """Time the end-to-end scenarios on both engines.

    ``scenarios`` restricts the per-scenario timings to the named
    subset; the fig09 and compiled-tier entries always run.
    """
    scale = 1 if smoke else 4
    names = list(scenarios) if scenarios is not None else list(_SETUPS)
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        setup = _SETUPS[name]
        fast, ref, speedup = paired_timing(
            repeats, _scenario_sampler(setup, None, scale),
            _scenario_sampler(setup, ReferenceEngine, scale))
        if (fast["sim_ns"], fast["events_fired"]) != \
                (ref["sim_ns"], ref["events_fired"]):
            raise RuntimeError(
                f"simspeed {name}: simulated timing diverged between "
                f"engines (fast={fast} reference={ref})")
        out[name] = {
            "scale": scale,
            "repeats": max(1, repeats),
            "sim_ns": fast["sim_ns"],
            "host_seconds": fast["seconds"],
            "sim_ns_per_host_sec": fast["sim_ns"] / fast["seconds"],
            "reference_host_seconds": ref["seconds"],
            "speedup_vs_reference": speedup,
        }
    fast, ref, speedup = paired_timing(repeats, _fig09_sampler(None),
                                       _fig09_sampler(ReferenceEngine))
    if fast["throughput_tps"] != ref["throughput_tps"]:
        raise RuntimeError(
            f"fig09 smoke: simulated throughput diverged between engines "
            f"(fast={fast['throughput_tps']} ref={ref['throughput_tps']})")
    out["fig09_ycsb_smoke"] = {
        "repeats": max(1, repeats),
        "throughput_tps": fast["throughput_tps"],
        "host_seconds": fast["seconds"],
        "reference_host_seconds": ref["seconds"],
        "speedup_vs_reference": speedup,
    }
    out["fig09_compiled_tier"] = time_compiled_tier(repeats)
    return out
