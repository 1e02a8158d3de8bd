"""End-to-end simulation speed: simulated nanoseconds per host-second.

The sweeps that reproduce the paper's figures are budgeted in
host-seconds, so the number that matters is how much simulated time one
host-second buys on a realistic workload.  This bench times the seeded
YCSB, TPC-C and B+ tree smoke scenarios (the ones the golden
fingerprints pin) plus the Figure 9 YCSB smoke configuration, each
against the fixed :func:`~repro.perf.microbench.calibration_loop`.

The scenario timers measure the *run* phase only: building and loading
the database advances no simulated time, so folding it into a
simulated-ns-per-host-second figure would just dilute the number with
load work.  The Figure 9 entry deliberately times the whole
`bionicdb_ycsb_tput` call — that is what a sweep pays.

As in :mod:`repro.perf.microbench`, wall-clock reads only *measure*
host cost; all simulated behaviour is seeded and deterministic.  Timed
regions run under :func:`~repro.perf.microbench.quiesced_gc`, and each
bench is timed in interleaved pairs with the calibration loop
(:func:`~repro.perf.microbench.calibrated`).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional

from ..bench.fig09 import bionicdb_ycsb_tput
from .equivalence import SETUPS as _SETUPS
from .microbench import calibrated, quiesced_gc

__all__ = ["run_simspeed"]


def _scenario_sampler(setup: Callable,
                      scale: int) -> Callable[[], Dict[str, float]]:
    """One timed run phase per call; raises if repeats diverge."""
    first = []

    def sample() -> Dict[str, float]:
        # fresh setup each repeat: the run phase mutates database state
        _db, run = setup(scale)
        with quiesced_gc():
            t0 = time.perf_counter()   # det: allow(wall-clock)
            fp = run()
            dt = time.perf_counter() - t0   # det: allow(wall-clock)
        if not first:
            first.append(fp)
        elif fp != first[0]:
            raise RuntimeError("scenario is non-deterministic across repeats")
        return {"seconds": dt, "sim_ns": fp["now_ns"]}

    return sample


def _fig09_sampler() -> Callable[[], Dict[str, float]]:
    """One timed fig09 smoke call per call; raises if repeats diverge."""
    first = []

    def sample() -> Dict[str, float]:
        with quiesced_gc():
            t0 = time.perf_counter()   # det: allow(wall-clock)
            t = bionicdb_ycsb_tput(2, n_txns=60, records_per_partition=2000)
            dt = time.perf_counter() - t0   # det: allow(wall-clock)
        if not first:
            first.append(t)
        elif t != first[0]:
            raise RuntimeError("fig09 smoke is non-deterministic across repeats")
        return {"seconds": dt, "throughput_tps": t}

    return sample


def run_simspeed(smoke: bool = False, repeats: int = 3,
                 scenarios: Optional[Iterable[str]] = None
                 ) -> Dict[str, Dict[str, object]]:
    """Time the end-to-end scenarios.

    ``scenarios`` restricts the per-scenario timings to the named
    subset; the fig09 entry always runs.
    """
    scale = 1 if smoke else 4
    names = list(scenarios) if scenarios is not None else list(_SETUPS)
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        best, ratio = calibrated(repeats,
                                 _scenario_sampler(_SETUPS[name], scale))
        out[name] = {
            "scale": scale,
            "repeats": max(1, repeats),
            "sim_ns": best["sim_ns"],
            "host_seconds": best["seconds"],
            "sim_ns_per_host_sec": best["sim_ns"] / best["seconds"],
            "ratio_vs_calibration": ratio,
        }
    best, ratio = calibrated(repeats, _fig09_sampler())
    out["fig09_ycsb_smoke"] = {
        "repeats": max(1, repeats),
        "throughput_tps": best["throughput_tps"],
        "host_seconds": best["seconds"],
        "ratio_vs_calibration": ratio,
    }
    return out
