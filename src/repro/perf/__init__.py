"""Host-performance harness for the simulator.

``python -m repro.perf`` measures how fast the host can turn the
simulation's crank — engine microbenchmarks, end-to-end simulated-ns
per host-second — and replays the seeded smoke scenarios against their
checked-in golden fingerprints, so a host-side change that moves a
simulated event fails the run.  Every timing is also expressed as a
ratio against a fixed in-process calibration loop
(:func:`repro.perf.microbench.calibration_loop`); the ratios are
machine-independent and are what CI regresses against.  Results land
in ``BENCH_sim.json``.  ``python -m repro.perf sweep`` farms
paper-scale points across host processes (:mod:`repro.perf.sweep`).
See ``docs/performance.md``.
"""

from .equivalence import (
    GOLDEN_SMOKE,
    SCENARIOS,
    bptree_scenario,
    bptree_setup,
    equivalence_failures,
    run_equivalence,
    tpcc_scenario,
    tpcc_setup,
    ycsb_scenario,
    ycsb_setup,
)
from .microbench import calibration_loop, run_microbenchmarks
from .simspeed import run_simspeed
from .sweep import POINTS, host_metadata, run_point, run_sweep

__all__ = [
    "GOLDEN_SMOKE",
    "POINTS",
    "SCENARIOS",
    "bptree_scenario",
    "bptree_setup",
    "calibration_loop",
    "equivalence_failures",
    "host_metadata",
    "run_equivalence",
    "run_microbenchmarks",
    "run_point",
    "run_simspeed",
    "run_sweep",
    "tpcc_scenario",
    "tpcc_setup",
    "ycsb_scenario",
    "ycsb_setup",
]
