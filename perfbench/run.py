"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ycsb_c_paper --seed 1 --seconds 15 --trace 0

Workloads: ``ycsb_c_paper``, ``tpcc_mix``, ``ycsb_e_scan`` and
``serving_ycsb_b`` (see ``perfbench/workloads.py`` for why each is here).
The default seed is 1; seed 7919 is held out, for checking a claimed
gain on inputs it was not tuned on.

One invocation sets the workload up repeatedly in this process (at
least ``min_reps`` times, and until ``--seconds`` have passed) and runs
the inputs after each of the first ``max_runs`` setups.  Every
repetition uses the same inputs, so every simulated figure must repeat
exactly, which is checked; host times are reported as medians.
Simulated figures are those of the modelled machine; ``setup_s``,
``run_s``, ``sim_ms_per_host_s`` and ``peak_rss_mb`` are the host's.
``committed_frac`` is the share of attempted transactions or requests
that committed (one minus the printed ``failed_frac``).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` prints its per-layer metrics: it measures as ``--trace 0``
does, then sets up once more and runs the same inputs under
``cProfile`` to attribute host self time to layers, and checks that the
profiled run simulates exactly what the unprofiled one did.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
correctness or intent check fails, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


class Measurement:
    """Everything one invocation measured, as plain numbers."""

    def __init__(self) -> None:
        self.setup_s = []
        self.run_s = []
        self.load_s = []
        self.load_us_per_row = []
        self.register_s = []
        self.errors = []
        self.result = None        # the first run's RunResult summary
        self.fingerprint = None
        self.sim_counts = None


def sim_counts(db, result) -> dict:
    """Simulated per-layer counts after the first run."""
    snap = db.stats.snapshot()
    n = db.config.n_workers

    def total(name):
        return sum(snap[f"worker{w}.{name}"] for w in range(n))

    committed, aborted = total("committed"), total("aborted")
    hash_stalls = sum(w.hash_pipe.locks.stalls for w in db.workers)
    skiplist_stalls = sum(w.skiplist_pipe.locks.stalls for w in db.workers)
    fe = result.frontend
    return {
        "sim.memory.dram_reads_per_txn": snap["dram.reads"] / committed,
        "sim.memory.dram_writes_per_txn": snap["dram.writes"] / committed,
        "softcore.instructions_per_txn": total("instructions") / committed,
        "softcore.db_instructions_per_txn":
            total("db_instructions") / committed,
        "softcore.batches": total("batches"),
        "softcore.remote_db_instructions": total("remote_db_instructions"),
        "index.hash.lock_stalls": hash_stalls,
        "index.skiplist.lock_stalls": skiplist_stalls,
        "txn.committed": committed,
        "txn.aborted": aborted,
        "txn.commit_ratio": committed / (committed + aborted),
        "comm.messages": snap["comm.messages"],
        "frontend.rejected": fe.get("rejected", 0),
        "frontend.timed_out": fe.get("timed_out", 0),
        "frontend.aborted": fe.get("aborted", 0),
        "frontend.backlog_growth": max(result.backlog_growth.values(),
                                       default=0.0),
        "sim.engine.events_fired": db.engine.events_fired,
    }


def measure(wl, seed: int, seconds: float) -> Measurement:
    from workloads import fingerprint
    m = Measurement()
    began = time.perf_counter()
    rep = 0
    while rep < wl.min_reps or time.perf_counter() - began < seconds:
        gc.collect()
        t0 = time.perf_counter()
        prep = wl.setup(seed)
        m.setup_s.append(time.perf_counter() - t0)
        clock = prep.clock
        m.load_s.append(clock.load_s)
        m.load_us_per_row.append(clock.load_s / clock.rows * 1e6)
        m.register_s.append(clock.register_s)
        if rep < wl.max_runs:
            t0 = time.perf_counter()
            result = wl.run(prep)
            m.run_s.append(time.perf_counter() - t0)
            fp = fingerprint(prep.db, result.blocks)
            if m.fingerprint is None:
                m.fingerprint = fp
                m.errors.extend(wl.check(prep, result))
                m.sim_counts = sim_counts(prep.db, result)
                result.blocks = result.updates = None
                m.result = result
            elif fp != m.fingerprint:
                m.errors.append(f"repetition {rep} simulated {fp}, "
                                f"not {m.fingerprint}")
            del result
        del prep, clock
        rep += 1
    gc.collect()
    return m


def profile_run(wl, seed: int):
    """Set up once more and run the same inputs under cProfile; returns
    (run seconds, fingerprint, self seconds per layer)."""
    from layers import self_time_by_layer
    from workloads import fingerprint
    prep = wl.setup(seed)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    result = wl.run(prep)
    profiler.disable()
    run_s = time.perf_counter() - t0
    fp = fingerprint(prep.db, result.blocks)
    return run_s, fp, self_time_by_layer(pstats.Stats(profiler))


def end_to_end(wl, m: Measurement) -> dict:
    r = m.result
    lat = r.latencies_us
    run_s = statistics.median(m.run_s)
    sim_ktps = r.committed / (r.sim_ns * 1e-9) / 1e3
    if wl.closed:
        # every transaction is offered at once: the burst is the
        # saturation point, and there is no rate to hold an SLO at
        max_at_slo = sim_ktps
    else:
        sustained = [r.offered_ktps[level] for level in r.offered_ktps
                     if nearest_rank(lat[level], 99) <= wl.slo_p99_us
                     and r.backlog_growth[level] <= wl.backlog_growth_limit]
        max_at_slo = max(sustained, default=0.0)

    def pct(level, p):
        value = nearest_rank(lat[level], p)
        # more than (100 - p)% of requests never committed: they count
        # as answering at their deadline, later than any latency limit
        return value if value < math.inf else wl.deadline_ns / 1e3

    out = {
        "sim_ktps": sim_ktps,
        "sim_p50_us.mid": pct("mid", 50),
        "sim_max_ktps_at_slo": max_at_slo,
        "committed_frac": r.committed / r.attempted,
        "setup_s": statistics.median(m.setup_s),
        "run_s": run_s,
        "sim_ms_per_host_s": r.sim_ns / 1e6 / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    for level in ("low", "mid", "high"):
        out[f"sim_p99_us.{level}"] = pct(level, 99)
    return out


def intent_errors(name: str, e2e: dict, layer: dict) -> list:
    """The properties each workload was chosen for."""
    errors = []
    if name == "ycsb_c_paper" and not e2e["setup_s"] > e2e["run_s"]:
        errors.append("intent: setup is not the larger share of host time")
    if name == "tpcc_mix" and not e2e["setup_s"] < e2e["run_s"]:
        errors.append("intent: setup is not the smaller share of host time")
    messages = layer["comm.messages"]
    if name == "ycsb_c_paper" and messages != 0:
        errors.append(f"intent: {messages} comm messages, expected none")
    if name == "serving_ycsb_b" and messages == 0:
        errors.append("intent: no comm messages, expected remote traffic")
    if "host_self_s.frontend" in layer:
        if name != "serving_ycsb_b" and layer["host_self_s.frontend"] != 0:
            errors.append("intent: frontend host time outside serving")
        if name == "ycsb_e_scan":
            # the event loop and DRAM model outweigh every component on
            # every workload, so the skiplist is compared with the rest
            top = max((k for k in layer if k.startswith("host_self_s.")
                       and not k.startswith("host_self_s.sim.")),
                      key=layer.get)
            if top != "host_self_s.index.skiplist":
                errors.append(f"intent: largest component layer is {top}, "
                              f"not index.skiplist")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no src/repro package or no "
              f"BENCHMARK.json; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    wl = WORKLOADS[args.workload]

    m = measure(wl, args.seed, args.seconds)
    e2e = end_to_end(wl, m)
    layer = dict(m.sim_counts)
    layer.update({
        "setup.load_s": statistics.median(m.load_s),
        "setup.load_us_per_row": statistics.median(m.load_us_per_row),
        "setup.register_s": statistics.median(m.register_s),
    })
    if args.trace:
        traced_s, traced_fp, self_s = profile_run(wl, args.seed)
        if traced_fp != m.fingerprint:
            m.errors.append(f"profiled run simulated {traced_fp}, "
                            f"not {m.fingerprint}")
        layer["trace_overhead_frac"] = traced_s / e2e["run_s"] - 1
        for name, seconds in self_s.items():
            layer[f"host_self_s.{name}"] = seconds
    m.errors.extend(intent_errors(wl.name, e2e, layer))

    r = m.result
    print(f"workload {wl.name}  seed {args.seed}  "
          f"setups {len(m.setup_s)}  runs {len(m.run_s)}")
    print(f"fingerprint {json.dumps(m.fingerprint, sort_keys=True)}")
    print(f"failed_frac {(r.attempted - r.committed) / r.attempted:.6g}")
    if wl.paper_ktps:
        print(f"model error: sim_ktps {e2e['sim_ktps']:.1f} vs paper "
              f"{wl.paper_ktps:.0f} kTps "
              f"({e2e['sim_ktps'] / wl.paper_ktps - 1:+.1%}); "
              f"context only, the model is not validated beyond this point")
    for level, ktps in r.offered_ktps.items():
        p99 = nearest_rank(r.latencies_us[level], 99)
        print(f"level {level}: offered {ktps:.1f} kTps, p99 {p99:.1f} us "
              f"(limit {wl.slo_p99_us:g}), backlog growth "
              f"{r.backlog_growth[level]:.2f} (limit "
              f"{wl.backlog_growth_limit:g})")
    for group, values in (("end_to_end", e2e), ("per_layer", layer)):
        for metric in spec[group]:
            if metric["name"] in values:
                print(f"  {metric['name']:40s} {values[metric['name']]:14.6g}"
                      f" {metric['unit']}")
    for error in m.errors[:20]:
        print(f"FAILED {error}")
    if len(m.errors) > 20:
        print(f"FAILED ... and {len(m.errors) - 20} more")

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else e2e
    print(json.dumps({
        "correct": not m.errors,
        "attempted": r.attempted,
        "failed": r.attempted - r.committed,
        "metrics": {x["name"]: {"value": values[x["name"]], "unit": x["unit"]}
                    for x in chosen},
    }))
    return 1 if m.errors else 0


if __name__ == "__main__":
    sys.exit(main())
