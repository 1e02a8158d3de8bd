"""Golden fingerprints: a host-side change must not move a single event.

Host-performance work on the engine, the softcore or the index
pipelines changes *host* cost only — every simulated quantity stays
bit-identical.  The seeded smoke scenarios below are replayed and their
fingerprints (``events_fired``, ``Engine.now``, commit/abort counts and
a hash over every per-transaction commit time) compared with the
checked-in :data:`GOLDEN_SMOKE` constants, so equivalence is anchored
to history rather than to a second implementation.  The goldens of the
modes these scenarios do not reach (dynamic scheduling, serial
execution, tracing) live in ``tests/test_goldens.py``.

Scenarios are deterministic: fixed seeds, no wall-clock reads.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, List, Optional

from ..core import BionicConfig, BionicDB
from ..mem.schema import IndexKind
from ..workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload

__all__ = ["GOLDEN_SMOKE", "SCENARIOS", "SETUPS",
           "ycsb_setup", "ycsb_scenario", "tpcc_setup", "tpcc_scenario",
           "bptree_setup", "bptree_scenario",
           "run_equivalence", "equivalence_failures"]

#: fingerprints of the smoke scenarios.  now_ns, the counts and the
#: commit hashes were captured on the pre-overhaul engine (the heap-only
#: event loop the perf work replaced; bptree_range_smoke when the
#: scenario was added) and have never moved.  events_fired was
#: re-captured once, when the hash pipeline's stages became callbacks
#: that fire no event for a no-op wait (18477, 40334 and 6033 before).
GOLDEN_SMOKE = {
    "ycsb_smoke": {
        "events_fired": 15384,
        "now_ns": 187368.0,
        "committed": 57,
        "aborted": 3,
        "commit_hash":
            "e7bc04fef889d3e929575dd860443e08a9e965b7e645238f5709320a1025fc35",
    },
    "tpcc_smoke": {
        "events_fired": 33611,
        "now_ns": 530656.0,
        "committed": 24,
        "aborted": 63,
        "commit_hash":
            "bc978ca2d2c04e903222919cead95159309d178c46a89346555774f06f3118b9",
    },
    "bptree_range_smoke": {
        "events_fired": 6019,
        "now_ns": 423312.0,
        "committed": 32,
        "aborted": 0,
        "commit_hash":
            "a0aa2f667110944e34715ca59cfc44a50f287b2195ac3e4ee2749d9f0cb6ed6f",
    },
}


def _digest(commits: list) -> str:
    return hashlib.sha256(repr(commits).encode("utf-8")).hexdigest()


def _fingerprint(db: BionicDB, report, blocks) -> Dict[str, object]:
    commits = [(b.txn_id, b.done_at_ns) for b in blocks
               if getattr(b, "done_at_ns", None) is not None]
    return {
        "events_fired": db.engine.events_fired,
        "now_ns": db.engine.now,
        "committed": report.committed,
        "aborted": report.aborted,
        "commit_hash": _digest(commits),
    }


def ycsb_setup(scale: int = 1):
    """Build the YCSB scenario; returns ``(db, run)`` where ``run()``
    executes the seeded transaction mix and returns its fingerprint.

    Split from the run phase so :mod:`repro.perf.simspeed` can time the
    simulation loop separately from timing-free data loading.
    """
    n = 40 * scale
    wl = YcsbWorkload(YcsbConfig(records_per_partition=2000, n_partitions=2,
                                 reads_per_txn=8, seed=7))
    db = BionicDB(BionicConfig(n_workers=2))
    wl.install(db)
    specs = wl.make_read_txns(n) + wl.make_rmw_txns(n // 2)

    def run() -> Dict[str, object]:
        report, blocks = wl.submit_all(db, specs)
        return _fingerprint(db, report, blocks)

    return db, run


def ycsb_scenario(scale: int = 1) -> Dict[str, object]:
    """Seeded YCSB mix (reads + RMWs) on a 2-worker machine."""
    _db, run = ycsb_setup(scale)
    return run()


def tpcc_setup(scale: int = 1):
    """Build the TPC-C scenario; returns ``(db, run)`` (see ycsb_setup)."""
    n = 24 * scale
    wl = TpccWorkload(TpccConfig(n_partitions=2, customers_per_district=40,
                                 items=400, seed=11))
    db = BionicDB(BionicConfig(n_workers=2))
    wl.install(db)
    specs = wl.make_mix(n)

    def run() -> Dict[str, object]:
        report, blocks = wl.submit_all(db, specs, retry=True)
        return _fingerprint(db, report, blocks)

    return db, run


def tpcc_scenario(scale: int = 1) -> Dict[str, object]:
    """Seeded TPC-C NewOrder+Payment mix with retry-to-commit."""
    _db, run = tpcc_setup(scale)
    return run()


def bptree_setup(scale: int = 1):
    """YCSB over a B+ tree index: point reads plus RANGE_SCANs, through
    the batched level-wise B+ tree coprocessor."""
    n = 16 * scale
    wl = YcsbWorkload(YcsbConfig(records_per_partition=1200, n_partitions=2,
                                 reads_per_txn=4, scan_length=24, seed=13,
                                 index_kind=IndexKind.BPTREE))
    db = BionicDB(BionicConfig(n_workers=2))
    wl.install(db)
    specs = wl.make_read_txns(n) + wl.make_range_txns(n)

    def run() -> Dict[str, object]:
        report, blocks = wl.submit_all(db, specs)
        return _fingerprint(db, report, blocks)

    return db, run


def bptree_scenario(scale: int = 1) -> Dict[str, object]:
    """Seeded B+ tree reads + range scans on a 2-worker machine."""
    _db, run = bptree_setup(scale)
    return run()


SCENARIOS: Dict[str, Callable] = {
    "ycsb_smoke": ycsb_scenario,
    "tpcc_smoke": tpcc_scenario,
    "bptree_range_smoke": bptree_scenario,
}

#: setup-phase variants (build returns (db, run)) for simspeed timing
SETUPS: Dict[str, Callable] = {
    "ycsb_smoke": ycsb_setup,
    "tpcc_smoke": tpcc_setup,
    "bptree_range_smoke": bptree_setup,
}


def run_equivalence(scale: int = 1,
                    scenarios: Optional[Iterable[str]] = None
                    ) -> Dict[str, Dict[str, object]]:
    """Replay every scenario and compare it with its golden.

    Returns, per scenario, the fingerprint and (at scale 1, where the
    goldens were captured) whether it matches :data:`GOLDEN_SMOKE`.
    ``scenarios`` restricts the run to the named subset (unknown names
    raise ``KeyError``).
    """
    names = list(scenarios) if scenarios is not None else list(SCENARIOS)
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        entry: Dict[str, object] = {"fingerprint": SCENARIOS[name](scale)}
        if scale == 1:
            entry["golden_match"] = entry["fingerprint"] == GOLDEN_SMOKE[name]
        out[name] = entry
    return out


def equivalence_failures(results: Dict[str, Dict[str, object]]) -> List[str]:
    """Human-readable mismatch descriptions; empty list means equivalent."""
    return [f"{name}: diverged from the checked-in golden values — "
            f"run={entry['fingerprint']} golden={GOLDEN_SMOKE[name]}"
            for name, entry in results.items()
            if not entry.get("golden_match", True)]
