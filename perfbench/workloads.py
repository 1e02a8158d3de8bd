"""The four benchmark workloads.

Each workload builds a default-configured ``BionicDB`` through the
program's public calls, generates its inputs from the seed, runs them
and checks the program's outputs.  Why each one is in the benchmark:

* ``ycsb_c_paper`` -- the paper's YCSB-C point (§5.2 scale: 4 workers x
  300 K rows).  Setup is most of the host time, so bulk-load work shows
  here; softcore, comm and aborts do almost nothing.
* ``tpcc_mix`` -- the paper's NewOrder/Payment mix on 2 warehouses,
  retried to commit.  The run phase dominates: long procedures on the
  softcore, the hash write path, hazard locks and timestamp-ordering
  aborts.  A loader change must not move it.
* ``ycsb_e_scan`` -- the paper's modified YCSB-E (50-tuple scans,
  Fig 11c) on the skiplist.  The only workload that loads and probes an
  ordered index; the hash pipeline is idle.
* ``serving_ycsb_b`` -- YCSB-B (one update in 16 accesses) on zipfian
  keys with half the accesses remote, offered open loop through the
  ``FrontEnd`` at three fixed rates.  The only workload whose requests
  arrive over time, so the only one whose latency is more than queue
  position; it is also the only one that drives the crossbar, the NIC,
  admission and the dispatch scheduler.

A closed-burst workload submits every transaction at simulated time 0
and reports the burst's latency percentiles under the ``low``, ``mid``
and ``high`` level names, so that every workload prints the same
metrics.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core import BionicConfig, BionicDB
from repro.frontend import FrontEnd, SessionConfig
from repro.mem.schema import IndexKind
from repro.mem.txnblock import TxnStatus
from repro.workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload
from repro.workloads.tpcc import schema as S
from repro.workloads.ycsb import YCSB_TABLE

LEVELS = ("low", "mid", "high")


class SetupClock:
    """Wall time spent inside one database's public setup calls.

    The calls are wrapped on the instance, so the workload's own
    ``install`` is timed as users run it, with no change to the program.
    """

    def __init__(self) -> None:
        self.register_s = 0.0
        self.load_s = 0.0
        self.rows = 0

    def attach(self, db: BionicDB) -> None:
        db.register_procedure = self._timed(db.register_procedure,
                                            "register_s")
        load_many = self._timed(db.load_many, "load_s")

        def counted_load_many(rows):
            n = load_many(rows)
            self.rows += n
            return n

        db.load_many = counted_load_many

    def _timed(self, fn: Callable, attr: str) -> Callable:
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, attr,
                        getattr(self, attr) + time.perf_counter() - t0)
        return timed


@dataclass
class Prepared:
    """A loaded database plus the inputs the run will submit."""

    db: BionicDB
    workload: object
    specs: object
    clock: SetupClock


@dataclass
class RunResult:
    #: transactions (closed burst) or client requests (serving) offered
    attempted: int
    #: of those, committed when the run ended
    committed: int
    #: simulated time from the first submission until the engine drained
    sim_ns: float
    #: per level: latency of every offered request from its scheduled
    #: arrival to its commit, in us; ``inf`` when it never committed
    latencies_us: Dict[str, List[float]]
    #: every transaction block the run executed, for the fingerprint
    blocks: list
    #: serving only: measured offered rate per level, kTps
    offered_ktps: Dict[str, float] = field(default_factory=dict)
    #: serving only: mean scheduler backlog in the second half of each
    #: level's arrivals minus the first half, in requests
    backlog_growth: Dict[str, float] = field(default_factory=dict)
    #: serving only: FrontendReport totals over all levels
    frontend: Dict[str, int] = field(default_factory=dict)
    #: serving only: every level's FrontendReport was conserved
    conserved: bool = True
    #: serving only: (attempt block, updated key, value written)
    updates: list = field(default_factory=list)


def fingerprint(db: BionicDB, blocks: list) -> Dict[str, object]:
    """The simulated outcome that must not change under a host-only
    change: final time, commits, aborts and a digest of who committed
    when."""
    done = [(b.txn_id, b.done_at_ns) for b in blocks
            if getattr(b, "done_at_ns", None) is not None]
    snap = db.stats.snapshot()
    n = db.config.n_workers
    return {
        "now_ns": db.engine.now,
        "committed": sum(snap[f"worker{w}.committed"] for w in range(n)),
        "aborted": sum(snap[f"worker{w}.aborted"] for w in range(n)),
        "commit_hash": hashlib.sha256(repr(done).encode()).hexdigest()[:16],
    }


def _new_db(n_workers: int) -> "tuple[BionicDB, SetupClock]":
    db = BionicDB(BionicConfig(n_workers=n_workers))
    clock = SetupClock()
    clock.attach(db)
    return db, clock


def _run_closed(prep: Prepared, retry: bool) -> RunResult:
    """Submit every transaction at once and run until the engine drains
    (retrying aborted ones until all commit when ``retry``)."""
    db, wl, specs = prep.db, prep.workload, prep.specs
    start = db.engine.now
    blocks = [db.new_block(s.proc_id, list(s.inputs), layout=wl.layout_for(s),
                           worker=s.home) for s in specs]
    homes = [s.home for s in specs]
    if retry:
        db.run_to_commit(blocks, workers=homes)
    else:
        db.run_all(blocks, workers=homes)
    latencies = [(b.done_at_ns - start) / 1e3
                 if b.header.status is TxnStatus.COMMITTED else math.inf
                 for b in blocks]
    return RunResult(
        attempted=len(blocks),
        committed=sum(b.header.status is TxnStatus.COMMITTED for b in blocks),
        sim_ns=db.engine.now - start,
        latencies_us={level: latencies for level in LEVELS},
        blocks=blocks)


class YcsbCPaper:
    name = "ycsb_c_paper"
    records_per_partition = 300_000
    n_txns = 1500
    min_reps = 3
    max_runs = 3
    closed = True
    #: the paper's Fig 9 YCSB-C throughput at 4 workers, kTps
    paper_ktps = 450.0

    def setup(self, seed: int) -> Prepared:
        db, clock = _new_db(4)
        wl = YcsbWorkload(YcsbConfig(
            records_per_partition=self.records_per_partition, n_partitions=4,
            seed=seed))
        wl.install(db)
        return Prepared(db, wl, wl.make_read_txns(self.n_txns), clock)

    def run(self, prep: Prepared) -> RunResult:
        return _run_closed(prep, retry=False)

    def check(self, prep: Prepared, result: RunResult) -> List[str]:
        db, payload = prep.db, [prep.workload.config.payload]
        errors = []
        for spec, block in zip(prep.specs, result.blocks):
            if block.header.status is not TxnStatus.COMMITTED:
                errors.append(f"txn {block.txn_id} did not commit")
                continue
            for key, out in zip(spec.keys, block.outputs()):
                row = db.lookup(YCSB_TABLE, key)
                if row is None or row.fields != payload or out != row.addr:
                    errors.append(f"txn {block.txn_id}: read of key {key} "
                                  f"does not return its loaded row")
        return errors


class TpccMix:
    name = "tpcc_mix"
    n_txns = 500
    min_reps = 5
    max_runs = math.inf
    closed = True
    paper_ktps = None

    def setup(self, seed: int) -> Prepared:
        db, clock = _new_db(2)
        wl = TpccWorkload(TpccConfig(n_partitions=2, seed=seed))
        wl.install(db)
        return Prepared(db, wl, wl.make_mix(self.n_txns), clock)

    def run(self, prep: Prepared) -> RunResult:
        return _run_closed(prep, retry=True)

    def check(self, prep: Prepared, result: RunResult) -> List[str]:
        errors = [f"txn {b.txn_id} did not commit" for b in result.blocks
                  if b.header.status is not TxnStatus.COMMITTED]
        cfg = prep.workload.config
        orders: Dict[tuple, int] = {}
        for spec in prep.specs:
            if spec.kind == "neworder":
                wd = spec.keys[:2]
                orders[wd] = orders.get(wd, 0) + 1
        for w in range(1, cfg.n_warehouses + 1):
            for d in range(1, cfg.districts_per_warehouse + 1):
                row = prep.db.lookup(S.DISTRICT, S.district_key(w, d))
                want = 1 + orders.get((w, d), 0)
                if row.fields[S.D_FIELD_NEXT_O_ID] != want:
                    errors.append(
                        f"district ({w},{d}): next order id "
                        f"{row.fields[S.D_FIELD_NEXT_O_ID]}, expected {want}")
        return errors


class YcsbEScan:
    name = "ycsb_e_scan"
    records_per_partition = 30_000
    n_txns = 2000
    min_reps = 3
    max_runs = math.inf
    closed = True
    #: the paper's Fig 11c skiplist scan throughput, kTps
    paper_ktps = 40.0

    def setup(self, seed: int) -> Prepared:
        db, clock = _new_db(4)
        wl = YcsbWorkload(YcsbConfig(
            records_per_partition=self.records_per_partition, n_partitions=4,
            index_kind=IndexKind.SKIPLIST, seed=seed))
        wl.install(db)
        return Prepared(db, wl, wl.make_scan_txns(self.n_txns), clock)

    def run(self, prep: Prepared) -> RunResult:
        return _run_closed(prep, retry=False)

    def check(self, prep: Prepared, result: RunResult) -> List[str]:
        length = prep.workload.config.scan_length
        errors = []
        for spec, block in zip(prep.specs, result.blocks):
            start = spec.inputs[0]
            # the scan buffer holds one (key, fields) pair per tuple
            keys = [entry[0] if isinstance(entry, tuple) else entry
                    for entry in block.scan_results(length)]
            if (block.header.status is not TxnStatus.COMMITTED
                    or block.outputs()[0] != length
                    or keys != list(range(start, start + length))):
                errors.append(f"scan {block.txn_id} from key {start} did not "
                              f"return {length} consecutive tuples")
        return errors


class ServingYcsbB:
    name = "serving_ycsb_b"
    records_per_partition = 30_000
    #: offered rates, tps, frozen as absolute numbers: 0.3x, 0.6x and
    #: 0.76x of the 355 kTps this mix saturated at through the default
    #: FrontEnd (closed loop, 64 clients) when the benchmark was
    #: defined.  Nearer saturation the p99 sits on the knee of the
    #: latency curve and swings with the seed: the quartile spread of
    #: its p99 over six to eight seeds was 0.06 at 0.76x, 0.17 at 0.8x,
    #: 0.27 at 0.85x, and 0.39 at 0.9x even with 5000 requests.
    rates_tps = {"low": 107_000.0, "mid": 213_000.0, "high": 270_000.0}
    #: requests offered at each rate; the p99 swings with the seed more
    #: at the higher rates, so they get more samples
    requests = {"low": 2000, "mid": 4000, "high": 3000}
    #: a request still queued this long after its arrival is shed
    deadline_ns = 1_000_000.0
    #: the latency limit the p99 must meet, us
    slo_p99_us = 100.0
    #: a level whose backlog grows by more than this many requests
    #: between the halves of its arrivals is not sustainable
    backlog_growth_limit = 1.0
    #: attempts a client makes for a request timestamp ordering aborts
    max_attempts = 16
    min_reps = 3
    max_runs = 1
    closed = False
    paper_ktps = None

    def setup(self, seed: int) -> Prepared:
        db, clock = _new_db(4)
        wl = YcsbWorkload(YcsbConfig(
            records_per_partition=self.records_per_partition, n_partitions=4,
            zipfian=True, remote_fraction=0.5, seed=seed))
        wl.install(db)
        specs = {level: wl.make_mixed_txns(self.requests[level], 0.05,
                                           install_into=db)
                 for level in LEVELS}
        return Prepared(db, wl, specs, clock)

    def run(self, prep: Prepared) -> RunResult:
        db = prep.db
        start = db.engine.now
        result = RunResult(attempted=0, committed=0, sim_ns=0.0,
                           latencies_us={}, blocks=[],
                           frontend={"rejected": 0, "timed_out": 0,
                                     "aborted": 0})
        for k, level in enumerate(LEVELS):
            self._run_level(prep, level, prep.workload.config.seed * 10 + k,
                            result)
        result.sim_ns = db.engine.now - start
        return result

    def _run_level(self, prep: Prepared, level: str, session_seed: int,
                   result: RunResult) -> None:
        db, layout = prep.db, prep.workload.mixed_layout()
        specs = prep.specs[level]
        fe = FrontEnd(db)
        arrival: List[float] = []
        backlog: List[int] = []
        attempts: List[list] = [[] for _ in specs]
        request_of: Dict[int, int] = {}

        def attempt(i: int):
            s = specs[i]
            block = db.new_block(s.proc_id, list(s.inputs), layout=layout,
                                 worker=s.home)
            request_of[block.txn_id] = i
            attempts[i].append(block)
            values = s.inputs[len(s.keys):]
            for key, value in zip(s.keys[len(s.keys) - len(values):], values):
                result.updates.append((block, key, value))
            return block, s.home

        def arrive(i: int):
            arrival.append(db.engine.now)
            backlog.append(fe.scheduler.backlog)
            return attempt(i)

        def retry_aborted(block) -> None:
            # a client re-sends a transaction timestamp ordering aborted,
            # racing its original deadline
            i = request_of.get(block.txn_id)
            if i is None or block.header.status is not TxnStatus.ABORTED:
                return
            left = arrival[i] + self.deadline_ns - db.engine.now
            if len(attempts[i]) >= self.max_attempts or left <= 0:
                return
            fe.session(lambda _n, i=i: attempt(i), SessionConfig(
                name=f"{level}.retry", arrival="closed", n_requests=1,
                deadline_ns=left))

        db.add_done_callback(retry_aborted)
        fe.session(arrive, SessionConfig(
            name=level, arrival="open", rate_tps=self.rates_tps[level],
            n_requests=len(specs), deadline_ns=self.deadline_ns,
            seed=session_seed))
        report = fe.run()
        db.remove_done_callback(retry_aborted)
        fe.detach()

        latencies = []
        for i, blocks in enumerate(attempts):
            last = blocks[-1]
            latencies.append((last.done_at_ns - arrival[i]) / 1e3
                             if last.header.status is TxnStatus.COMMITTED
                             else math.inf)
        half = len(backlog) // 2
        result.attempted += len(specs)
        result.committed += sum(x < math.inf for x in latencies)
        result.latencies_us[level] = latencies
        result.offered_ktps[level] = ((len(arrival) - 1) * 1e6
                                      / (arrival[-1] - arrival[0]))
        result.backlog_growth[level] = (
            sum(backlog[half:]) / (len(backlog) - half)
            - sum(backlog[:half]) / half)
        result.blocks.extend(b for blocks in attempts for b in blocks)
        for key in ("rejected", "timed_out", "aborted"):
            result.frontend[key] += getattr(report, key)
        result.conserved = result.conserved and report.conserved

    def check(self, prep: Prepared, result: RunResult) -> List[str]:
        errors = []
        if not result.conserved:
            errors.append("FrontendReport.conserved is False")
        # each updated key must hold the value of its last committed
        # update; a key whose updates all failed keeps its payload
        last: Dict[int, tuple] = {}
        for block, key, value in result.updates:
            if block.header.status is TxnStatus.COMMITTED:
                stamp = (block.done_at_ns, block.txn_id, value)
                last[key] = max(last.get(key, stamp), stamp)
        payload = prep.workload.config.payload
        for key in sorted({key for _b, key, _v in result.updates}):
            want = last[key][2] if key in last else payload
            row = prep.db.lookup(YCSB_TABLE, key)
            if row is None or row.fields[0] != want:
                errors.append(f"key {key} holds "
                              f"{None if row is None else row.fields[0]!r}, "
                              f"expected {want!r}")
        return errors


WORKLOADS = {w.name: w for w in (YcsbCPaper(), TpccMix(), YcsbEScan(),
                                 ServingYcsbB())}
