"""Simulated-timing goldens for every execution mode of the machine.

Each scenario runs a seeded workload and fingerprints every
``BionicDB`` it built: final simulated time, fired events, commits,
aborts and a digest of which transaction finished when, with which
status.  Traced scenarios also digest the trace text.  The constants
below are the contract: a host-side change to the softcore, the index
pipelines or the engine must reproduce them exactly.

The modes covered are the ones the perf goldens
(:data:`repro.perf.GOLDEN_SMOKE`) do not reach: dynamic scheduling,
serial execution (``interleaving=False``) with and without the tuple
line buffer, tracing, commit/abort handlers whose ``COMMIT``/``ABORT``
is not the last instruction, and bare engine workloads.
"""

from __future__ import annotations

import contextlib
import hashlib

import pytest

from repro.bench.ablations import (
    run_dynamic_scheduling, run_line_buffer_ablation,
)
from repro.bench.fig09 import bionicdb_tpcc_tput
from repro.core import BionicConfig, BionicDB
from repro.isa import BlockRef, Gp, Instruction, Opcode, ProcedureBuilder
from repro.mem import IndexKind, TableSchema
from repro.sim import ClockDomain, DramModel, Engine, Heap
from repro.sim.sync import Fifo
from repro.sim.trace import Tracer
from repro.softcore import SoftcoreConfig
from repro.workloads import TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload


# -- fingerprinting -----------------------------------------------------------

@contextlib.contextmanager
def recorded_machines():
    """Record every BionicDB built inside the block, with the
    (txn id, finish time, status) of each transaction it finished."""
    machines = []
    init = BionicDB.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        done = []
        self.add_done_callback(lambda b: done.append(
            (b.txn_id, b.done_at_ns, b.header.status.name)))
        machines.append((self, done))

    BionicDB.__init__ = recording_init
    try:
        yield machines
    finally:
        BionicDB.__init__ = init


def fingerprint(db: BionicDB, done: list) -> dict:
    snap = db.stats.snapshot()
    n = db.config.n_workers
    return {
        "events_fired": db.engine.events_fired,
        "now_ns": db.engine.now,
        "committed": sum(snap[f"worker{w}.committed"] for w in range(n)),
        "aborted": sum(snap[f"worker{w}.aborted"] for w in range(n)),
        "commit_hash": hashlib.sha256(repr(done).encode()).hexdigest()[:16],
    }


def fingerprints(run) -> list:
    with recorded_machines() as machines:
        run()
    return [fingerprint(db, done) for db, done in machines]


def trace_digest(tracer: Tracer) -> dict:
    return {
        "trace_sha256": hashlib.sha256(tracer.format().encode()).hexdigest(),
        "trace_lines": len(tracer.events),
    }


# -- dynamic scheduling -------------------------------------------------------

def _chain_proc(n_hops: int):
    b = ProcedureBuilder(f"chain{n_hops}")
    for i in range(n_hops):
        b.search(cp=i, table=0, key=b.at(i))
        b.ret(0, i)
    b.commit_handler()
    b.store(Gp(0), b.at(n_hops))
    b.commit()
    return b.build()


def _chain_db(dynamic: bool) -> BionicDB:
    db = BionicDB(BionicConfig(
        n_workers=1,
        softcore=SoftcoreConfig(interleaving=True,
                                dynamic_scheduling=dynamic)))
    db.define_table(TableSchema(0, "kv", index_kind=IndexKind.HASH,
                                hash_buckets=4096,
                                partition_fn=lambda k, n: 0))
    db.register_procedure(1, _chain_proc(4))
    for k in range(1000):
        db.load(0, k, [k])
    return db


def _chains(dynamic: bool, n_txns: int):
    def run():
        db = _chain_db(dynamic)
        blocks = [db.new_block(1, [(7 * t + i) % 1000 for i in range(4)],
                               worker=0) for t in range(n_txns)]
        db.run_all(blocks, workers=[0] * n_txns)
    return run


def _chain_abort():
    db = _chain_db(True)
    block = db.new_block(1, [9999, 1, 2, 3], worker=0)
    db.submit(block, 0)
    db.run()


# -- commit / abort handlers that keep running after COMMIT / ABORT -----------

def _mid_commit_proc():
    """Commit handler: COMMIT, then a STORE, or an ABORT on a branch."""
    b = ProcedureBuilder("mid_commit")
    b.update(cp=0, table=0, key=b.at(0))
    b.ret(0, 0)
    b.load(1, b.fld(0, 0))
    b.load(2, b.at(1))
    b.commit_handler()
    b.cmp(Gp(1), Gp(2))
    b.blt("refuse")
    b.wrfield(0, 0, Gp(2))
    b.commit()
    b.store(Gp(1), b.at(2))
    b.jmp("end")
    b.label("refuse")
    b.abort()
    b.label("end")
    b.abort_handler()
    b.abort()
    return b.build()


def _mid_abort_proc():
    """Abort handler: ABORT, then a MOV and a STORE."""
    b = ProcedureBuilder("mid_abort")
    b.update(cp=0, table=0, key=b.at(0))
    b.ret(0, 0)
    b.load(1, b.fld(0, 0))
    b.load(2, b.at(1))
    b.wrfield(0, 0, 777)
    b.cmp(Gp(1), Gp(2))
    b.blt("keep")
    b.abort()
    b.label("keep")
    b.commit_handler()
    b.commit()
    b.abort_handler()
    b.abort()
    b.mov(3, -1)
    b.store(Gp(3), b.at(2))
    return b.build()


def _mid_section(proc):
    def run():
        db = BionicDB(BionicConfig(n_workers=1))
        db.define_table(TableSchema(0, "kv", hash_buckets=64))
        db.register_procedure(1, proc(), verify=False)
        for k in range(40):
            db.load(0, k, [k])
        # thresholds either side of the row value, a missing key, and
        # repeated keys so timestamp ordering rejects some updates
        inputs = [[(5 * t) % 48, (3 * t) % 40, None] for t in range(24)]
        blocks = [db.new_block(1, x, worker=0) for x in inputs]
        db.run_all(blocks, workers=[0] * len(blocks))
    return run


# -- malformed procedures: which error, raised at which instant ---------------

def _failing(build):
    """Run one transaction of a malformed procedure straight on worker
    0's softcore (no admission checks); record the error that killed
    the softcore and the simulated instant it was raised at."""
    def run():
        db = BionicDB(BionicConfig(n_workers=1))
        db.define_table(TableSchema(0, "kv", hash_buckets=64))
        for k in range(8):
            db.load(0, k, [k])
        b = ProcedureBuilder("malformed")
        build(b)
        db.register_procedure(1, b.build(), verify=False)
        softcore = db.workers[0].softcore
        died_at = []
        softcore._proc.callbacks.append(
            lambda _ev: died_at.append(db.engine.now))
        softcore.submit(db.new_block(1, [3, 5], worker=0))
        with pytest.raises(Exception) as caught:
            db.run()
        return {"error": f"{type(caught.value).__name__}: {caught.value}",
                "now_ns": died_at[0]}
    return run


def _unknown_table(b):
    b.search(cp=0, table=0, key=b.at(0))
    b.search(cp=1, table=999, key=b.at(1))
    b.commit_handler()
    b.commit()


def _bad_operand(b):
    b.search(cp=0, table=0, key=b.at(0))
    b.ret(0, 0)
    b.program.logic.append(Instruction(Opcode.ADD, dst=Gp(1), a=Gp(0),
                                       b=BlockRef(1)))
    b.commit_handler()
    b.commit()


def _commit_in_logic(b):
    b.search(cp=0, table=0, key=b.at(0))
    b.commit()
    b.commit_handler()
    b.commit()


def _load_empty_cell(b):
    b.search(cp=0, table=0, key=b.at(0))
    b.ret(0, 0)
    b.load(1, b.fld(2, 0))
    b.commit_handler()
    b.commit()


def _wrfield_empty_cell(b):
    b.update(cp=0, table=0, key=b.at(0))
    b.ret(0, 0)
    b.commit_handler()
    b.mov(2, 12345678)
    b.wrfield(2, 0, 1)
    b.commit()


# -- traced smokes ------------------------------------------------------------

def _traced_ycsb():
    tracer = Tracer(capacity=1_000_000)
    wl = YcsbWorkload(YcsbConfig(records_per_partition=2000, n_partitions=2,
                                 reads_per_txn=8, seed=7))
    db = BionicDB(BionicConfig(n_workers=2, tracer=tracer))
    wl.install(db)
    wl.submit_all(db, wl.make_read_txns(40) + wl.make_rmw_txns(20))
    return tracer


def _traced_tpcc():
    tracer = Tracer(capacity=1_000_000)
    wl = TpccWorkload(TpccConfig(n_partitions=2, customers_per_district=40,
                                 items=400, seed=11))
    db = BionicDB(BionicConfig(n_workers=2, tracer=tracer))
    wl.install(db)
    wl.submit_all(db, wl.make_mix(24), retry=True)
    return tracer


def _traced(build):
    def run():
        with recorded_machines() as machines:
            tracer = build()
        (db, done), = machines
        return {**fingerprint(db, done), **trace_digest(tracer)}
    return run


# -- bare engine workloads ----------------------------------------------------

def _engine_basic():
    eng = Engine()
    log = []

    def proc():
        yield 10
        log.append(eng.now)
        value = yield eng.timeout(5, value="v")
        log.append((eng.now, value))

    eng.process(proc())
    eng.run()
    return {"log": log, "events_fired": eng.events_fired, "now_ns": eng.now}


def _engine_tickers():
    eng = Engine()

    def ticker(n):
        for _ in range(n):
            yield 1.0

    for _ in range(4):
        eng.process(ticker(500))
    eng.run()
    return {"events_fired": eng.events_fired, "now_ns": eng.now}


def _engine_port_roundtrips():
    eng = Engine()
    clock = ClockDomain(eng, 125.0, name="bench")
    heap = Heap()
    port = DramModel(eng, clock, heap).new_port("bench", max_outstanding=4)
    base = heap.alloc(64)

    def reader(n):
        for i in range(n):
            yield port.read(base + (i & 63))

    eng.process(reader(200))
    eng.run()
    return {"events_fired": eng.events_fired, "now_ns": eng.now}


def _engine_channel():
    eng = Engine()
    fifo = Fifo(eng, capacity=16, name="bench")

    def producer(n):
        for i in range(n):
            yield fifo.put(i)

    def consumer(n):
        for _ in range(n):
            yield fifo.get()

    eng.process(producer(500))
    eng.process(consumer(500))
    eng.run()
    return {"events_fired": eng.events_fired, "now_ns": eng.now}


SCENARIOS = {
    "dynamic_chains_static_24": lambda: fingerprints(_chains(False, 24)),
    "dynamic_chains_24": lambda: fingerprints(_chains(True, 24)),
    "dynamic_chains_6": lambda: fingerprints(_chains(True, 6)),
    "dynamic_chains_80": lambda: fingerprints(_chains(True, 80)),
    "dynamic_chain_abort": lambda: fingerprints(_chain_abort),
    "ext_dynamic_quick": lambda: fingerprints(
        lambda: run_dynamic_scheduling(n_txns=80)),
    "fig9b_serial_tpcc": lambda: fingerprints(
        lambda: bionicdb_tpcc_tput(2, n_txns=100)),
    "line_buffer_ablation_quick": lambda: fingerprints(
        lambda: run_line_buffer_ablation(n_txns=100)),
    "traced_ycsb_smoke": _traced(_traced_ycsb),
    "traced_tpcc_smoke": _traced(_traced_tpcc),
    "mid_section_commit": lambda: fingerprints(_mid_section(_mid_commit_proc)),
    "mid_section_abort": lambda: fingerprints(_mid_section(_mid_abort_proc)),
    "error_unknown_table": _failing(_unknown_table),
    "error_bad_operand": _failing(_bad_operand),
    "error_commit_in_logic": _failing(_commit_in_logic),
    "error_load_empty_cell": _failing(_load_empty_cell),
    "error_wrfield_empty_cell": _failing(_wrfield_empty_cell),
    "engine_basic_process": _engine_basic,
    "engine_tickers": _engine_tickers,
    "engine_port_roundtrips": _engine_port_roundtrips,
    "engine_channel": _engine_channel,
}


#: now_ns, counts, commit hashes, errors and trace digests were captured
#: on the instruction-by-instruction softcore these modes ran on before
#: every section was compiled.  events_fired was re-captured once, when
#: the hash pipeline's stages became callbacks that fire no event for a
#: no-op wait; the engine-only scenarios kept theirs.
GOLDENS = {
    "dynamic_chain_abort": [
        {"now_ns": 3216.0, "committed": 0, "aborted": 1,
         "commit_hash": "a90e0fbc9ad2233d", "events_fired": 47}],
    "dynamic_chains_24": [
        {"now_ns": 74032.0, "committed": 24, "aborted": 0,
         "commit_hash": "bb312c09ee7f0609", "events_fired": 3320}],
    "dynamic_chains_6": [
        {"now_ns": 20640.0, "committed": 6, "aborted": 0,
         "commit_hash": "b22e15891943f4aa", "events_fired": 848}],
    "dynamic_chains_80": [
        {"now_ns": 235536.0, "committed": 80, "aborted": 0,
         "commit_hash": "e0d7598d38973fdb", "events_fired": 10884}],
    "dynamic_chains_static_24": [
        {"now_ns": 265712.0, "committed": 24, "aborted": 0,
         "commit_hash": "8534987898f56ced", "events_fired": 2429}],
    "engine_basic_process":
        {"now_ns": 15.0, "events_fired": 4, "log": [10.0, (15.0, "v")]},
    "engine_channel":
        {"now_ns": 0.0, "events_fired": 2004},
    "engine_port_roundtrips":
        {"now_ns": 136000.0, "events_fired": 402},
    "engine_tickers":
        {"now_ns": 500.0, "events_fired": 2008},
    "error_bad_operand":
        {"error": "ExecutionError: bad value operand @1", "now_ns": 3104.0},
    "error_commit_in_logic":
        {"error": "ExecutionError: COMMIT outside a commit handler",
         "now_ns": 768.0},
    "error_load_empty_cell":
        {"error": "ExecutionError: LOAD from empty cell 0", "now_ns": 3784.0},
    "error_unknown_table":
        {"error": "SchemaError: unknown table id 999", "now_ns": 776.0},
    "error_wrfield_empty_cell":
        {"error": "ExecutionError: WRFIELD on empty cell 12345678",
         "now_ns": 4032.0},
    "ext_dynamic_quick": [
        {"now_ns": 211896.0, "committed": 80, "aborted": 0,
         "commit_hash": "e7a28d8fa813af32", "events_fired": 7840},
        {"now_ns": 59040.0, "committed": 80, "aborted": 0,
         "commit_hash": "2de4398728013804", "events_fired": 10751}],
    "fig9b_serial_tpcc": [
        {"now_ns": 1279688.0, "committed": 100, "aborted": 0,
         "commit_hash": "390fd7dc6a0509f0", "events_fired": 73315}],
    "line_buffer_ablation_quick": [
        {"now_ns": 241368.0, "committed": 100, "aborted": 0,
         "commit_hash": "d10553d06f2f3758", "events_fired": 16165},
        {"now_ns": 332328.0, "committed": 100, "aborted": 0,
         "commit_hash": "3182a162b2d7ab07", "events_fired": 17165}],
    "mid_section_abort": [
        {"now_ns": 114272.0, "committed": 8, "aborted": 16,
         "commit_hash": "86e28ccf90f37889", "events_fired": 1139}],
    "mid_section_commit": [
        {"now_ns": 113056.0, "committed": 12, "aborted": 12,
         "commit_hash": "8baa2184533dbfef", "events_fired": 1051}],
    "traced_tpcc_smoke":
        {"now_ns": 530656.0, "committed": 24, "aborted": 63,
         "commit_hash": "7072b20b4013049e", "events_fired": 33611,
         "trace_lines": 5881,
         "trace_sha256": "d7072dd9784865123ebc189f3e48552a16e6777ff5ee0326aac2e8da702625a5"},
    "traced_ycsb_smoke":
        {"now_ns": 187368.0, "committed": 57, "aborted": 3,
         "commit_hash": "a4225674cbd14344", "events_fired": 15384,
         "trace_lines": 2608,
         "trace_sha256": "529222561398309900b2a7212209b34ab6eb391b2ffd86b029828c00899977ed"},
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    assert SCENARIOS[name]() == GOLDENS[name]
