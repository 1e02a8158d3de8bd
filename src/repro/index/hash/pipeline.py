"""The hardware hash index pipeline (§4.4.1, Figure 5a).

Stage graph::

    KeyFetch --> Hash --+--> Install                      (INSERT path)
                        +--> HeadFetch --> KeyComp --> Traverse*
                                           (SEARCH / UPDATE / REMOVE path)

Every stage is a finite-state machine woken by data arrival; stages
issue memory requests *designating the next stage as the destination*
and immediately move to the next incoming instruction, so many index
operations overlap in flight.  The Traverse stage follows hash-conflict
chains and is the only stage with internal memory stalls; multiple
Traverse stages can be populated to keep the dataflow balanced under
frequent conflicts (§4.4.1).

Hazards (insert-after-insert, search-after-insert) are prevented by
pipeline stalls against a BRAM lock table (Figure 6b); setting
``hazard_prevention=False`` reproduces the lost-update anomaly of
Figure 6a — there is a regression test that does exactly that.

Stages as callbacks
-------------------
The stages are callback state machines, the same injected-callable
idiom as a port-driven core model: each stage is a :class:`_Stage` (a
busy flag and a backlog), a hop to a stage is one engine work item,
and memory completions call the next stage directly
(``MemoryPort.read_cb`` / ``write_cb``), so no generator process,
inter-stage :class:`Fifo` or completion :class:`Event` exists per
operation.  The work items follow
the hop structure of a process-per-stage pipeline exactly (a stage
wakes one hop after its input arrives, waits its service time on the
heap, and the next queued input starts one hop after it finishes), so
DRAM channel arbitration among same-instant requests, which resolves
in engine scheduling order, sees the order a process pipeline would
produce.  Waits that are no-ops in a process pipeline (a put to a
parked stage, a token acquired while one is free) fire no event here.

Hazard-lock waits are rare (contended inserts), so they keep an
Event-callback form; the continuation runs inside the lock-release
firing.  The hot hops inline ``Engine._schedule_fn`` (sequence-number
bump + ready-deque append / heap push): same items, same order, no
method-call overhead.  Stage delays are always positive, so the delay
hop always lands on the heap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush as _heappush
from itertools import cycle
from typing import Any, List, Optional

from ...isa.instructions import Opcode
from ...mem.records import NULL_ADDR, TupleRecord
from ...sim.engine import Event
from ...txn.cc import DbResult, ResultCode, check_read, check_write
from ..common import (
    DbRequest, IndexError_, PipelineBase, _sdbm_int8, sdbm_hash,
)
from .locktable import HazardLockTable

__all__ = ["HashTimings", "HashIndexPipeline"]

_OK = ResultCode.OK
_NOT_FOUND = ResultCode.NOT_FOUND


@dataclass(frozen=True)
class HashTimings:
    """Per-stage service times in FPGA cycles."""

    keyfetch: float = 2.0
    hash: float = 12.0      # byte-serial Sdbm over the key + bucket address
    headfetch: float = 2.0
    keycomp: float = 16.0   # byte-serial compare + visibility check
    install: float = 10.0
    traverse_hop: float = 4.0


class _Stage:
    """One stage's input side: a busy flag and a backlog.  Input reaching
    an idle stage wakes it one hop later (a ready-deque item), the wake
    schedules the service time (a heap item) ending in ``body(item)``,
    and ``done()`` starts the next backlog item one hop later or idles
    the stage: the hops of a process blocked on an input FIFO."""

    __slots__ = ("eng", "delay", "body", "busy", "backlog", "wake_cb")

    def __init__(self, eng, delay: float, body) -> None:
        self.eng = eng
        self.delay = delay
        self.body = body
        self.busy = False
        self.backlog: deque = deque()
        self.wake_cb = self.wake

    def put(self, item) -> None:
        if self.busy:
            self.backlog.append(item)
        else:
            self.busy = True
            eng = self.eng
            seq = eng._seq = eng._seq + 1
            eng._ready.append((seq, self.wake_cb, item))

    def wake(self, item) -> None:
        eng = self.eng
        seq = eng._seq = eng._seq + 1
        _heappush(eng._heap, (eng.now + self.delay, seq, self.body, item))

    def done(self) -> None:
        backlog = self.backlog
        if backlog:
            eng = self.eng
            seq = eng._seq = eng._seq + 1
            eng._ready.append((seq, self.wake_cb, backlog.popleft()))
        else:
            self.busy = False


class HashIndexPipeline(PipelineBase):
    """One partition's hash index coprocessor."""

    def __init__(self, engine, clock, dram, name: str, n_buckets: int = 0,
                 timings: Optional[HashTimings] = None,
                 n_traverse_stages: int = 1,
                 hazard_prevention: bool = True,
                 max_in_flight: int = 16,
                 read_issue_interval_cycles: float = 24.0,
                 write_issue_interval_cycles: float = 28.0,
                 stats=None, tracer=None):
        if n_buckets < 0:
            raise ValueError("n_buckets must be >= 0")
        if n_traverse_stages < 1:
            raise ValueError("need at least one Traverse stage")
        self.timings = timings or HashTimings()
        self.n_traverse_stages = n_traverse_stages
        self.hazard_prevention = hazard_prevention
        self._dram = dram
        # one coprocessor serves every hash table of its partition; each
        # table gets its own bucket array: table_id -> (base, n_buckets)
        self._tables: dict = {}
        super().__init__(engine, clock, dram, name,
                         max_in_flight=max_in_flight,
                         read_issue_interval_cycles=read_issue_interval_cycles,
                         write_issue_interval_cycles=write_issue_interval_cycles,
                         stats=stats, tracer=tracer)
        self.locks = HazardLockTable(engine, name=f"{name}.locks")
        self.tuple_count = 0
        if n_buckets:
            # single-table convenience (used heavily by unit tests)
            self.add_table(0, n_buckets)

    def add_table(self, table_id: int, n_buckets: int) -> None:
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        if table_id in self._tables:
            raise ValueError(f"table {table_id} already registered")
        self._tables[table_id] = (self._dram.heap.alloc(n_buckets), n_buckets)

    # -- construction ----------------------------------------------------
    def _build(self) -> None:
        eng = self._eng = self.engine
        ns = self.clock.ns
        t = self.timings
        self._sched = eng._schedule_fn
        self._keyfetch = _Stage(eng, ns(t.keyfetch), self._kf_body)
        self._hash = _Stage(eng, ns(t.hash), self._hs_body)
        self._install = _Stage(eng, ns(t.install), self._in_body)
        self._headfetch = _Stage(eng, ns(t.headfetch), self._hf_body)
        self._keycomp = _Stage(eng, ns(t.keycomp), self._kc_body)
        self._traverse = [_Stage(eng, ns(t.traverse_hop), self._tr_hop)
                          for _ in range(self.n_traverse_stages)]
        self._traverse_rr = cycle(self._traverse)

    def _start_admission(self) -> None:
        # the admission state machine's lifetime, as a process would
        # expose it: it fails, and admission stops, when a request no
        # hash index can serve reaches it
        self._admit_proc = Event(self.engine)
        self._adm_idle = True
        self._adm_parked = None
        self._adm_q: deque = deque()

    # -- admission -------------------------------------------------------
    def submit(self, req: DbRequest) -> None:
        entry = self.entry
        entry.total_put += 1           # keep the Fifo's counters truthful
        if self._adm_idle:
            self._adm_idle = False
            eng = self._eng
            seq = eng._seq = eng._seq + 1
            eng._ready.append((seq, self._admit_recv, req))
        else:
            q = self._adm_q
            q.append(req)
            if len(q) > entry.max_depth:
                entry.max_depth = len(q)

    def _admit_recv(self, req: DbRequest) -> None:
        tokens = self.tokens
        if tokens.available > 0:
            tokens.available -= 1
            tokens.total_acquired += 1
            # where a process would resume from its pre-triggered acquire
            eng = self._eng
            seq = eng._seq = eng._seq + 1
            eng._ready.append((seq, self._admit_grant, req))
        else:
            self._adm_parked = req

    def _admit_grant(self, req: DbRequest) -> None:
        if self.tracer.enabled:
            self.tracer.emit(self.trace_category, self.name,
                             f"enter {req.op.value} txn={req.txn_id}"
                             + (" (background)" if req.background else ""))
        try:
            self._enter(req)
        except IndexError_ as exc:
            self._admit_proc.fail(exc)
            return
        q = self._adm_q
        if q:
            eng = self._eng
            seq = eng._seq = eng._seq + 1
            eng._ready.append((seq, self._admit_recv, q.popleft()))
        else:
            self._adm_idle = True

    def _done(self, req: DbRequest, result: DbResult) -> None:
        tokens = self.tokens
        parked = self._adm_parked
        if parked is not None:
            # hand the token straight to the parked admission, exactly
            # like TokenPool.release granting its waiter: one hop
            self._adm_parked = None
            tokens.total_acquired += 1
            eng = self._eng
            seq = eng._seq = eng._seq + 1
            eng._ready.append((seq, self._admit_grant, parked))
        else:
            tokens.release()
        self.completed.value += 1
        if result.code is not _OK:
            self.errors.value += 1
        if self.tracer.enabled:
            self.tracer.emit(self.trace_category, self.name,
                             f"done {req.op.value} txn={req.txn_id} "
                             f"key={req.key!r} -> {result.code.name}")
        req.finish(result)

    def set_max_in_flight(self, n: int) -> None:
        self.tokens.resize(n)
        tokens = self.tokens
        if self._adm_parked is not None and tokens.available > 0:
            tokens.available -= 1
            tokens.total_acquired += 1
            req, self._adm_parked = self._adm_parked, None
            self._sched(self.engine.now, self._admit_grant, req)

    def _enter(self, req: DbRequest) -> None:
        if req.op in (Opcode.SCAN, Opcode.RANGE_SCAN):
            raise IndexError_(f"{req.op.value} dispatched to a hash index")
        self._keyfetch.put(req)

    # -- stage 1: KeyFetch -----------------------------------------------
    def _kf_body(self, req: DbRequest) -> None:
        if req.op is Opcode.INSERT and req.payload_addr is not None:
            req.key = req.key_value
            self.read_port.read_cb(req.payload_addr, self._kf_payload_done, req)
        elif req.key_value is not None or req.key_addr is None:
            self._set_key(req, req.key_value)
            self._hash.put(req)
        else:
            self.read_port.read_cb(req.key_addr, self._kf_key_done, req)
        self._keyfetch.done()

    def _kf_key_done(self, arg: tuple) -> None:
        req, value = arg
        self._set_key(req, value)
        self._hash.put(req)

    def _kf_payload_done(self, arg: tuple) -> None:
        req, value = arg
        req.insert_payload = list(value or [])
        self._hash.put(req)

    # -- stage 2: Hash ---------------------------------------------------
    def _hs_body(self, req: DbRequest) -> None:
        bucket_addr = self.bucket_addr_of(req.key, req.table_id)
        req._bucket_addr = bucket_addr
        if self.hazard_prevention:
            if req.op is Opcode.INSERT:
                ev = self.locks.acquire_insert(bucket_addr)
                if ev.triggered:
                    # pre-triggered event: resume one hop later
                    eng = self._eng
                    seq = eng._seq = eng._seq + 1
                    eng._ready.append((seq, self._hs_finish, req))
                else:
                    # contended: resume inside the lock-release firing
                    ev.callbacks.append(
                        lambda _ev, _s=self, _r=req: _s._hs_finish(_r))
                return
            if self.locks.locked(bucket_addr):
                ev = self.locks.wait_clear(bucket_addr)
                ev.callbacks.append(
                    lambda _ev, _s=self, _r=req: _s._hs_finish(_r))
                return
        self._hs_finish(req)

    def _hs_finish(self, req: DbRequest) -> None:
        # the bucket head goes to Install (INSERT) or HeadFetch
        nxt = self._install if req.op is Opcode.INSERT else self._headfetch
        self.read_port.read_cb(req._bucket_addr, nxt.put, req)
        self._hash.done()

    # -- stage 3a: Install (INSERT path) ---------------------------------
    def _in_body(self, item: tuple) -> None:
        req, head_addr = item
        addr = self._dram.heap.alloc()
        record = TupleRecord(
            key=req.key,
            fields=list(req.insert_payload or []),
            addr=addr,
            next_addr=head_addr or NULL_ADDR,
            read_ts=req.ts,
            write_ts=req.ts,
            dirty=True,
        )
        self.write_port.post_write(addr, record)
        self.write_port.write_cb(req._bucket_addr, addr, self._in_done,
                                 (req, addr))
        self.tuple_count += 1
        self._install.done()

    def _in_done(self, arg: tuple) -> None:
        (req, addr), _ = arg
        # the lock may only clear once the new head pointer is visible
        if self.hazard_prevention:
            self.locks.release_insert(req._bucket_addr)
        self._done(req, DbResult(_OK, tuple_addr=addr))

    # -- stage 3b: HeadFetch ----------------------------------------------
    def _hf_body(self, item: tuple) -> None:
        req, head_addr = item
        if not head_addr:
            self._done(req, DbResult(_NOT_FOUND))
        else:
            self.read_port.read_cb(head_addr, self._hf_done, (req, head_addr))
        self._headfetch.done()

    def _hf_done(self, arg: tuple) -> None:
        (req, addr), record = arg
        self._keycomp.put((req, addr, record))

    # -- stage 4: KeyComp -------------------------------------------------
    def _kc_body(self, item: tuple) -> None:
        req, addr, record = item
        if record is not None and self._matches(req, record):
            self._finish_match(req, addr, record)
        else:
            stage = next(self._traverse_rr)
            stage.put((stage, req, record))
        self._keycomp.done()

    # -- stage 5: Traverse ------------------------------------------------
    def _tr_hop(self, item: tuple) -> None:
        stage, req, record = item
        next_addr = record.next_addr if record is not None else NULL_ADDR
        if not next_addr:
            self._done(req, DbResult(_NOT_FOUND))
            stage.done()
            return
        self.read_port.read_cb(next_addr, self._tr_read,
                               (stage, req, next_addr))

    def _tr_read(self, arg: tuple) -> None:
        (stage, req, next_addr), record = arg
        if record is not None and self._matches(req, record):
            self._finish_match(req, next_addr, record)
            stage.done()
            return
        # chain miss: next hop, scheduled inside this completion firing
        eng = self._eng
        seq = eng._seq = eng._seq + 1
        _heappush(eng._heap, (eng.now + stage.delay, seq, self._tr_hop,
                              (stage, req, record)))

    def _set_key(self, req: DbRequest, cell: Any) -> None:
        if req.op is Opcode.INSERT:
            # INSERT input cells hold (key, fields).
            if req.insert_payload is not None:
                req.key = cell if cell is not None else req.key_value
            elif isinstance(cell, tuple) and len(cell) == 2:
                req.key, req.insert_payload = cell
            else:
                req.key = cell
                req.insert_payload = []
        else:
            req.key = cell

    def bucket_addr_of(self, key: Any, table_id: int = 0) -> int:
        try:
            base, n_buckets = self._tables[table_id]
        except KeyError:
            raise IndexError_(f"{self.name}: unknown table {table_id}") from None
        return base + sdbm_hash(key) % n_buckets

    # -- terminal behaviour ---------------------------------------------------
    @staticmethod
    def _matches(req: DbRequest, record: TupleRecord) -> bool:
        """Key match; committed tombstones are skipped (deleted), but a
        dirty tombstone (in-flight REMOVE) must reach the visibility
        check so the access is blindly rejected per §4.7."""
        if record.key != req.key:
            return False
        return not (record.tombstone and not record.dirty)

    def _finish_match(self, req: DbRequest, addr: int, record: TupleRecord) -> None:
        if req.op is Opcode.INSERT:  # pragma: no cover - inserts use Install
            raise IndexError_("INSERT reached a read-path terminal stage")
        if req.op in (Opcode.SEARCH,):
            code = check_read(record, req.ts)
            if code is ResultCode.OK:
                # read-timestamp bump is a masked line write
                self.write_port.post_write(addr, record)
        else:  # UPDATE / REMOVE
            code = check_write(record, req.ts, tombstone=req.op is Opcode.REMOVE)
            if code is ResultCode.OK:
                self.write_port.post_write(addr, record)
        value = record.fields[0] if (code is ResultCode.OK and record.fields) else None
        self._done(req, DbResult(code, tuple_addr=addr, value=value))

    # -- host-side helpers (timing-free; loading & verification) -----------
    def bulk_load(self, key: Any, fields: List[Any], ts: int = 0,
                  table_id: int = 0) -> int:
        """Install a committed tuple without consuming simulated time."""
        heap = self._dram.heap
        bucket_addr = self.bucket_addr_of(key, table_id)
        addr = heap.alloc()
        record = TupleRecord(key=key, fields=list(fields), addr=addr,
                             next_addr=heap.load(bucket_addr) or NULL_ADDR,
                             read_ts=ts, write_ts=ts, dirty=False)
        heap.store(addr, record)
        heap.store(bucket_addr, addr)
        self.tuple_count += 1
        return addr

    def bulk_load_many(self, rows, ts: int = 0, table_id: int = 0) -> int:
        """Batched :meth:`bulk_load`: identical rows, chains and heap
        addresses, with the per-row dispatch (schema lookup, allocator
        call, byte-serial hash) hoisted or specialised away.  This is
        what makes paper-scale loading (300 K rows/partition) a matter
        of seconds rather than minutes."""
        heap = self._dram.heap
        try:
            base, n_buckets = self._tables[table_id]
        except KeyError:
            raise IndexError_(f"{self.name}: unknown table {table_id}") from None
        cells = heap._cells
        nxt = heap._next
        int8_max = 1 << 63
        n = 0
        for key, fields in rows:
            if type(key) is int and 0 <= key < int8_max:
                bucket = base + _sdbm_int8(key) % n_buckets
            else:
                bucket = base + sdbm_hash(key) % n_buckets
            addr = nxt
            nxt += 1
            # positional: key, fields, addr, next_addr, read_ts, write_ts
            cells[addr] = TupleRecord(key, list(fields), addr,
                                      cells.get(bucket) or NULL_ADDR, ts, ts)
            cells[bucket] = addr
            n += 1
        heap._next = nxt
        heap.allocated_cells += n
        self.tuple_count += n
        return n

    def lookup_direct(self, key: Any, table_id: int = 0) -> Optional[TupleRecord]:
        """Timing-free probe used by tests and recovery verification."""
        heap = self._dram.heap
        addr = heap.load(self.bucket_addr_of(key, table_id))
        while addr:
            record = heap.load(addr)
            if record is None:
                return None
            if record.key == key and not record.tombstone:
                return record
            addr = record.next_addr
        return None

    def items_direct(self, table_id: int = 0):
        """Yield (key, fields, write_ts) for every live committed tuple
        (checkpointing helper; timing-free)."""
        heap = self._dram.heap
        base, n_buckets = self._tables[table_id]
        for b in range(n_buckets):
            addr = heap.load(base + b)
            seen = set()
            while addr:
                record = heap.load(addr)
                if record is None:
                    break
                # newest version of a key sits closest to the head
                if record.key not in seen:
                    seen.add(record.key)
                    if not record.tombstone and not record.dirty:
                        yield record.key, list(record.fields), record.write_ts
                addr = record.next_addr

    def chain_length(self, key: Any, table_id: int = 0) -> int:
        heap = self._dram.heap
        addr = heap.load(self.bucket_addr_of(key, table_id))
        n = 0
        while addr:
            n += 1
            record = heap.load(addr)
            if record is None:
                break
            addr = record.next_addr
        return n
