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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import Any, List, Optional

from ...isa.instructions import Opcode
from ...mem.records import NULL_ADDR, TupleRecord
from ...sim.sync import Fifo
from ...txn.cc import DbResult, ResultCode, check_read, check_write
from ..common import (
    DbRequest, IndexError_, PipelineBase, _sdbm_int8, sdbm_hash,
)
from .locktable import HazardLockTable

__all__ = ["HashTimings", "HashIndexPipeline"]


@dataclass(frozen=True)
class HashTimings:
    """Per-stage service times in FPGA cycles."""

    keyfetch: float = 2.0
    hash: float = 12.0      # byte-serial Sdbm over the key + bucket address
    headfetch: float = 2.0
    keycomp: float = 16.0   # byte-serial compare + visibility check
    install: float = 10.0
    traverse_hop: float = 4.0


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

    # ------------------------------------------------------------------
    def _build(self) -> None:
        eng = self.engine
        self.q_keyfetch = Fifo(eng, name=f"{self.name}.q.keyfetch")
        self.q_hash = Fifo(eng, name=f"{self.name}.q.hash")
        self.q_install = Fifo(eng, name=f"{self.name}.q.install")
        self.q_headfetch = Fifo(eng, name=f"{self.name}.q.headfetch")
        self.q_keycomp = Fifo(eng, name=f"{self.name}.q.keycomp")
        self.q_traverse = [Fifo(eng, name=f"{self.name}.q.traverse{i}")
                           for i in range(self.n_traverse_stages)]
        self._traverse_rr = cycle(range(self.n_traverse_stages))
        eng.process(self._stage_keyfetch(), name=f"{self.name}.keyfetch")
        eng.process(self._stage_hash(), name=f"{self.name}.hash")
        eng.process(self._stage_install(), name=f"{self.name}.install")
        eng.process(self._stage_headfetch(), name=f"{self.name}.headfetch")
        eng.process(self._stage_keycomp(), name=f"{self.name}.keycomp")
        for i, q in enumerate(self.q_traverse):
            eng.process(self._stage_traverse(q), name=f"{self.name}.traverse{i}")

    def _enter(self, req: DbRequest) -> None:
        if req.op in (Opcode.SCAN, Opcode.RANGE_SCAN):
            raise IndexError_(f"{req.op.value} dispatched to a hash index")
        self._forward(self.q_keyfetch, req)

    # -- stage 1: KeyFetch ------------------------------------------------
    def _stage_keyfetch(self):
        t = self.timings
        while True:
            req: DbRequest = yield self.q_keyfetch.get()
            yield self.clock.delay(t.keyfetch)
            if req.op is Opcode.INSERT and req.payload_addr is not None:
                # computed key: fetch the field list from its block cell
                req.key = req.key_value
                ev = self.read_port.read(req.payload_addr)
                ev.callbacks.append(self._payload_done(req))
            elif req.key_value is not None or req.key_addr is None:
                self._set_key(req, req.key_value)
                self._forward(self.q_hash, req)
            else:
                # Fetch the search key from the transaction block,
                # designating the Hash stage as the destination.
                ev = self.read_port.read(req.key_addr)
                ev.callbacks.append(self._keyfetch_done(req))

    def _keyfetch_done(self, req: DbRequest):
        def cb(event) -> None:
            self._set_key(req, event.value)
            self._forward(self.q_hash, req)
        return cb

    def _payload_done(self, req: DbRequest):
        def cb(event) -> None:
            req.insert_payload = list(event.value or [])
            self._forward(self.q_hash, req)
        return cb

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

    # -- stage 2: Hash ---------------------------------------------------
    def bucket_addr_of(self, key: Any, table_id: int = 0) -> int:
        try:
            base, n_buckets = self._tables[table_id]
        except KeyError:
            raise IndexError_(f"{self.name}: unknown table {table_id}") from None
        return base + sdbm_hash(key) % n_buckets

    def _stage_hash(self):
        t = self.timings
        while True:
            req: DbRequest = yield self.q_hash.get()
            yield self.clock.delay(t.hash)
            bucket_addr = self.bucket_addr_of(req.key, req.table_id)
            req._bucket_addr = bucket_addr
            if self.hazard_prevention:
                if req.op is Opcode.INSERT:
                    yield self.locks.acquire_insert(bucket_addr)
                elif self.locks.locked(bucket_addr):
                    yield self.locks.wait_clear(bucket_addr)
            target = self.q_install if req.op is Opcode.INSERT else self.q_headfetch
            ev = self.read_port.read(bucket_addr)
            ev.callbacks.append(self._bucket_read_done(req, target))

    def _bucket_read_done(self, req: DbRequest, target: Fifo):
        def cb(event) -> None:
            self._forward(target, (req, event.value))
        return cb

    # -- stage 3a: Install (INSERT path) ------------------------------------
    def _stage_install(self):
        t = self.timings
        while True:
            req, head_addr = yield self.q_install.get()
            yield self.clock.delay(t.install)
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
            head_ev = self.write_port.write(req._bucket_addr, addr)
            head_ev.callbacks.append(self._install_done(req, addr))
            self.tuple_count += 1

    def _install_done(self, req: DbRequest, addr: int):
        bucket_addr = req._bucket_addr

        def cb(_event) -> None:
            # The lock may only clear once the new head pointer is
            # visible in DRAM, otherwise a stalled reader could still
            # load the stale head.
            if self.hazard_prevention:
                self.locks.release_insert(bucket_addr)
            self._done(req, DbResult(ResultCode.OK, tuple_addr=addr))
        return cb

    # -- stage 3b: HeadFetch -----------------------------------------------
    def _stage_headfetch(self):
        t = self.timings
        while True:
            req, head_addr = yield self.q_headfetch.get()
            yield self.clock.delay(t.headfetch)
            if not head_addr:
                self._done(req, DbResult(ResultCode.NOT_FOUND))
                continue
            ev = self.read_port.read(head_addr)
            ev.callbacks.append(self._head_read_done(req, head_addr))

    def _head_read_done(self, req: DbRequest, addr: int):
        def cb(event) -> None:
            self._forward(self.q_keycomp, (req, addr, event.value))
        return cb

    # -- stage 4: KeyComp -----------------------------------------------------
    def _stage_keycomp(self):
        t = self.timings
        while True:
            req, addr, record = yield self.q_keycomp.get()
            yield self.clock.delay(t.keycomp)
            if record is not None and self._matches(req, record):
                self._finish_match(req, addr, record)
            else:
                self._forward(self.q_traverse[next(self._traverse_rr)],
                              (req, record))

    # -- stage 5: Traverse ------------------------------------------------------
    def _stage_traverse(self, queue: Fifo):
        t = self.timings
        while True:
            req, record = yield queue.get()
            # Follow the hash-conflict chain; unlike other stages this one
            # has internal memory stalls (dependent pointer chasing).
            while True:
                yield self.clock.delay(t.traverse_hop)
                next_addr = record.next_addr if record is not None else NULL_ADDR
                if not next_addr:
                    self._done(req, DbResult(ResultCode.NOT_FOUND))
                    break
                record = yield self.read_port.read(next_addr)
                if record is not None and self._matches(req, record):
                    self._finish_match(req, next_addr, record)
                    break

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
