"""The softcore: stored-procedure execution with transaction interleaving.

This is the custom microprocessor of §4.3 (no instruction pipelining,
no out-of-order execution, no general-purpose cache — the paper cites
evidence that none of these pay off for OLTP).  CPU instructions run in
five one-cycle steps; DB instructions take Prepare + Dispatch and are
forwarded *asynchronously* to the local index coprocessor or, via the
on-chip channels, to a remote one.

Transaction interleaving (§4.5, Figure 8) batches transactions by
renaming each into an exclusive GP/CP register range.  Phase one runs
each transaction's logic to the end without waiting for outstanding DB
instructions, saving the context (10-cycle switch) and moving on.
Phase two revisits the batch in serial order: each commit handler waits
for its outstanding DB instructions, then commits — or, on any DB
error or voluntary abort, the abort handler rolls back from the UNDO
log.

At transaction admission, the block's input region is streamed into the
softcore's *working-set buffer* (the BRAM buffer visible in Figure 2);
this is what lets the Dispatch step route DB instructions by key
without a DRAM round trip.

Procedure sections execute as generated code
(:mod:`repro.softcore.compiled`), compiled at a procedure's first use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..isa.instructions import Opcode, Section
from ..mem.txnblock import TransactionBlock, TxnStatus
from ..sim.clock import ClockDomain
from ..sim.engine import Engine
from ..sim.memory import DramModel
from ..sim.stats import StatsRegistry
from ..sim.sync import Fifo
from ..txn.cc import DbResult, ResultCode
from ..txn.timestamps import HardwareClock
from ..index.common import DbRequest
from .catalogue import Catalogue
from .compiled import BLOCKED, CompiledTier, ExecutionError
from .context import TxnContext, WriteSetEntry
from .registers import CpRegisterFile, RegisterFile

__all__ = ["SoftcoreConfig", "Softcore", "ExecutionError"]

_WRITE_OPS = (Opcode.INSERT, Opcode.UPDATE, Opcode.REMOVE)


@dataclass
class SoftcoreConfig:
    cpu_inst_cycles: float = 5.0
    db_prepare_cycles: float = 1.0
    db_dispatch_cycles: float = 1.0
    ret_cycles: float = 5.0
    context_switch_cycles: float = 10.0
    commit_cycles_per_entry: float = 2.0
    wrfield_cycles: float = 6.0
    catalogue_cycles: float = 2.0
    interleaving: bool = True
    #: §4.5 'future work': switch transactions whenever a RET blocks,
    #: instead of only at end-of-logic (helps data-dependent workloads)
    dynamic_scheduling: bool = False
    max_batch: Optional[int] = None
    n_registers: int = 256
    #: single-entry tuple line buffer: one 64-byte header line holds all
    #: the fields a procedure touches, so consecutive LOAD/WRFIELD to
    #: the same record cost one DRAM read (ablation knob)
    line_buffer: bool = True
    #: optional static conflict hints for §4.5 batch forming
    #: (:class:`repro.analysis.conflict.BatchConflictHints` or anything
    #: exposing ``blocks(proc_id_a, proc_id_b) -> bool``): a transaction
    #: whose procedure must-serialize against one already in the batch
    #: closes the batch instead of joining it.  None (the default)
    #: keeps grouping decisions — and timing — exactly as before.
    conflict_hints: Optional[Any] = None


class Softcore:
    """One partition worker's stored-procedure engine."""

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        dram: DramModel,
        worker_id: int,
        catalogue: Catalogue,
        hw_clock: HardwareClock,
        config: Optional[SoftcoreConfig] = None,
        stats: Optional[StatsRegistry] = None,
        on_txn_done: Optional[Callable[[TransactionBlock], None]] = None,
        tracer=None,
    ):
        from ..sim.trace import NULL_TRACER
        self.engine = engine
        self.clock = clock
        self.dram = dram
        self.worker_id = worker_id
        self.catalogue = catalogue
        self.hw_clock = hw_clock
        self.config = config or SoftcoreConfig()
        self.stats = stats or StatsRegistry()
        self.on_txn_done = on_txn_done
        self.tracer = tracer if tracer is not None else NULL_TRACER

        self.input_queue: Fifo = Fifo(engine, name=f"w{worker_id}.input")
        self.gp = RegisterFile(self.config.n_registers)
        self.cp = CpRegisterFile(engine, self.config.n_registers)
        self.port = dram.new_port(f"w{worker_id}.core", max_outstanding=8,
                                  issue_interval_cycles=1.0)

        # Set by the partition worker that owns this softcore:
        #   route(table_id, key) -> destination partition (None = local)
        #   dispatch(req, dst_partition)
        self.route: Callable[[int, Any], Optional[int]] = lambda _t, _k: None
        self.dispatch: Callable[[DbRequest, Optional[int]], None] = \
            self._reject_dispatch

        self._cp_owner: Dict[int, TxnContext] = {}
        self._pending_info: Dict[int, Tuple[Opcode, int]] = {}
        self._pending_block: Optional[TransactionBlock] = None

        pre = f"worker{worker_id}"
        self._committed = self.stats.counter(f"{pre}.committed")
        self._aborted = self.stats.counter(f"{pre}.aborted")
        self._batches = self.stats.counter(f"{pre}.batches")
        self._insts = self.stats.counter(f"{pre}.instructions")
        self._db_insts = self.stats.counter(f"{pre}.db_instructions")
        self._remote_insts = self.stats.counter(f"{pre}.remote_db_instructions")

        self._tier = CompiledTier(self)

        self._proc = engine.process(self._run(), name=f"w{worker_id}.softcore")

    @staticmethod
    def _reject_dispatch(_req, _dst):  # pragma: no cover - must be wired
        raise ExecutionError("softcore has no dispatcher wired")

    # -- client interface --------------------------------------------------
    def submit(self, block: TransactionBlock) -> None:
        block.header.status = TxnStatus.PENDING
        self.input_queue.put(block)

    # -- result delivery (local coprocessor or remote response path) --------
    def deliver(self, cp_global: int, result: DbResult) -> None:
        ctx = self._cp_owner.get(cp_global)
        if ctx is None:
            raise ExecutionError(f"result for unowned CP register {cp_global}")
        op, table_id = self._pending_info.pop(cp_global)
        self.cp.write_back(cp_global, result)
        code = result.code
        if code is ResultCode.OK:
            if op in _WRITE_OPS:
                ctx.write_set.append(
                    WriteSetEntry(op, table_id, result.tuple_addr))
        elif not (code is ResultCode.NOT_FOUND and
                  (cp_global - ctx.cp_base) in ctx.entry.tolerant_cps):
            ctx.failed = True
            if ctx.fail_reason is None:
                ctx.fail_reason = f"{op.value}: {code.name}"
        ctx.note_result()

    # -- main loop -----------------------------------------------------------
    def _run(self):
        cfg = self.config
        while True:
            if self._pending_block is not None:
                block, self._pending_block = self._pending_block, None
            else:
                block = yield self.input_queue.get()
            if cfg.interleaving and cfg.dynamic_scheduling:
                batch = yield from self._phase1_dynamic(block)
            else:
                batch = yield from self._phase1_static(block)
            # ---- phase 2: commit/abort handlers in serial order -------------
            for ctx in batch:
                yield self.clock.delay(cfg.context_switch_cycles)
                yield ctx.wait_drained(self.engine)
                if not ctx.failed:
                    yield from self._section_gen(ctx, Section.COMMIT)
                if ctx.failed:
                    yield from self._section_gen(ctx, Section.ABORT)
                self._release(ctx)
            self._batches.add()

    def _admit(self, block: TransactionBlock, batch: List[TxnContext],
               bases: List[int]) -> Optional[TxnContext]:
        """Try to add ``block`` to the current batch (§4.5 transaction
        grouping): allocate an exclusive register range or fail, closing
        the batch (the block is kept for the next one)."""
        cfg = self.config
        entry = self.catalogue.lookup(block.proc_id)
        gp_base, cp_base = bases
        over_cap = (gp_base + entry.gp_needed > cfg.n_registers or
                    cp_base + entry.cp_needed > cfg.n_registers)
        over_batch = (cfg.max_batch is not None and len(batch) >= cfg.max_batch)
        over_conflict = (cfg.conflict_hints is not None and any(
            cfg.conflict_hints.blocks(ctx.block.proc_id, block.proc_id)
            for ctx in batch))
        if batch and (over_cap or over_batch or over_conflict):
            self._pending_block = block
            return None
        ctx = TxnContext(block=block, entry=entry,
                         begin_ts=self.hw_clock.next_ts(),
                         gp_base=gp_base, cp_base=cp_base)
        bases[0] += entry.gp_needed
        bases[1] += entry.cp_needed
        self.gp.clear_range(ctx.gp_base, entry.gp_needed)
        self.cp.clear_range(ctx.cp_base, entry.cp_needed)
        block.header.begin_ts = ctx.begin_ts
        block.header.status = TxnStatus.RUNNING
        batch.append(ctx)
        return ctx

    def _phase1_static(self, block: TransactionBlock):
        """Phase one as the paper implements it: run each transaction's
        logic to the end, switch, and never revisit until phase two."""
        cfg = self.config
        batch: List[TxnContext] = []
        bases = [0, 0]
        while True:
            yield self.clock.delay(cfg.catalogue_cycles)
            ctx = self._admit(block, batch, bases)
            if ctx is None:
                break
            yield from self._ingest(ctx)
            yield from self._section_gen(ctx, Section.LOGIC)
            ctx.finished_logic = True
            yield self.clock.delay(cfg.context_switch_cycles)
            if not cfg.interleaving:
                break
            ok, nxt = self.input_queue.try_get()
            if not ok:
                break
            block = nxt
        return batch

    def _phase1_dynamic(self, block: TransactionBlock):
        """Dynamic scheduling (the §4.5 'future work' variant): when a
        RET blocks on an outstanding DB instruction during transaction
        logic, the softcore switches to another runnable transaction
        instead of stalling, resuming the blocked one when its CP
        register is written back."""
        cfg = self.config
        batch: List[TxnContext] = []
        bases = [0, 0]
        ready = deque()
        wake: Fifo = Fifo(self.engine)
        blocked = 0

        yield self.clock.delay(cfg.catalogue_cycles)
        first = self._admit(block, batch, bases)
        yield from self._ingest(first)
        ready.append(first)

        while ready or blocked:
            if not ready:
                # nothing runnable: admit new work if possible, else
                # sleep until a blocked transaction is woken
                if self._pending_block is None:
                    ok, nxt = self.input_queue.try_get()
                    if ok:
                        yield self.clock.delay(cfg.catalogue_cycles)
                        ctx = self._admit(nxt, batch, bases)
                        if ctx is not None:
                            yield from self._ingest(ctx)
                            ready.append(ctx)
                            continue
                woken = yield wake.get()
                blocked -= 1
                ready.append(woken)
                continue
            ctx = ready.popleft()
            yield self.clock.delay(cfg.context_switch_cycles)
            # pump the logic generator by hand: BLOCKED suspends it on
            # the context until its CP register is written back
            logic = ctx.logic_run
            if logic is None:
                logic = ctx.logic_run = self._section_gen(ctx, Section.LOGIC)
            sent = None
            while True:
                try:
                    waited = logic.send(sent)
                except StopIteration:
                    ctx.logic_run = None
                    break
                if waited is BLOCKED:
                    break
                sent = yield waited
            if ctx.blocked_on is not None:
                cp_idx, ctx.blocked_on = ctx.blocked_on, None
                blocked += 1
                ev = self.cp.wait_valid(cp_idx)
                ev.callbacks.append(lambda _e, c=ctx: wake.put(c))
            else:
                ctx.finished_logic = True
                if self._pending_block is None:
                    ok, nxt = self.input_queue.try_get()
                    if ok:
                        yield self.clock.delay(cfg.catalogue_cycles)
                        ctx2 = self._admit(nxt, batch, bases)
                        if ctx2 is not None:
                            yield from self._ingest(ctx2)
                            ready.append(ctx2)
        return batch

    def _ingest(self, ctx: TxnContext):
        """Stream the input region into the working-set buffer (BRAM)."""
        layout = ctx.block.layout
        base = ctx.block.data_base
        first = yield self.port.read(base)
        if layout.n_inputs > 1:
            yield self.clock.delay(layout.n_inputs - 1)  # pipelined burst
        ws = [first]
        for i in range(1, layout.n_inputs):
            ws.append(self.dram.direct_read(base + i))
        ctx.working_set = ws

    def _release(self, ctx: TxnContext) -> None:
        for i in range(ctx.cp_base, ctx.cp_base + ctx.entry.cp_needed):
            self._cp_owner.pop(i, None)
            self._pending_info.pop(i, None)
        if self.on_txn_done is not None:
            self.on_txn_done(ctx.block)

    # -- sections ------------------------------------------------------------
    def _section_gen(self, ctx: TxnContext, section: Section):
        """The generator executing ``section`` of ``ctx``'s procedure
        (:mod:`repro.softcore.compiled`)."""
        return self._tier.section_fn(ctx.entry, section)(self, ctx)
