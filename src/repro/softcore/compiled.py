"""Compiled stored procedures: how the softcore executes every section.

A registered procedure's instruction sequence is frozen, so none of the
per-instruction decoding (opcode dispatch, operand shape tests, cycle
to nanosecond conversion) depends on run-time data.  At a procedure's
first use each of its sections is turned into small generated Python
generators:

* operand resolution is specialised at compile time (register indices,
  immediates, block offsets and field numbers become literals),
* cycle charges become precomputed nanosecond float literals,
* branches become a dispatch loop over the section's basic blocks,
* bodies that never wait (building and dispatching a DB request, the
  WRFIELD undo logging, the RET writeback) are helper calls, and so is
  every malformed operand, which raises the same error at the same
  simulated instant a straightforward instruction-by-instruction
  execution would.

Generated code is bounded: a section is cut into *chunks* of whole
basic blocks, each compiled on its own (one ``compile()`` call of at
most about :data:`CHUNK_INSTRUCTIONS` instructions), and a section of
several chunks is driven with ``yield from``.  No source text is kept:
code objects are cached under a digest of their source, so a workload
registered again in a fresh machine skips ``compile()``.

Timing contract
---------------
Execution is modelled one instruction at a time: each CPU instruction
charges ``cpu_inst_cycles`` (RET ``ret_cycles``, WRFIELD additionally
``wrfield_cycles``), each DB instruction a Prepare and a Dispatch step,
and tuple-field accesses go through the context's line buffer.  The
generated code yields every one of those charges and waits separately,
in order, and performs each side effect (posted writes, dispatches,
register updates) inside the same engine work item as its instruction.
That is load-bearing: simulated DRAM channels are shared, so two
requests issued at the same nanosecond by different actors are ordered
by when each actor's wake-up was scheduled.  Coalescing two charges
into one delay moves the softcore's wake-ups and flips those
same-instant races.

Three modes change the generated code, never the timing:

* a section's ``COMMIT``/``ABORT`` may sit anywhere; in a handler the
  protocol runs and execution continues with the next instruction,
* under ``dynamic_scheduling`` a logic-section ``RET`` whose CP
  register is still pending yields :data:`BLOCKED` to the softcore,
  which switches transactions and resumes the same generator later; the
  resumed ``RET`` executes again (counted, traced and charged again),
* with a tracer attached each instruction emits its trace line first.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from ..errors import BionicError
from ..index.common import DbRequest
from ..isa.instructions import (
    BRANCH_OPCODES, BlockRef, FieldRef, Gp, Imm, Instruction, Opcode, Section,
)
from ..mem.txnblock import TxnStatus, UndoEntry
from ..txn.cc import ResultCode, abort_write, commit_record
from .catalogue import ProcedureEntry

__all__ = ["BLOCKED", "CHUNK_INSTRUCTIONS", "CompiledProcedure",
           "CompiledTier", "ExecutionError"]


class ExecutionError(BionicError, RuntimeError):
    """Raised for malformed runtime situations (bad operand, etc.)."""


#: unit id of "execution leaves the section"
EXIT = -1

#: yielded by a logic section whose RET found its CP register pending
#: under dynamic scheduling; never reaches the engine
BLOCKED = object()

#: instructions per compiled unit (a chunk of whole basic blocks; a
#: single block longer than this is one chunk of its own)
CHUNK_INSTRUCTIONS = 48

#: source digest -> code object; bounded FIFO
_CODE_CACHE: Dict[bytes, Any] = {}
_CODE_CACHE_CAP = 512

_OK = ResultCode.OK
_NOT_FOUND = ResultCode.NOT_FOUND
_SCANS = (Opcode.SCAN, Opcode.RANGE_SCAN)


# -- run-time helpers (bound into every generated chunk) ----------------------

def _bad_operand(operand):
    raise ExecutionError(f"bad value operand {operand!r}")


def _fail(message: str):
    raise ExecutionError(message)


def _trace(sc, ctx, text: str) -> None:
    sc.tracer.emit("softcore", f"w{sc.worker_id}", f"txn={ctx.txn_id} {text}")


def _div(a, b):
    return a // b if isinstance(a, int) and isinstance(b, int) else a / b


def _value(sc, ctx, operand):
    """An Imm/Gp operand's value (the generic, unspecialised form)."""
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, Gp):
        return sc.gp.read(ctx.gp_base + operand.n)
    _bad_operand(operand)


def _block_off(sc, ctx, ref) -> int:
    """A block reference's offset from the block's data base."""
    offset = ref.offset
    if isinstance(offset, Gp):
        offset = sc.gp.read(ctx.gp_base + offset.n)
    return int(offset) + ref.extra


def _cell(sc, ctx, offset: int):
    """A block cell, from the working-set buffer when it holds it."""
    ws = ctx.working_set
    if 0 <= offset < len(ws):
        return ws[offset]
    return sc.dram.direct_read(ctx.block.data_base + offset)


def _operand_value(sc, ctx, operand):
    """Imm/Gp value or block cell (the RANGE_SCAN high key)."""
    if isinstance(operand, BlockRef):
        return _cell(sc, ctx, _block_off(sc, ctx, operand))
    return _value(sc, ctx, operand)


def _load_field(record, addr, field):
    if record is None:
        raise ExecutionError(f"LOAD from empty cell {addr}")
    return record.fields[field]


def _store_cell(port, ctx, value, offset: int) -> None:
    ws = ctx.working_set
    if 0 <= offset < len(ws):
        ws[offset] = value
    port.post_write(ctx.block.data_base + offset, value)


def _store_field_fixup(field: int, value):
    def apply(record):
        record.fields[field] = value
    return apply


def _wrfield(port, ctx, addr, record, field: int, value) -> None:
    """Backup-and-write: UNDO-log the old field value, then update the
    tuple in place (§4.7 UPDATE semantics).  The tuple is dirty-locked
    by this transaction's UPDATE, so no reader can observe the window;
    the posted write accounts for the masked-line store."""
    if record is None:
        raise ExecutionError(f"WRFIELD on empty cell {addr}")
    entry = UndoEntry(tuple_addr=addr, field=field,
                      old_value=record.fields[field])
    undo = ctx.undo
    undo.append(entry)
    block = ctx.block
    slot = block.undo_slot(len(undo) - 1)
    block.header.undo_count = len(undo)
    port.post_write(slot, entry)
    record.fields[field] = value
    port.post_write(addr, record)


def _ret(ctx, gp, dst: int, op, result) -> bool:
    """RET writeback; True when the result fails the transaction."""
    if result.code is _OK:
        gp[dst] = result.value if op in _SCANS else result.tuple_addr
        return False
    ctx.failed = True
    if ctx.fail_reason is None:
        ctx.fail_reason = f"{op.value}: {result.code.name}"
    return True


def _retn(ctx, gp, dst: int, op, result) -> bool:
    """Null-tolerant RET: absence is data, not an error."""
    if result.code is _NOT_FOUND:
        gp[dst] = 0
        return False
    return _ret(ctx, gp, dst, op, result)


def _voluntary_abort(ctx) -> None:
    ctx.failed = True
    if ctx.fail_reason is None:
        ctx.fail_reason = "voluntary abort"


def _commit(sc, ctx, entry_ns: float):
    """The commit protocol (§4.7): clear dirty marks and stamp the
    commit timestamp on every written tuple, then publish the header."""
    port = sc.port
    ts = ctx.begin_ts
    last = None
    for entry in ctx.write_set:
        yield entry_ns
        last = port.apply(entry.tuple_addr, _commit_fixup(ts))
    if last is not None:
        yield last
    header = ctx.block.header
    header.status = TxnStatus.COMMITTED
    header.commit_ts = ts
    port.post_write(ctx.block.base, header)
    sc._committed.add()
    if sc.tracer.enabled:
        sc.tracer.emit("txn", f"w{sc.worker_id}",
                       f"txn={ctx.txn_id} COMMIT ts={ts} "
                       f"writes={len(ctx.write_set)}")


def _abort(sc, ctx, entry_ns: float):
    """The abort protocol (§4.7): restore overwritten fields from the
    UNDO log, newest first, then clear dirty marks (aborted inserts
    become tombstones) and publish the header."""
    port = sc.port
    last = None
    for entry in reversed(ctx.undo):
        yield entry_ns
        last = port.apply(entry.tuple_addr, _restore_fixup(entry))
    for wse in ctx.write_set:
        yield entry_ns
        last = port.apply(wse.tuple_addr,
                          _abort_fixup(wse.op is Opcode.INSERT))
    if last is not None:
        yield last
    header = ctx.block.header
    header.status = TxnStatus.ABORTED
    header.abort_reason = ctx.fail_reason
    port.post_write(ctx.block.base, header)
    sc._aborted.add()
    if sc.tracer.enabled:
        sc.tracer.emit("txn", f"w{sc.worker_id}",
                       f"txn={ctx.txn_id} ABORT ({ctx.fail_reason})")


def _commit_fixup(commit_ts: int):
    def apply(record):
        commit_record(record, commit_ts)
    return apply


def _restore_fixup(entry: UndoEntry):
    def apply(record):
        record.fields[entry.field] = entry.old_value
    return apply


def _abort_fixup(was_insert: bool):
    def apply(record):
        abort_write(record, was_insert=was_insert)
    return apply


# -- DB instruction sites -----------------------------------------------------

def _db_prepare(inst: Instruction, table_known: bool) -> Callable:
    """The Prepare step of one DB instruction, specialised to its key
    operand: ``prep(sc, ctx) -> (key_addr, key_value, route_key,
    insert_payload, destination)``."""
    table = inst.table
    key = inst.key
    insert = inst.opcode is Opcode.INSERT
    if isinstance(key, Gp):
        kn = key.n

        def prep(sc, ctx):
            value = sc.gp._regs[ctx.gp_base + kn]
            payload = None
            if insert and isinstance(value, tuple) and len(value) == 2:
                value, payload = value
            return None, value, value, payload, sc.route(table, value)
    else:
        # a block cell: the coprocessor's KeyFetch stage reads it from
        # DRAM; the softcore routes by its working-set copy
        fixed = (key.offset + key.extra if isinstance(key, BlockRef)
                 and type(key.offset) is int and type(key.extra) is int
                 else None)

        def prep(sc, ctx):
            offset = fixed if fixed is not None else _block_off(sc, ctx, key)
            addr = ctx.block.data_base + offset
            ws = ctx.working_set
            cell = (ws[offset] if 0 <= offset < len(ws)
                    else sc.dram.direct_read(addr))
            route_key = cell
            if insert and isinstance(cell, tuple) and len(cell) == 2:
                route_key = cell[0]
            return addr, None, route_key, None, sc.route(table, route_key)
    if table_known:
        return prep
    checked = prep

    def prep(sc, ctx):
        sc.catalogue.schemas.table(table)   # raises: the table is unknown
        return checked(sc, ctx)
    return prep


def _db_dispatch(inst: Instruction) -> Callable:
    """The Dispatch step: claim the CP register and hand the request to
    the coprocessor or the channels (asynchronously)."""
    op, table, cpn = inst.opcode, inst.table, inst.cp.n
    payload_ref = (inst.b if op is Opcode.INSERT
                   and isinstance(inst.b, BlockRef) else None)
    scan = op in _SCANS
    high = inst.b if op is Opcode.RANGE_SCAN else None

    def dispatch(sc, ctx, prepared) -> None:
        key_addr, key_value, route_key, payload, dst = prepared
        i = ctx.cp_base + cpn
        sc.cp.mark_pending(i, op)
        sc._cp_owner[i] = ctx
        sc._pending_info[i] = (op, table)
        block = ctx.block
        req = DbRequest(op=op, table_id=table, ts=ctx.begin_ts,
                        txn_id=block.txn_id, key_addr=key_addr,
                        key_value=key_value, insert_payload=payload,
                        src_worker=sc.worker_id, cp_index=i,
                        route_key=route_key)
        if payload_ref is not None:
            req.payload_addr = block.data_base + _block_off(sc, ctx,
                                                            payload_ref)
        if scan:
            req.scan_count = int(_value(sc, ctx, inst.a))
            req.scan_out_addr = block.data_base + _block_off(sc, ctx,
                                                             inst.addr)
            req.scan_limit = block.layout.n_scan
            if high is not None:
                req.scan_hi = _operand_value(sc, ctx, high)
        ctx.outstanding += 1
        sc._db_insts.value += 1
        if dst is not None and dst != sc.worker_id:
            sc._remote_insts.value += 1
        sc.dispatch(req, dst)
    return dispatch


# -- code generation ----------------------------------------------------------

_BRANCH_CONDITIONS = {
    Opcode.BE: "ctx.zero",
    Opcode.BNE: "not ctx.zero",
    Opcode.BLT: "ctx.neg",
    Opcode.BLE: "ctx.neg or ctx.zero",
    Opcode.BGT: "not (ctx.neg or ctx.zero)",
    Opcode.BGE: "not ctx.neg",
}

_ALU = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}


class _Unit(NamedTuple):
    """Instructions ``[start, end)`` of a section: a basic block, or a
    piece of one longer than a chunk."""

    uid: int
    start: int
    end: int

_HELPERS = {
    "BLOCKED": BLOCKED, "_bad": _bad_operand, "_fail": _fail,
    "_tr": _trace, "_div": _div, "_boff": _block_off, "_lf": _load_field,
    "_stc": _store_cell, "_sff": _store_field_fixup, "_wrf": _wrfield,
    "_ret": _ret, "_retn": _retn, "_vab": _voluntary_abort,
    "_commit": _commit, "_abort": _abort,
}


class _SectionCompiler:
    """Generates one section's chunks and the callable that runs them."""

    def __init__(self, softcore, entry: ProcedureEntry, section: Section,
                 traced: bool):
        self.entry = entry
        self.section = section
        self.traced = traced
        self.logic = section is Section.LOGIC
        cfg = softcore.config
        self.dynamic = (self.logic and cfg.dynamic_scheduling
                        and cfg.interleaving)
        self.line_buffer = cfg.line_buffer
        ns = softcore.clock.ns_per_cycle
        self.c_cpu = repr(cfg.cpu_inst_cycles * ns)
        self.c_ret = repr(cfg.ret_cycles * ns)
        self.c_prep = repr(cfg.db_prepare_cycles * ns)
        self.c_disp = repr(cfg.db_dispatch_cycles * ns)
        self.c_wrfield = repr(cfg.wrfield_cycles * ns)
        self.c_entry = repr(cfg.commit_cycles_per_entry * ns)
        self.tables = softcore.catalogue.schemas
        self.consts: List[Any] = []
        self.names: Dict[str, Any] = {}

    # -- operands ------------------------------------------------------------
    def _const(self, value: Any) -> str:
        if value is None or type(value) in (int, bool, str):
            return repr(value)
        if type(value) is float and value == value and abs(value) < 1e308:
            return repr(value)
        self.consts.append(value)
        return f"K[{len(self.consts) - 1}]"

    def _value(self, operand) -> str:
        if isinstance(operand, Imm):
            return self._const(operand.value)
        if isinstance(operand, Gp):
            return f"gp[gpb+{operand.n}]"
        return f"_bad({self._const(operand)})"

    def _offset(self, ref) -> str:
        if (isinstance(ref, BlockRef) and type(ref.offset) is int
                and type(ref.extra) is int):
            return repr(ref.offset + ref.extra)
        if (isinstance(ref, BlockRef) and isinstance(ref.offset, Gp)
                and type(ref.extra) is int):
            return f"int(gp[gpb+{ref.offset.n}]) + {ref.extra}"
        return f"_boff(sc, ctx, {self._const(ref)})"

    def _bind(self, prefix: str, value: Any) -> str:
        name = f"{prefix}{len(self.names)}"
        self.names[name] = value
        return name

    # -- section layout ------------------------------------------------------
    def compile(self) -> Callable:
        program = self.entry.program
        insts = self.insts = program.section(self.section)
        n = len(insts)
        if not n:
            return _empty_section
        # basic blocks (a leader is the entry, a branch target or the
        # instruction after a branch), cut so no unit exceeds a chunk
        leaders = {0}
        for i, inst in enumerate(insts):
            if inst.opcode in BRANCH_OPCODES:
                if type(inst.target) is int and 0 <= inst.target < n:
                    leaders.add(inst.target)
                if i + 1 < n:
                    leaders.add(i + 1)
        starts = sorted(leaders) + [n]
        units: List[_Unit] = []
        for start, end in zip(starts, starts[1:]):
            for lo in range(start, end, CHUNK_INSTRUCTIONS):
                units.append(_Unit(len(units), lo,
                                   min(lo + CHUNK_INSTRUCTIONS, end)))
        self.unit_at = [0] * n
        for unit in units:
            for i in range(unit.start, unit.end):
                self.unit_at[i] = unit.uid
        succs = {}
        for unit in units:
            last = insts[unit.end - 1]
            out = []
            if last.opcode in BRANCH_OPCODES:
                target = self._target_unit(last.target)
                if target is not None:
                    out.append(target)
                if last.opcode is not Opcode.JMP:
                    out.append(self._next_unit(unit.end))
            else:
                # COMMIT/ABORT in a handler fall through as well
                out.append(self._next_unit(unit.end))
            succs[unit.uid] = out
        reachable, stack = set(), [0]
        while stack:
            uid = stack.pop()
            if uid != EXIT and uid not in reachable:
                reachable.add(uid)
                stack.extend(succs[uid])
        self.has_branches = any(i.opcode in BRANCH_OPCODES for i in insts)

        chunks: List[List[_Unit]] = []
        size = CHUNK_INSTRUCTIONS
        for unit in units:
            if unit.uid not in reachable:
                continue
            length = unit.end - unit.start
            if chunks and size + length <= CHUNK_INSTRUCTIONS:
                chunks[-1].append(unit)
                size += length
            else:
                chunks.append([unit])
                size = length
        self.chunk_of = {unit.uid: k for k, chunk in enumerate(chunks)
                         for unit in chunk}

        fns = [self._compile_chunk(k, chunk)
               for k, chunk in enumerate(chunks)]
        if len(fns) == 1:
            return fns[0]
        table = [None] * len(units)
        for uid, k in self.chunk_of.items():
            table[uid] = fns[k]

        def run_section(sc, ctx):
            return _drive(table, sc, ctx)
        return run_section

    def _next_unit(self, index: int) -> int:
        return EXIT if index >= len(self.insts) else self.unit_at[index]

    def _target_unit(self, target) -> Optional[int]:
        """Unit of a branch target, EXIT past the end, None when the
        target is not a usable instruction index."""
        if type(target) is not int or target < 0:
            return None
        return self._next_unit(target)

    def _goto(self, e: List[str], ind: str, chunk: int, uid: int) -> None:
        if uid == EXIT:
            e.append(f"{ind}return -1")
        elif self.chunk_of[uid] == chunk:
            e.append(f"{ind}bb = {uid}")
        else:
            e.append(f"{ind}return {uid}")

    def _compile_chunk(self, k: int, units: List["_Unit"]) -> Callable:
        self.consts = []
        self.names = {}
        body: List[str] = []
        dispatch = self.has_branches
        for j, unit in enumerate(units):
            if dispatch:
                kw = "if" if j == 0 else "elif"
                body.append(f"        {kw} bb == {unit.uid}:")
                ind = " " * 12
            else:
                ind = " " * 4
            self._emit_unit(body, ind, k, unit)
        head = [f"def _c(sc, ctx, bb={units[0].uid}):",
                "    port = sc.port",
                "    gp = sc.gp._regs",
                "    gpb = ctx.gp_base",
                "    cpb = ctx.cp_base",
                "    ws = ctx.working_set",
                "    dbase = ctx.block.data_base",
                "    ic = sc._insts"]
        if dispatch:
            head.append("    while True:")
        # unreachable; makes _c a generator even without a wait
        body.append("    yield")
        src = "\n".join(head + body) + "\n"
        key = hashlib.blake2b(src.encode(), digest_size=16).digest()
        code = _CODE_CACHE.get(key)
        if code is None:
            name = self.entry.program.name
            code = compile(src, f"<repro.compiled {name}.{self.section.value}"
                                f"#{k}>", "exec")
            if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
                del _CODE_CACHE[next(iter(_CODE_CACHE))]
            _CODE_CACHE[key] = code
        namespace = dict(_HELPERS)
        namespace.update(self.names)
        namespace["K"] = self.consts
        exec(code, namespace)
        return namespace["_c"]

    def _emit_unit(self, e: List[str], ind: str, chunk: int,
                   unit: "_Unit") -> None:
        insts = self.insts
        for i in range(unit.start, unit.end):
            inst = insts[i]
            e.append(f"{ind}ic.value += 1")
            self._emit_trace(e, ind, i, inst)
            self._emit_inst(e, ind, chunk, inst, i)
            if self.logic and inst.opcode not in BRANCH_OPCODES:
                # a DB result delivered during this instruction's waits
                # may have failed the transaction: the abort handler
                # runs in phase two
                e.append(f"{ind}if ctx.failed: return -1")
        if insts[unit.end - 1].opcode in BRANCH_OPCODES:
            return
        fall = self._next_unit(unit.end)
        if not self.has_branches and fall != EXIT \
                and self.chunk_of[fall] == chunk:
            return          # straight-line: the next unit follows
        self._goto(e, ind, chunk, fall)

    def _emit_trace(self, e: List[str], ind: str, i: int,
                    inst: Instruction) -> None:
        if self.traced:
            text = f"{self.section.value}[{i}] {inst!r}"
            e.append(f"{ind}_tr(sc, ctx, {text!r})")

    # -- instructions ---------------------------------------------------------
    def _emit_inst(self, e: List[str], ind: str, chunk: int,
                   inst: Instruction, i: int) -> None:
        op = inst.opcode
        if inst.is_db:
            self._emit_db(e, ind, inst)
        elif op in (Opcode.RET, Opcode.RETN):
            self._emit_ret(e, ind, inst, i)
        elif op is Opcode.COMMIT:
            if self.logic:
                e.append(f"{ind}_fail('COMMIT outside a commit handler')")
            else:
                e.append(f"{ind}if ctx.failed: return -1")
                e.append(f"{ind}yield from _commit(sc, ctx, {self.c_entry})")
        elif op is Opcode.ABORT:
            if self.logic:
                e.append(f"{ind}_vab(ctx)")
            else:
                e.append(f"{ind}yield from _abort(sc, ctx, {self.c_entry})")
        else:
            e.append(f"{ind}yield {self.c_cpu}")
            self._emit_cpu(e, ind, chunk, inst, i)

    def _emit_cpu(self, e: List[str], ind: str, chunk: int,
                  inst: Instruction, i: int) -> None:
        op = inst.opcode
        if op in _ALU:
            a, b = self._value(inst.a), self._value(inst.b)
            e.append(f"{ind}gp[gpb+{inst.dst.n}] = {a} {_ALU[op]} {b}")
        elif op is Opcode.DIV:
            a, b = self._value(inst.a), self._value(inst.b)
            e.append(f"{ind}gp[gpb+{inst.dst.n}] = _div({a}, {b})")
        elif op is Opcode.MOV:
            e.append(f"{ind}gp[gpb+{inst.dst.n}] = {self._value(inst.a)}")
        elif op is Opcode.CMP:
            e.append(f"{ind}_a = {self._value(inst.a)}")
            e.append(f"{ind}_b = {self._value(inst.b)}")
            e.append(f"{ind}ctx.zero = _a == _b")
            e.append(f"{ind}ctx.neg = _a < _b")
        elif op is Opcode.LOAD:
            self._emit_load(e, ind, inst)
        elif op is Opcode.STORE:
            self._emit_store(e, ind, inst)
        elif op is Opcode.WRFIELD:
            ref = inst.addr
            e.append(f"{ind}yield {self.c_wrfield}")
            e.append(f"{ind}_a = gp[gpb+{ref.base.n}]")
            e.append(f"{ind}_v = {self._value(inst.a)}")
            self._emit_read_record(e, ind)
            e.append(f"{ind}_wrf(port, ctx, _a, _r, {ref.field}, _v)")
        elif op in BRANCH_OPCODES:
            self._emit_branch(e, ind, chunk, inst, i)
        elif op is not Opcode.NOP:
            e.append(f"{ind}_fail({f'unhandled opcode {op}'!r})")

    def _emit_read_record(self, e: List[str], ind: str) -> None:
        """``_r`` = the tuple header line at ``_a``, via the line buffer."""
        read = ("_r = yield port.read(_a); ctx.line_buf_addr = _a; "
                "ctx.line_buf = _r")
        if self.line_buffer:
            e.append(f"{ind}_r = ctx.line_buf")
            e.append(f"{ind}if _r is None or ctx.line_buf_addr != _a: {read}")
        else:
            e.append(f"{ind}{read}")

    def _emit_load(self, e: List[str], ind: str, inst: Instruction) -> None:
        d = inst.dst.n
        ref = inst.addr
        if isinstance(ref, FieldRef):
            e.append(f"{ind}_a = gp[gpb+{ref.base.n}]")
            self._emit_read_record(e, ind)
            e.append(f"{ind}gp[gpb+{d}] = _lf(_r, _a, {ref.field})")
        else:
            e.append(f"{ind}_o = {self._offset(ref)}")
            e.append(f"{ind}if 0 <= _o < len(ws): gp[gpb+{d}] = ws[_o]")
            e.append(f"{ind}else: gp[gpb+{d}] = yield port.read(dbase + _o)")

    def _emit_store(self, e: List[str], ind: str, inst: Instruction) -> None:
        ref = inst.addr
        e.append(f"{ind}_v = {self._value(inst.a)}")
        if isinstance(ref, FieldRef):
            e.append(f"{ind}port.post_apply(gp[gpb+{ref.base.n}], "
                     f"_sff({ref.field}, _v))")
        else:
            e.append(f"{ind}_stc(port, ctx, _v, {self._offset(ref)})")

    def _emit_branch(self, e: List[str], ind: str, chunk: int,
                     inst: Instruction, i: int) -> None:
        target = self._target_unit(inst.target)
        if target is None:
            e.append(f"{ind}_fail({f'bad branch target {inst.target!r}'!r})")
            return
        if self.logic:
            e.append(f"{ind}if ctx.failed: return -1")
        if inst.opcode is Opcode.JMP:
            self._goto(e, ind, chunk, target)
            return
        fall = self._next_unit(i + 1)
        e.append(f"{ind}if {_BRANCH_CONDITIONS[inst.opcode]}:")
        self._goto(e, ind + "    ", chunk, target)
        e.append(f"{ind}else:")
        self._goto(e, ind + "    ", chunk, fall)

    def _emit_ret(self, e: List[str], ind: str, inst: Instruction,
                  i: int) -> None:
        e.append(f"{ind}yield {self.c_ret}")
        e.append(f"{ind}_i = cpb + {inst.cp.n}")
        if self.dynamic:
            # switch transactions instead of stalling; the RET executes
            # again when the softcore resumes this transaction
            e.append(f"{ind}while not sc.cp.is_valid(_i):")
            e.append(f"{ind}    ctx.blocked_on = _i")
            e.append(f"{ind}    yield BLOCKED")
            e.append(f"{ind}    ic.value += 1")
            self._emit_trace(e, ind + "    ", i, inst)
            e.append(f"{ind}    yield {self.c_ret}")
        e.append(f"{ind}_op, _res = yield sc.cp.wait_valid(_i)")
        helper = "_retn" if inst.opcode is Opcode.RETN else "_ret"
        call = f"{helper}(ctx, gp, gpb + {inst.dst.n}, _op, _res)"
        if self.logic:
            e.append(f"{ind}{call}")
        else:
            e.append(f"{ind}if {call}: return -1")

    def _emit_db(self, e: List[str], ind: str, inst: Instruction) -> None:
        known = inst.table in {s.table_id for s in self.tables}
        prep = self._bind("P", _db_prepare(inst, known))
        disp = self._bind("D", _db_dispatch(inst))
        e.append(f"{ind}yield {self.c_prep}")
        e.append(f"{ind}_t = {prep}(sc, ctx)")
        e.append(f"{ind}yield {self.c_disp}")
        e.append(f"{ind}{disp}(sc, ctx, _t)")


def _drive(chunks: list, sc, ctx):
    """Run a section of several chunks, each returning the next block."""
    bb = 0
    while bb >= 0:
        bb = yield from chunks[bb](sc, ctx, bb)


def _empty_section(_sc, _ctx):
    return
    yield  # pragma: no cover - keeps this a generator


# -- per-procedure cache ------------------------------------------------------

class CompiledProcedure:
    """The compiled sections of one procedure, built on demand: the
    untraced form of every section at first use, a traced form the
    first time a traced softcore runs it."""

    __slots__ = ("entry", "sig", "_softcore", "_sections", "_wcet")

    def __init__(self, softcore, entry: ProcedureEntry, sig: tuple):
        self.entry = entry
        self.sig = sig
        self._softcore = softcore
        self._sections: Dict[tuple, Callable] = {}
        self._wcet = None
        for section in Section:
            self.section(section)

    def section(self, section: Section, traced: bool = False) -> Callable:
        """``fn(softcore, ctx)`` returning the section's generator."""
        key = (section, traced)
        fn = self._sections.get(key)
        if fn is None:
            fn = _SectionCompiler(self._softcore, self.entry, section,
                                  traced).compile()
            self._sections[key] = fn
        return fn

    @property
    def wcet(self):
        """The procedure's static WCET report
        (:class:`repro.analysis.wcet.WcetReport`), computed on first
        read: nothing on the execution path needs it."""
        if self._wcet is None:
            from ..analysis.wcet import WcetModel, analyze_wcet
            sc = self._softcore
            try:
                model = WcetModel.from_config(
                    sc.config,
                    dram_latency_cycles=sc.dram.latency_ns
                    / sc.clock.ns_per_cycle,
                    fpga_mhz=1000.0 / sc.clock.ns_per_cycle)
                self._wcet = analyze_wcet(self.entry.program, model=model)
            except Exception:  # pragma: no cover - never gates execution
                self._wcet = False
        return self._wcet or None


class CompiledTier:
    """Compiled-procedure cache, shared through the catalogue.

    Generated functions take ``(softcore, ctx)`` and bind no per-core
    state, and every worker of a machine shares one catalogue and one
    timing config, so the cache hangs off the catalogue and all
    softcores reuse one compilation.  The catalogue allows
    re-registration, so entries are validated by identity (replacing a
    procedure invalidates its compiled form); a signature of everything
    the generated code specialises on guards softcores with different
    configs sharing a catalogue."""

    def __init__(self, softcore):
        self.softcore = softcore
        cfg = softcore.config
        self._sig = (cfg.cpu_inst_cycles, cfg.ret_cycles,
                     cfg.db_prepare_cycles, cfg.db_dispatch_cycles,
                     cfg.wrfield_cycles, cfg.commit_cycles_per_entry,
                     cfg.line_buffer,
                     cfg.dynamic_scheduling and cfg.interleaving,
                     softcore.clock.ns_per_cycle)
        cat = softcore.catalogue
        cache = getattr(cat, "_compiled_procs", None)
        if cache is None:
            cache = cat._compiled_procs = {}
        self._cache: Dict[int, CompiledProcedure] = cache

    def compiled(self, entry: ProcedureEntry) -> CompiledProcedure:
        """The (cached) compiled form of ``entry``."""
        cp = self._cache.get(entry.proc_id)
        if cp is None or cp.entry is not entry or cp.sig != self._sig:
            cp = CompiledProcedure(self.softcore, entry, self._sig)
            self._cache[entry.proc_id] = cp
        return cp

    def section_fn(self, entry: ProcedureEntry, section: Section) -> Callable:
        return self.compiled(entry).section(section,
                                            self.softcore.tracer.enabled)

    def report(self) -> List[dict]:
        """Per-procedure summary (docs / debugging)."""
        out = []
        for proc_id, cp in sorted(self._cache.items()):
            wcet = cp.wcet
            out.append({
                "proc_id": proc_id,
                "program": cp.entry.program.name,
                "compiled_sections": [s.value for s in Section],
                # every section compiles; the key keeps the report's
                # shape
                "declined": {},
                "wcet_cycles": (round(wcet.total_cycles, 3)
                                if wcet is not None else None),
            })
        return out
