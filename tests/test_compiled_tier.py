"""Tests for the compiled procedures and the paper-scale sweep runner.

Every section runs compiled (see ``repro.softcore.compiled``), held to
the checked-in golden fingerprints; tracing compiles trace emission in
and changes no timing; the per-catalogue cache and lazy WCET report
work; the bulk-load fast path builds a heap image cell-for-cell
identical to per-row loading and leaves the caller's GC state as it
found it.
"""

import gc
import json
import random

import pytest

from repro.core import BionicConfig, BionicDB
from repro.mem import IndexKind, TableSchema
from repro.perf import (
    GOLDEN_SMOKE,
    POINTS,
    SCENARIOS,
    equivalence_failures,
    run_equivalence,
    run_point,
    run_sweep,
)
from repro.perf.__main__ import main
from repro.perf.equivalence import _fingerprint
from repro.perf.sweep import _merge_into, _point_seed, sweep_main
from repro.sim.trace import Tracer
from repro.softcore.compiled import CHUNK_INSTRUCTIONS, CompiledTier
from repro.isa import Gp, ProcedureBuilder, Section
from repro.workloads import (
    TpccConfig, TpccWorkload, YcsbConfig, YcsbWorkload,
)
from repro.workloads.ycsb import YCSB_TABLE


# -- compiled procedures vs the checked-in goldens ----------------------------

@pytest.mark.parametrize("name", list(GOLDEN_SMOKE))
def test_compiled_tier_matches_goldens(name):
    assert SCENARIOS[name]() == GOLDEN_SMOKE[name], name


def test_run_equivalence_includes_compiled_tier():
    results = run_equivalence(scale=1, scenarios=["ycsb_smoke"])
    entry = results["ycsb_smoke"]
    assert entry["golden_match"]
    assert entry["fingerprint"] == GOLDEN_SMOKE["ycsb_smoke"]


def test_equivalence_failures_reports_compiled_divergence():
    results = run_equivalence(scale=1, scenarios=["ycsb_smoke"])
    entry = dict(results["ycsb_smoke"])
    entry["fingerprint"] = dict(entry["fingerprint"], now_ns=1.0)
    entry["golden_match"] = False
    messages = equivalence_failures({"ycsb_smoke": entry})
    assert len(messages) == 1
    assert "golden" in messages[0] and "now_ns': 1.0" in messages[0]


# -- tracing -----------------------------------------------------------------

def _tiny_ycsb(tracer=None):
    wl = YcsbWorkload(YcsbConfig(records_per_partition=200, n_partitions=2,
                                 reads_per_txn=2, seed=5))
    db = BionicDB(BionicConfig(n_workers=2, tracer=tracer))
    wl.install(db)
    report, blocks = wl.submit_all(db, wl.make_read_txns(6)
                                   + wl.make_rmw_txns(3))
    return db, _fingerprint(db, report, blocks)


def _tiny_tpcc(tracer=None):
    wl = TpccWorkload(TpccConfig(n_partitions=2, customers_per_district=20,
                                 items=100, seed=3))
    db = BionicDB(BionicConfig(n_workers=2, tracer=tracer))
    wl.install(db)
    report, blocks = wl.submit_all(db, wl.make_mix(8), retry=True)
    return db, _fingerprint(db, report, blocks)


@pytest.mark.parametrize("smoke", [_tiny_ycsb, _tiny_tpcc],
                         ids=["ycsb", "tpcc"])
def test_tracing_changes_no_timing(smoke):
    _db, plain = smoke()
    tracer = Tracer(capacity=1_000_000)
    db, traced = smoke(tracer=tracer)
    assert traced == plain          # events_fired included
    executed = sum(db.stats.counter(f"worker{w}.instructions").value
                   for w in range(db.config.n_workers))
    assert executed > 0
    assert len(tracer.filter("softcore")) == executed
    assert not tracer.dropped


# -- the per-catalogue cache -------------------------------------------------

def test_compiled_tier_caches_per_catalogue():
    db = BionicDB(BionicConfig(n_workers=2))
    wl = YcsbWorkload(YcsbConfig(records_per_partition=100, n_partitions=2,
                                 reads_per_txn=2, seed=3))
    wl.install(db)
    tiers = [w.softcore._tier for w in db.workers]
    assert all(isinstance(t, CompiledTier) for t in tiers)
    from repro.workloads.ycsb import PROC_READ_BASE
    entry = db.catalogue.lookup(PROC_READ_BASE + 2)
    cp = tiers[0].compiled(entry)
    assert all(cp.section(s) is not None for s in Section)
    # every worker shares the catalogue-level cache: compiling on one
    # softcore makes the form visible to all
    assert tiers[0]._cache is tiers[1]._cache
    assert tiers[1].compiled(entry) is cp


def test_wcet_is_computed_on_first_read():
    db = BionicDB(BionicConfig(n_workers=1))
    TpccWorkload(TpccConfig(n_partitions=1, customers_per_district=20,
                            items=50)).install(db)
    tier = db.workers[0].softcore._tier
    entries = [db.catalogue.lookup(pid) for pid in sorted(
        db.catalogue._procs)]
    forms = [tier.compiled(e) for e in entries]
    assert all(f._wcet is None for f in forms)
    report = tier.report()
    assert [r["proc_id"] for r in report] == [e.proc_id for e in entries]
    for row, form in zip(report, forms):
        assert set(row) == {"proc_id", "program", "compiled_sections",
                            "declined", "wcet_cycles"}
        assert row["compiled_sections"] == ["logic", "commit", "abort"]
        assert row["wcet_cycles"] == round(form.wcet.total_cycles, 3) > 0


def test_long_sections_compile_in_bounded_chunks():
    db = BionicDB(BionicConfig(n_workers=1))
    db.define_table(TableSchema(0, "kv", hash_buckets=64))
    b = ProcedureBuilder("long")
    for i in range(5 * CHUNK_INSTRUCTIONS):
        b.add(i % 8, Gp(i % 8), 1)
    b.store(Gp(7), b.at(0))
    b.commit_handler()
    b.commit()
    db.register_procedure(1, b.build())
    block = db.new_block(1, [None])
    db.submit(block, 0)
    db.run()
    assert block.input_cell(0) == 5 * CHUNK_INSTRUCTIONS // 8
    form = db.workers[0].softcore._tier.compiled(db.catalogue.lookup(1))
    # a section of several chunks is driven, not one generated function
    assert form.section(Section.LOGIC).__name__ == "run_section"


# -- bulk-load fast path -----------------------------------------------------

def _per_row_loader(db):
    """Route ``db.load_many`` through per-row ``db.load``, the reference
    the batched loaders must reproduce cell for cell."""
    def load_many(rows):
        n = 0
        for table_id, key, fields in rows:
            db.load(table_id, key, fields)
            n += 1
        return n
    db.load_many = load_many
    return db


def _assert_same_heap_image(fast, slow):
    assert fast.heap._next == slow.heap._next
    assert fast.heap.allocated_cells == slow.heap.allocated_cells
    assert set(fast.heap._cells) == set(slow.heap._cells)
    for addr, cell in fast.heap._cells.items():
        assert repr(cell) == repr(slow.heap._cells[addr]), addr


def test_load_many_heap_image_matches_per_row_load():
    cfg = YcsbConfig(records_per_partition=400, n_partitions=2,
                     reads_per_txn=2, seed=9)

    def build(per_row):
        wl = YcsbWorkload(cfg)
        db = BionicDB(BionicConfig(n_workers=2))
        wl.install(db, load_data=not per_row)
        if per_row:
            for key in range(cfg.total_records):
                db.load(YCSB_TABLE, key, [cfg.payload])
        return db

    _assert_same_heap_image(build(False), build(True))


def _shuffled(n, seed):
    keys = list(range(n))
    random.Random(seed).shuffle(keys)
    return keys


SKIPLIST_KEYS = {
    "ascending": list(range(300)),
    "shuffled": _shuffled(300, 5),
    "descending_then_ascending":
        list(range(150, 0, -1)) + list(range(151, 300)),
}

HASH_KEYS = [
    0, 255, 256, 2**16, 2**24 - 1, 2**24, 2**32, 2**63 - 1,
    2**63, -1, -256, -2**63, "", "k", "key-2", (1, 2), ("w", 3, 4),
]


def _two_table_db():
    """A hash table (16 buckets, so chains form) and a skiplist table
    range-partitioned so that runs of keys share one worker."""
    db = BionicDB(BionicConfig(n_workers=2))
    db.define_table(TableSchema(1, "h", hash_buckets=16))
    db.define_table(TableSchema(
        2, "s", index_kind=IndexKind.SKIPLIST,
        partition_fn=lambda key, n: min(key // 200, n - 1),
        range_partitioned=True))
    return db


def _skiplist_install(order):
    def install(db):
        db.load_many((2, key, [key, "v"]) for key in SKIPLIST_KEYS[order])
    return install


def _hash_install(db):
    db.load_many((1, key, [repr(key)]) for key in HASH_KEYS)


def _mixed_install(db):
    rows = []
    for i, key in enumerate(SKIPLIST_KEYS["shuffled"]):
        rows.append((2, key, [key]))
        if i < len(HASH_KEYS):
            rows.append((1, HASH_KEYS[i], [i]))
    db.load_many(rows)


def _tpcc_install(db):
    TpccWorkload(TpccConfig(n_partitions=2, districts_per_warehouse=2,
                            customers_per_district=20, items=50)).install(db)


LOAD_CASES = {
    **{f"skiplist_{order}": (_two_table_db, _skiplist_install(order))
       for order in SKIPLIST_KEYS},
    "hash_boundary_keys": (_two_table_db, _hash_install),
    "hash_and_skiplist_interleaved": (_two_table_db, _mixed_install),
    # replicated ITEM rows interleave with the partitioned tables
    "tpcc": (lambda: BionicDB(BionicConfig(n_workers=2)), _tpcc_install),
}


@pytest.mark.parametrize("case", sorted(LOAD_CASES))
def test_load_many_heap_image_matches_per_row_load_for(case):
    make_db, install = LOAD_CASES[case]
    fast, slow = make_db(), _per_row_loader(make_db())
    install(fast)
    install(slow)
    _assert_same_heap_image(fast, slow)
    for schema in fast.schemas:
        if schema.index_kind == IndexKind.SKIPLIST:
            for worker in fast.workers:
                worker.skiplist_pipe.invariant_check(schema.table_id)


@pytest.fixture
def gc_state():
    """Restore the process's GC state whatever a test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _skiplist_rows(keys, seen):
    for key in keys:
        seen.append(gc.isenabled())
        yield 2, key, [key]


@pytest.mark.parametrize("outcome", ["loaded", "duplicate_key",
                                     "caller_disabled"])
def test_load_many_pauses_gc_and_restores_the_callers_state(gc_state,
                                                            outcome):
    db = _two_table_db()
    seen = []
    if outcome == "caller_disabled":
        gc.disable()
    before = gc.isenabled()
    if outcome == "duplicate_key":
        with pytest.raises(ValueError, match="duplicate"):
            db.load_many(_skiplist_rows([1, 2, 3, 2], seen))
    else:
        assert db.load_many(_skiplist_rows([3, 1, 2], seen)) == 3
    assert seen and not any(seen)
    assert gc.isenabled() == before
    # nothing is pinned for the life of the process
    assert gc.get_freeze_count() == 0


def test_large_load_settles_deferred_gc_work_in_one_full_pass(gc_state):
    gc.enable()
    t0, t1, t2 = gc.get_threshold()
    n_rows = t0 * t1 * t2  # two tracked allocations per row
    db = BionicDB(BionicConfig(n_workers=1))
    db.define_table(TableSchema(1, "h"))
    full_before = gc.get_stats()[2]["collections"]
    db.load_many((1, key, [key]) for key in range(n_rows))
    assert gc.get_stats()[2]["collections"] - full_before == 1
    assert gc.get_count()[0] < t0


# -- sweep runner ------------------------------------------------------------

TINY_POINTS = {
    "tiny_ycsb": {
        "workload": "ycsb", "n_workers": 2, "records_per_partition": 200,
        "reads_per_txn": 2, "n_txns": 8,
    },
    "tiny_ycsb_more": {
        "workload": "ycsb", "n_workers": 2, "records_per_partition": 200,
        "reads_per_txn": 2, "n_txns": 12,
    },
}

#: run_point("tiny_ycsb"): the point's seed, fingerprint and throughput
TINY_YCSB_GOLDEN = {
    "seed": 761506, "events_fired": 562, "now_ns": 8024.0, "committed": 8,
    "aborted": 0, "throughput_tps": 997008.9730807578,
    "commit_hash":
        "2f7039d6e19f691e5e46d398dc9f506db262b7c4c408f4141ed112860cbbc374",
}


def _install_tiny_points(monkeypatch):
    for name, params in TINY_POINTS.items():
        monkeypatch.setitem(POINTS, name, params)


def test_point_seed_is_stable():
    assert _point_seed("ycsb_paper_300k") == _point_seed("ycsb_paper_300k")
    assert _point_seed("a") != _point_seed("b")
    assert 0 <= _point_seed("anything") < 1_000_000


def test_run_point_matches_golden(monkeypatch):
    _install_tiny_points(monkeypatch)
    result = run_point("tiny_ycsb")
    assert {k: result[k] for k in TINY_YCSB_GOLDEN} == TINY_YCSB_GOLDEN
    assert result["host_seconds"] > 0


def test_run_sweep_rejects_unknown_points():
    with pytest.raises(KeyError):
        run_sweep(["no_such_point"])


def test_run_sweep_serial_keeps_registry_order(monkeypatch):
    _install_tiny_points(monkeypatch)
    results = run_sweep(["tiny_ycsb_more", "tiny_ycsb"], jobs=1)
    assert list(results) == ["tiny_ycsb_more", "tiny_ycsb"]
    assert results["tiny_ycsb"]["point"] == "tiny_ycsb"


def test_merge_into_preserves_other_sections(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"schema": "repro.perf/v2",
                               "simspeed": {"x": 1}}))
    _merge_into(str(out), {"p": {"now_ns": 1.0}})
    data = json.loads(out.read_text())
    assert data["simspeed"] == {"x": 1}
    assert data["sweep"]["p"]["now_ns"] == 1.0
    assert "cpu_count" in data["sweep_meta"]
    # a second merge updates in place without dropping earlier points
    _merge_into(str(out), {"q": {"now_ns": 2.0}})
    data = json.loads(out.read_text())
    assert set(data["sweep"]) == {"p", "q"}


def test_sweep_main_list_exits_clean(capsys):
    assert sweep_main(["--list"]) == 0
    printed = capsys.readouterr().out
    for name in POINTS:
        assert name in printed


def test_sweep_main_merges_points(monkeypatch, tmp_path, capsys):
    _install_tiny_points(monkeypatch)
    out = tmp_path / "bench.json"
    # jobs=1: the monkeypatched registry does not exist in pool workers
    rc = sweep_main(["--points", "tiny_ycsb,tiny_ycsb_more",
                     "--jobs", "1", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    entry = data["sweep"]["tiny_ycsb"]
    assert entry["commit_hash"] == TINY_YCSB_GOLDEN["commit_hash"]
    assert entry["run_host_seconds"] > 0
    assert data["sweep"]["tiny_ycsb_more"]["committed"] == 12


# -- CLI filters -------------------------------------------------------------

def test_cli_list_prints_scenarios(capsys):
    assert main(["--list"]) == 0
    printed = capsys.readouterr().out.split()
    assert set(SCENARIOS) <= set(printed)


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["--scenario", "nope"])


def test_cli_sweep_subcommand_routes(capsys):
    assert main(["sweep", "--list"]) == 0
    assert "ycsb_paper_300k" in capsys.readouterr().out
