"""Tests for the repro.perf harness: golden fingerprints and the CLI.

The heavy guarantee — that host-side performance work moved no
simulated event — is enforced here in-tree, so a timing regression in
the engine, the softcore or a pipeline fails the unit suite, not just
the perf job.
"""

import json

import pytest

from repro.perf import (
    GOLDEN_SMOKE,
    calibration_loop,
    equivalence_failures,
    run_equivalence,
    tpcc_scenario,
    ycsb_scenario,
)
from repro.perf.__main__ import check_regressions, main


# -- golden fingerprints -----------------------------------------------------

def test_scenarios_match_goldens():
    results = run_equivalence(scale=1)
    assert equivalence_failures(results) == []
    for name, entry in results.items():
        assert entry["golden_match"], name
        assert entry["fingerprint"] == GOLDEN_SMOKE[name], name


def test_golden_constants_are_pinned():
    # the checked-in anchors themselves must not drift silently
    assert GOLDEN_SMOKE["ycsb_smoke"]["events_fired"] == 15384
    assert GOLDEN_SMOKE["ycsb_smoke"]["now_ns"] == 187368.0
    assert GOLDEN_SMOKE["tpcc_smoke"]["events_fired"] == 33611
    assert GOLDEN_SMOKE["tpcc_smoke"]["now_ns"] == 530656.0


def test_scenarios_are_deterministic_across_runs():
    assert ycsb_scenario() == ycsb_scenario()
    assert tpcc_scenario() == tpcc_scenario()


def test_equivalence_failures_reports_divergence():
    results = run_equivalence(scale=1)
    broken = dict(results)
    entry = dict(broken["ycsb_smoke"])
    entry["golden_match"] = False
    broken["ycsb_smoke"] = entry
    messages = equivalence_failures(broken)
    assert len(messages) == 1
    assert "ycsb_smoke" in messages[0]


def test_calibration_loop_times_itself():
    sample = calibration_loop(2_000)
    assert sample["seconds"] > 0


# -- regression checker ------------------------------------------------------

def _results(events=2.0, ycsb=1.5):
    return {
        "microbench": {"events": {"ratio_vs_calibration": events}},
        "simspeed": {"ycsb_smoke": {"ratio_vs_calibration": ycsb}},
    }


def test_check_regressions_passes_within_floor():
    assert check_regressions(_results(1.6, 1.2), _results(2.0, 1.5)) == []


def test_check_regressions_flags_big_drop():
    failures = check_regressions(_results(1.0, 1.5), _results(2.0, 1.5))
    assert len(failures) == 1
    assert "microbench.events" in failures[0]


def test_check_regressions_flags_missing_key():
    current = {"microbench": {}, "simspeed": {}}
    failures = check_regressions(current, _results())
    assert len(failures) == 2


# -- CLI ---------------------------------------------------------------------

@pytest.mark.slow
def test_cli_smoke_writes_bench_json(tmp_path):
    # each ratio is the median of 5 pairs interleaved with the
    # calibration loop: on a shared host one or two pairs are one CPU
    # hiccup away from tripping the 25% self-check floor when the suite
    # has been loading the machine for minutes
    out = tmp_path / "bench.json"
    assert main(["--smoke", "--out", str(out), "--repeats", "5"]) == 0
    results = json.loads(out.read_text())
    assert results["schema"] == "repro.perf/v3"
    assert results["mode"] == "smoke"
    for section in ("equivalence", "microbench", "simspeed"):
        assert section in results
    assert results["microbench"]["events"]["ratio_vs_calibration"] > 0
    assert "fig09_ycsb_smoke" in results["simspeed"]
    # the written file must be usable as its own regression baseline
    assert main(["--smoke", "--out", str(tmp_path / "second.json"),
                 "--repeats", "5", "--check", str(out)]) == 0
