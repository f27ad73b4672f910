"""`scripts/bench_pairs.py record`, the step that writes a BENCH_<rev>.json
from the collected runs.  The script is loaded by path, as it is, and fed
synthetic `result_*.json` copies for the two sides."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(events_per_s, setup_s, source="aa", fingerprint="f0", failed=0):
    """A run's result as perfbench/run.py writes it, cut to what `record` reads."""
    return {
        "provenance": {"workload": "ref_drivers", "seed": 0, "source_sha256": source,
                       "fingerprints": [fingerprint], "operations": {"untraced": 3}},
        "correct": not failed, "attempted": 3, "failed": failed,
        "metrics": {"events_per_s": {"value": events_per_s, "unit": "ev/s"},
                    "setup_s": {"value": setup_s, "unit": "s"}},
    }


def _write(into: Path, side: str, results: list[dict]) -> None:
    (into / side).mkdir(parents=True, exist_ok=True)
    for pair, result in enumerate(results):
        (into / side / f"ref_drivers_0_{pair:02d}.json").write_text(json.dumps(result))


def _record(bench_pairs, tmp_path) -> dict:
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["record", "--into", str(tmp_path / "runs"), "--rev", "abc1234",
                             "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_record_summarises_each_side_and_counts_the_pairs_won(bench_pairs, tmp_path):
    # pair by pair: a win, a tie, a loss and a win, for either direction of better
    _write(tmp_path / "runs", "parent",
           [_result(e, s) for e, s in zip([10, 20, 30, 40], [1.0, 2.0, 3.0, 4.0])])
    _write(tmp_path / "runs", "change",
           [_result(e, s, source="bb", fingerprint="f1")
            for e, s in zip([11, 20, 29, 50], [0.5, 2.0, 3.5, 3.0])])
    bench = _record(bench_pairs, tmp_path)
    assert bench["parent"] == "abc1234"
    entry = bench["workloads"]["ref_drivers"]["0"]
    assert entry["parent"]["summary"] == {
        "events_per_s": {"median": 25, "q1": 17.5, "q3": 32.5},
        "setup_s": {"median": 2.5, "q1": 1.75, "q3": 3.25}}
    assert entry["change"]["summary"]["events_per_s"] == {"median": 24.5, "q1": 17.75,
                                                          "q3": 34.25}
    # events_per_s is better higher and setup_s lower (BENCHMARK.json); the tie counts for neither
    assert entry["change_won"] == {"events_per_s": "2/4", "setup_s": "2/4"}
    assert entry["verdict"] == {"events_per_s": "unresolved", "setup_s": "unresolved"}
    assert [run["events_per_s"] for run in entry["change"]["runs"]] == [11, 20, 29, 50]
    assert entry["parent"]["runs"][0] == {"correct": True, "attempted": 3, "failed": 0,
                                          "events_per_s": 10, "setup_s": 1.0}
    assert entry["parent"]["provenance"] == {"workload": "ref_drivers", "seed": 0,
                                             "source_sha256": "aa", "fingerprints": ["f0"]}
    assert (entry["parent"]["fingerprints"], entry["change"]["fingerprints"]) == (["f0"], ["f1"])
    assert entry["fingerprints_equal"] is False


def test_one_side_alone_is_summarised_without_pairs(bench_pairs, tmp_path):
    _write(tmp_path / "runs", "parent", [_result(10, 1.0)])
    entry = _record(bench_pairs, tmp_path)["workloads"]["ref_drivers"]["0"]
    assert entry["parent"]["summary"]["events_per_s"] == {"median": 10, "q1": 10, "q3": 10}
    assert "change" not in entry and "change_won" not in entry
    assert "fingerprints_equal" not in entry


@pytest.mark.parametrize("change, equal", [(["f0", "f1"], True), (["f0", "f2"], False)],
                         ids=["equal", "unequal"])
def test_record_says_whether_the_sides_fingerprints_are_equal(bench_pairs, tmp_path, change,
                                                              equal):
    """Each side's fingerprints are the sorted set over its runs."""
    _write(tmp_path / "runs", "parent", [_result(10, 1.0, fingerprint=f) for f in ["f1", "f0"]])
    _write(tmp_path / "runs", "change",
           [_result(10, 1.0, source="bb", fingerprint=f) for f in change])
    entry = _record(bench_pairs, tmp_path)["workloads"]["ref_drivers"]["0"]
    assert entry["fingerprints_equal"] is equal


def test_a_side_of_two_sources_is_refused(bench_pairs, tmp_path):
    _write(tmp_path / "runs", "parent", [_result(10, 1.0), _result(20, 2.0)])
    _write(tmp_path / "runs", "change", [_result(10, 1.0, source="bb"), _result(20, 2.0)])
    with pytest.raises(SystemExit, match="ref_drivers: one side's runs ran different sources"):
        _record(bench_pairs, tmp_path)
    assert not (tmp_path / "BENCH.json").exists()


PARENT = [100, 104, 96, 102, 98, 101, 99, 103, 97, 100]  # median 100, quartiles 98.25, 101.75
WIDE = [60, 140, 60, 140, 100, 100, 60, 140, 100, 100]  # median 100, quartiles 70, 130


@pytest.mark.parametrize("parent, change, expect", [
    # won all 10 pairs and the medians differ by more than the parent's spread of 3.5
    (PARENT, [p + 5 for p in PARENT], "gain"),
    # won 9 of 10: still a gain
    (PARENT, [p + 5 for p in PARENT[:9]] + [PARENT[9] - 1], "gain"),
    # won 8 of 10: not a gain, and no more than the bound of 25% away
    (PARENT, [p + 5 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]], "within bound"),
    # won all pairs, but by less than the parent's spread
    (PARENT, [p + 1 for p in PARENT], "within bound"),
    # its median is 30% below the parent's, past the bound of 25%
    (PARENT, [0.7 * p for p in PARENT], "worse"),
    # a side spread over more than the bound, not all pairs won: the pairs cannot tell
    (PARENT, [p * f for p, f in zip(PARENT, [0.5, 1.5] * 5)], "unresolved"),
    # the parent's spread is wider than the bound and every pair is won, but
    # not every change run is above every parent run
    (WIDE, [p + 1 for p in WIDE], "unresolved"),
    # as wide, but every change run is above every parent run
    (WIDE, list(range(141, 151)), "within bound"),
])
def test_a_metric_gets_one_verdict(bench_pairs, tmp_path, parent, change, expect):
    _write(tmp_path / "runs", "parent", [_result(e, 1.0) for e in parent])
    _write(tmp_path / "runs", "change", [_result(e, 1.0, source="bb") for e in change])
    entry = _record(bench_pairs, tmp_path)["workloads"]["ref_drivers"]["0"]
    # events_per_s is better higher; setup_s, equal on every run, did not move
    assert entry["verdict"] == {"events_per_s": expect, "setup_s": "within bound"}


def test_a_lower_better_metric_gains_when_it_falls(bench_pairs, tmp_path):
    _write(tmp_path / "runs", "parent", [_result(100, s / 100) for s in PARENT])
    _write(tmp_path / "runs", "change", [_result(100, s / 100 - 0.2, source="bb")
                                         for s in PARENT])
    entry = _record(bench_pairs, tmp_path)["workloads"]["ref_drivers"]["0"]
    assert entry["verdict"]["setup_s"] == "gain"
    _write(tmp_path / "runs", "change", [_result(100, s / 100 + 0.3, source="bb")
                                         for s in PARENT])
    entry = _record(bench_pairs, tmp_path)["workloads"]["ref_drivers"]["0"]
    assert entry["verdict"]["setup_s"] == "worse"


def test_no_gain_when_the_change_fails_more_operations(bench_pairs, tmp_path):
    # the change wins all 10 pairs by a gain, but one of its runs failed an operation
    _write(tmp_path / "runs", "parent", [_result(e, 1.0, failed=int(e == 96)) for e in PARENT])
    _write(tmp_path / "runs", "change", [_result(e + 5, 1.0, source="bb", failed=int(e == 96))
                                         for e in PARENT])
    entry = _record(bench_pairs, tmp_path)["workloads"]["ref_drivers"]["0"]
    assert (entry["parent"]["failed"], entry["change"]["failed"]) == (1, 1)
    assert entry["verdict"]["events_per_s"] == "gain"
    _write(tmp_path / "runs", "change", [_result(e + 5, 1.0, source="bb", failed=2 * int(e == 96))
                                         for e in PARENT])
    entry = _record(bench_pairs, tmp_path)["workloads"]["ref_drivers"]["0"]
    assert (entry["parent"]["failed"], entry["change"]["failed"]) == (1, 2)
    assert entry["verdict"] == {"events_per_s": "within bound", "setup_s": "within bound"}


def test_a_result_without_metrics_is_refused(bench_pairs, tmp_path):
    _write(tmp_path / "runs", "parent", [_result(10, 1.0)])
    empty = dict(_result(10, 1.0, source="bb", failed=3), metrics={})
    _write(tmp_path / "runs", "change", [empty])
    path = tmp_path / "runs" / "change" / "ref_drivers_0_00.json"
    with pytest.raises(SystemExit, match=re.escape(f"{path}: no metrics, every operation of "
                                                   "the run failed")):
        _record(bench_pairs, tmp_path)
    assert not (tmp_path / "BENCH.json").exists()
