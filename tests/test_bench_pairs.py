"""`scripts/bench_pairs.py record`, the step that writes a BENCH_<rev>.json
from the collected runs.  The script is loaded by path, as it is, and fed
synthetic `result_*.json` copies for the two sides."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(events_per_s, setup_s, source="aa", fingerprint="f0"):
    """A run's result as perfbench/run.py writes it, cut to what `record` reads."""
    return {
        "provenance": {"workload": "ref_drivers", "seed": 0, "source_sha256": source,
                       "fingerprints": [fingerprint], "operations": {"untraced": 3}},
        "correct": True, "attempted": 3, "failed": 0,
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
    assert [run["events_per_s"] for run in entry["change"]["runs"]] == [11, 20, 29, 50]
    assert entry["parent"]["runs"][0] == {"correct": True, "attempted": 3, "failed": 0,
                                          "events_per_s": 10, "setup_s": 1.0}
    assert entry["parent"]["provenance"] == {"workload": "ref_drivers", "seed": 0,
                                             "source_sha256": "aa", "fingerprints": ["f0"]}
    assert (entry["parent"]["fingerprints"], entry["change"]["fingerprints"]) == (["f0"], ["f1"])


def test_one_side_alone_is_summarised_without_pairs(bench_pairs, tmp_path):
    _write(tmp_path / "runs", "parent", [_result(10, 1.0)])
    entry = _record(bench_pairs, tmp_path)["workloads"]["ref_drivers"]["0"]
    assert entry["parent"]["summary"]["events_per_s"] == {"median": 10, "q1": 10, "q3": 10}
    assert "change" not in entry and "change_won" not in entry


def test_a_side_of_two_sources_is_refused(bench_pairs, tmp_path):
    _write(tmp_path / "runs", "parent", [_result(10, 1.0), _result(20, 2.0)])
    _write(tmp_path / "runs", "change", [_result(10, 1.0, source="bb"), _result(20, 2.0)])
    with pytest.raises(SystemExit, match="ref_drivers: one side's runs ran different sources"):
        _record(bench_pairs, tmp_path)
    assert not (tmp_path / "BENCH.json").exists()
