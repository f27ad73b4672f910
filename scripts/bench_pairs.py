"""Interleaved parent/change benchmark runs, and the BENCH_<rev>.json that records them.

Run each side from its own checkout (a ``git archive`` copy of the parent
commit, and one of the change), then record the collected results:

    python3 scripts/bench_pairs.py run --parent ../parent --change ../change \\
        --workload verify_mc --seed 0 --pairs 10 --seconds 40 --into results
    python3 scripts/bench_pairs.py record --into results --rev e61c47e --out BENCH_e61c47e.json

``run`` starts ``perfbench/run.py`` once per side and pair, with
PYTHONDONTWRITEBYTECODE=1, and alternates which side runs first.  After each
run it copies that checkout's ``perfbench/.work/result_<workload>_<seed>_0.json``
to ``<into>/<side>/<workload>_<seed>_<pair>.json``.  ``record`` reads those
copies and writes, per workload and seed: every run's end-to-end metrics,
their medians and quartiles on each side, the provenance of the runs, the
fingerprints and whether the two sides' lists of them are equal
(``fingerprints_equal``), each side's total of failed operations, and per
metric the number of pairs the change won and a verdict; it refuses a side
whose runs ran different sources (their ``source_sha256`` differ), a
result without metrics (every operation of its run failed), and a workload
whose runs differ in run length, tracing, CPU count, Python, numpy or BLAS
threads, or whose two sides ran different numbers of runs.

A metric's verdict, against its relative ``bound`` in BENCHMARK.json, is the
first of these that holds:

- ``gain``: the change won at least 9 in 10 of the pairs, its median is
  better than the parent's by more than the parent's quartile spread, and
  its runs failed no more operations in all than the parent's;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``unresolved``: either side's quartile spread, over its median, is wider
  than the bound, and not every run of the change is better than every run
  of the parent;
- ``within bound``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"  # the metrics' better direction
# provenance fields that every run of a workload, on either side, must share
CONDITIONS = ("seconds", "trace", "cpus", "python", "numpy", "blas_threads")


def run_pairs(args) -> None:
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    name = f"{args.workload}_{args.seed}"
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            root = roots[side]
            subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds)],
                           cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
            into = Path(args.into) / side
            into.mkdir(parents=True, exist_ok=True)
            shutil.copy(root / "perfbench" / ".work" / f"result_{name}_0.json",
                        into / f"{name}_{pair:02d}.json")


def _summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: numpy's linear percentiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _side(results: list[dict]) -> dict:
    """One side's runs of one workload and seed, all of one source."""
    if len({r["provenance"]["source_sha256"] for r in results}) > 1:
        sys.exit(f"{results[0]['provenance']['workload']}: one side's runs ran different sources")
    provenance = {k: v for k, v in results[0]["provenance"].items() if k != "operations"}
    metrics = sorted(results[0]["metrics"])
    runs = [{"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
             **{m: r["metrics"][m]["value"] for m in metrics}} for r in results]
    return {
        "provenance": provenance,
        "fingerprints": sorted({f for r in results for f in r["provenance"]["fingerprints"]}),
        "runs": runs,
        "failed": sum(r["failed"] for r in results),
        "summary": {m: _summary([run[m] for run in runs]) for m in metrics},
    }


def _relative_spread(summary: dict) -> float:
    spread = summary["q3"] - summary["q1"]
    if summary["median"]:
        return spread / abs(summary["median"])
    return math.inf if spread > 0 else 0.0


def verdict(parent: list[float], change: list[float], sign: int, bound: float,
            more_failed: bool = False) -> str:
    """The verdict on one metric from its runs, paired in order; sign is +1
    when higher is better and -1 when lower is, and more_failed that the
    change's runs failed more operations than the parent's."""
    p, c = _summary(parent), _summary(change)
    won = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    gain = sign * (c["median"] - p["median"])
    if 10 * won >= 9 * len(parent) and gain > p["q3"] - p["q1"] and not more_failed:
        return "gain"
    if -gain > bound * abs(p["median"]):
        return "worse"
    if (max(_relative_spread(p), _relative_spread(c)) > bound
            and min(sign * y for y in change) <= max(sign * x for x in parent)):
        return "unresolved"
    return "within bound"


def record(args) -> None:
    spec = json.loads(SPEC.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups: dict[tuple[str, int], dict[str, list[dict]]] = {}
    for side in SIDES:
        for path in sorted((Path(args.into) / side).glob("*.json")):
            result = json.loads(path.read_text())
            if not result.get("metrics"):
                sys.exit(f"{path}: no metrics, every operation of the run failed")
            key = (result["provenance"]["workload"], result["provenance"]["seed"])
            groups.setdefault(key, {s: [] for s in SIDES})[side].append(result)
    workloads: dict[str, dict] = {}
    for (workload, seed), sides in sorted(groups.items()):
        runs = [r for results in sides.values() for r in results]
        for field in CONDITIONS:
            if len({r["provenance"][field] for r in runs}) > 1:
                sys.exit(f"{workload}: its runs differ in {field}")
        entry = {side: _side(results) for side, results in sides.items() if results}
        if len(entry) == len(SIDES):
            if len(sides["parent"]) != len(sides["change"]):
                sys.exit(f"{workload}: the sides ran {len(sides['parent'])} and "
                         f"{len(sides['change'])} runs")
            pairs = list(zip(entry["parent"]["runs"], entry["change"]["runs"]))
            sign = {m: 1 if b == "higher" else -1 for m, b in better.items()}
            won = {m: sum(sign[m] * (c[m] - p[m]) > 0 for p, c in pairs)
                   for m in entry["parent"]["summary"]}
            entry["change_won"] = {m: f"{w}/{len(pairs)}" for m, w in won.items()}
            entry["fingerprints_equal"] = \
                entry["parent"]["fingerprints"] == entry["change"]["fingerprints"]
            more_failed = entry["change"]["failed"] > entry["parent"]["failed"]
            entry["verdict"] = {
                m: verdict([p[m] for p, _ in pairs], [c[m] for _, c in pairs], sign[m], bounds[m],
                           more_failed)
                for m in won if m in bounds}
        workloads.setdefault(workload, {})[str(seed)] = entry
    out = {"parent": args.rev, "command": "PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py "
           "--workload W --seed S --seconds N", "workloads": workloads}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="interleaved parent/change runs of one workload and seed")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seconds", type=float, default=40)
    run.add_argument("--into", required=True)
    rec = sub.add_parser("record", help="write the BENCH json of the collected runs")
    rec.add_argument("--into", required=True)
    rec.add_argument("--rev", required=True, help="the parent commit the change is measured on")
    rec.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    (run_pairs if args.cmd == "run" else record)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
