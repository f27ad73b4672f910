"""revelight benchmark: one command for every workload.

    python3 perfbench/run.py --workload ref_drivers --seed 0 --seconds 40 --trace 0

Run it from the repository root: it imports the program from ``src/`` there
and fails when that is missing.  Operations of the chosen workload run back
to back for ``--seconds``; every operation is checked.  The last line of
standard output is the result, ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics of BENCHMARK.json (``--trace 0``)
or its per-layer metrics (``--trace 1``).  The line before it records
provenance.  Spans of a traced run and each result are written under
``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: every workload is one closed loop, and on a shared machine
# a second BLAS thread only adds noise.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes
import glob
import hashlib
import importlib
import json
import platform
import resource
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import DRIVERS, Tracer, count, layer_metrics
from workloads import WORKLOADS, Probe

HERE = Path(__file__).resolve().parent
MODULES = ("streams", "models", "estimator", "fedproto", "engine", "verify", "cli")
LOSS_RTOL = 1e-9   # pinned final losses are compared to rounding


def _program_modules() -> list[str]:
    return [m for m in sys.modules if m == "revelight" or m.startswith("revelight.")]


def load_program(root: Path) -> SimpleNamespace:
    """Import the package from ``root/src``."""
    src = root / "src"
    if not (src / "revelight" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'revelight'}; run from the repository root")
    sys.path.insert(0, str(src))
    for mod in MODULES:
        importlib.import_module(f"revelight.{mod}")
    pkg = sys.modules["revelight"]
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported revelight from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: sys.modules[f"revelight.{m}"] for m in MODULES})


def import_seconds() -> float:
    """Time one fresh import of the package, then put the loaded modules back."""
    loaded = {m: sys.modules.pop(m) for m in _program_modules()}
    t0 = time.perf_counter()
    for mod in MODULES:
        importlib.import_module(f"revelight.{mod}")
    secs = time.perf_counter() - t0
    for m in _program_modules():
        del sys.modules[m]
    sys.modules.update(loaded)
    return secs


def blas_threads() -> int | None:
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getattr(lib, fn).restype = ctypes.c_int
                return int(getattr(lib, fn)())
    return None


def git_commit(root: Path) -> str | None:
    """The checked-out commit, when ``root`` is a git work tree with a loose ref."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "revelight").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_ops(workload, probe, seconds: float, first_op: int, tracer=None) -> list:
    """Operations back to back until ``seconds`` have passed (at least one).

    Each operation is preceded by a timed fresh import of the package, so the
    import samples of set-up time spread over the whole run.
    """
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.current_op = first_op + len(results)
        import_s = import_seconds()
        try:
            res = workload.run_op(probe)
            res.import_s = import_s
        except Exception as exc:  # an operation that raises is a failed operation
            res = None
            print(f"operation {first_op + len(results)} raised {exc!r}", file=sys.stderr)
        results.append(res)
    return results


def pinned_failures(name: str, seed: int, res) -> list[str]:
    pins = json.loads((HERE / "pinned.json").read_text()).get(name, {}).get(str(seed))
    if pins is None:
        return []
    fails = []
    if res.fingerprint != pins["fingerprint"]:
        fails.append(f"fingerprint {res.fingerprint[:16]} != pinned {pins['fingerprint'][:16]}")
    for algo, loss in pins["losses"].items():
        got = res.losses.get(algo, float("nan"))
        if not abs(got - loss) <= LOSS_RTOL * abs(loss):
            fails.append(f"{algo}: final loss {got!r} != pinned {loss!r}")
    return fails


def events_per_s(results) -> float:
    """Events of all operations over their event time: the run's throughput."""
    return sum(r.events for r in results) / sum(r.event_s for r in results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    rl = load_program(root)
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](rl, args.seed, workdir)
    probe = Probe(rl)

    tracer = None
    if args.trace:
        plain = run_ops(workload, probe, args.seconds / 2, 0)
        tracer = Tracer()
        tracer.install(rl)
        probe.tracer = tracer
        traced = run_ops(workload, probe, args.seconds / 2, len(plain), tracer)
    else:
        plain = run_ops(workload, probe, args.seconds, 0)
        traced = []
    results = plain + traced

    failed_ops = 0
    reference = next((r.fingerprint for r in results if r is not None), None)
    expected = workload.expected_counts()
    spans = tracer.arrays() if tracer else None
    for idx, res in enumerate(results):
        if res is None:
            failed_ops += 1
            continue
        fails = list(res.failures)
        if res.fingerprint != reference:
            fails.append(f"fingerprint {res.fingerprint[:16]} differs from the run's first "
                         f"{reference[:16]}")
        fails += pinned_failures(args.workload, args.seed, res)
        if idx >= len(plain):  # trace self-check: exact call counts per driver
            for driver, counts in expected.items():
                for span, want in counts.items():
                    got = count(spans, span, op=idx, drivers=(driver,))
                    if got != want:
                        fails.append(f"trace self-check: {driver} {span} = {got}, expected {want}")
        if fails:
            failed_ops += 1
            for msg in fails:
                print(f"operation {idx}: {msg}", file=sys.stderr)

    ok_plain = [r for r in plain if r is not None]
    ok_traced = [r for r in traced if r is not None]
    metrics = {}
    if ok_plain and not args.trace:
        metrics = {
            "events_per_s": events_per_s(ok_plain),
            "checks_per_s": sum(r.checks for r in ok_plain) / sum(r.op_s for r in ok_plain),
            "setup_s": statistics.median(r.import_s + r.setup_s for r in ok_plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    elif ok_plain and ok_traced:
        n_ops = len(traced)
        op_seconds = sum(r.op_s for r in ok_traced)
        metrics = layer_metrics(spans, n_ops, ok_traced[0].events, op_seconds)
        for driver in DRIVERS:
            runs = [r.drivers[driver] for r in ok_plain if driver in r.drivers]
            metrics[f"engine.{driver}.events_per_s"] = (
                sum(e for e, _ in runs) / sum(t for _, t in runs) if runs else 0.0
            )
        first = ok_plain[0]
        metrics["fedproto.wire_bytes_per_event"] = (
            first.wire_bytes / first.wire_events if first.wire_events else 0.0
        )
        metrics["trace.overhead_ratio"] = events_per_s(ok_plain) / events_per_s(ok_traced)
        tracer.save(workdir / f"spans_{args.workload}_{args.seed}.npz")

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if metrics and set(metrics) != set(declared):
        raise SystemExit(f"error: computed metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    exact = sorted(n for n, u in declared.items() if u in ("count", "events", "B/event"))
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "fingerprints": sorted({r.fingerprint for r in results if r is not None}),
        "operations": {"untraced": len(plain), "traced": len(traced)},
        "exact_counts": exact if args.trace else [],
    }
    result = {
        "correct": failed_ops == 0 and bool(metrics),
        "attempted": len(results),
        "failed": failed_ops,
        "metrics": {n: {"value": float(v), "unit": declared[n]} for n, v in metrics.items()},
    }
    (workdir / f"result_{args.workload}_{args.seed}_{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1)
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
