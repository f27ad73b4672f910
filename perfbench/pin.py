"""Write pinned.json: the fingerprint and final losses of one operation per
workload and seed, which later runs of the benchmark must reproduce.

    python3 perfbench/pin.py

Run it from the repository root, on the commit whose trajectories are pinned.
"""

from __future__ import annotations

import json
from pathlib import Path

import run  # first: pins BLAS to one thread before numpy loads
from workloads import WORKLOADS, Probe

SEEDS = 20  # seeds 0 .. SEEDS-1 are pinned


def main() -> int:
    rl = run.load_program(Path.cwd())
    workdir = run.HERE / ".work"
    workdir.mkdir(exist_ok=True)
    probe = Probe(rl)
    pins = {}
    for name, workload in WORKLOADS.items():
        for seed in range(SEEDS):
            res = workload(rl, seed, workdir).run_op(probe)
            if res.failures:
                raise SystemExit(f"error: {name} seed {seed}: {res.failures}")
            pins.setdefault(name, {})[str(seed)] = {
                "fingerprint": res.fingerprint, "losses": res.losses,
            }
            print(name, seed, res.fingerprint[:16], flush=True)
    (run.HERE / "pinned.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
