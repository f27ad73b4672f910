"""Counter-based random streams addressable by (purpose, party, step).

Every random draw in a run is taken from a stream identified by a small
address tuple rather than from one shared sequential generator.  Two runs
with the same seed therefore replay identical draws regardless of event
interleaving, which is what makes the simulated and concurrent execution
modes (and the centralized replay oracles) bit-for-bit comparable.

The backing generator is Philox, whose 256-bit counter we partition as
(0, step, party, purpose); the free-running low word leaves each address
2^64 draws, far more than any caller consumes.
"""

from __future__ import annotations

import numpy as np

# Stream purposes.  Values are part of the reproducibility contract: changing
# them changes every trajectory.
INIT = 1          # parameter initialization
SAMPLE = 2        # per-activation index draws
DIRECTION = 3     # client perturbation directions
SERVER_DIRECTION = 4  # server-side perturbation directions
COMPUTE = 5       # per-step compute durations
LATENCY = 6       # per-message network latencies
DATA = 7          # synthetic dataset generation
SPLIT = 8         # train/test fold shuffling
TRIAL = 9         # verification trial instances


def stream(seed: int, purpose: int, party: int = 0, step: int = 0) -> np.random.Generator:
    """Return the generator for one address.

    Addresses with distinct (purpose, party, step) never overlap.  The
    generator is cheap to construct; callers create one per draw site.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    bg = np.random.Philox(
        key=np.uint64(seed),
        counter=[0, np.uint64(step), np.uint64(party), np.uint64(purpose)],
    )
    return np.random.Generator(bg)

