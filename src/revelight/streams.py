"""Counter-based random streams addressable by (purpose, party, step).

Every random draw in a run is taken from a stream identified by a small
address tuple rather than from one shared sequential generator.  Two runs
with the same seed therefore replay identical draws regardless of event
interleaving, which is what makes the asynchronous, synchronous and
centralized drivers (and the replay oracles) bit-for-bit comparable.

The backing generator is Philox, whose 256-bit counter we partition as
(0, step, party, purpose); the free-running low word leaves each address
2^64 draws, far more than any caller consumes.  The key holds the seed, so
one key plus a settable counter reaches every address (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).

Two ways in, one sequence of draws per address:

- `Stream` keeps one generator for a (seed, purpose) pair and moves it to
  each (party, step) by resetting its counter.  The per-event draws use it,
  one instance per owner: `PartyNode` owns SAMPLE and DIRECTION,
  `ServerNode` SERVER_DIRECTION, `DelayModel` COMPUTE and LATENCY, and the
  centralized and synchronous driver loops their own.
- `stream()` builds an independent generator for one address.  It serves
  the cold sites (INIT, DATA, SPLIT, TRIAL) and any caller that keeps a
  generator across calls.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

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


def check_seed(seed: int) -> None:
    """A seed is the Philox key, an integer in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed {seed} is outside [0, 2**64)")


def _philox(seed: int, purpose: int, party: int, step: int) -> np.random.Philox:
    check_seed(seed)
    # an explicit uint64 array: a list mixing ints and np.uint64 would pass
    # through float64 and merge addresses above 2**53
    counter = np.array([0, step, party, purpose], dtype=np.uint64)
    return np.random.Philox(key=np.uint64(seed), counter=counter)


def stream(seed: int, purpose: int, party: int = 0, step: int = 0) -> np.random.Generator:
    """Return a new, independent generator for one address.

    Addresses with distinct (purpose, party, step) never overlap.  Building
    one costs a Philox set-up; hot loops re-address a `Stream` instead.
    """
    return np.random.Generator(_philox(seed, purpose, party, step))


class Stream:
    """One owner's generator for a (seed, purpose) pair, re-addressed in place.

    `at(party, step)` resets the generator to the start of that address and
    returns it; its draws are exactly those of `stream(seed, purpose, party,
    step)`.  The reset also drops any buffered output, including the half
    32-bit word `integers` can leave behind.  A re-address invalidates the
    position of the previous one, so each instance has one owner.
    """

    __slots__ = ("_bits", "_gen", "_state", "_counter")

    def __init__(self, seed: int, purpose: int) -> None:
        self._bits = _philox(seed, purpose, 0, 0)
        self._gen = np.random.Generator(self._bits)
        self._state = self._bits.state
        self._counter = self._state["state"]["counter"]

    def at(self, party: int, step: int) -> np.random.Generator:
        counter = self._counter
        counter[1] = step
        counter[2] = party
        state = self._state
        state["buffer_pos"] = 4  # buffer exhausted: the next draw runs the counter
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bits.state = state  # copied in; state["buffer"] stays zero
        return self._gen
