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

One construction, one sequence of draws per address: `Stream` keeps one
generator for a (seed, purpose) pair and moves it to each (party, step) by
resetting its counter.  The per-event draws use it, one instance per owner:
`PartyNode` owns SAMPLE and DIRECTION, `ServerNode` SERVER_DIRECTION,
`DelayModel` COMPUTE and LATENCY, and the centralized and synchronous driver
loops their own.  A re-address hands numpy's state setter the Philox words
as Python ints, not uint64 arrays: the setter reads them one by one, and
from ints a re-address, which every driver pays 2-3 times per event, costs
about a third as much.  Each Stream keeps its state dict and swaps in a new
counter tuple per call, which costs a third less than building the dict;
the words are tuples, since word lists kept in each Stream raised the peak
memory at q = 128 by 3 MiB.

`stream()` is the cold sites' convenience (INIT, DATA, SPLIT, TRIAL, and any
caller that keeps a generator across calls): a fresh `Stream` moved to one
address, so its generator is independent of every other.
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


def stream(seed: int, purpose: int, party: int = 0, step: int = 0) -> np.random.Generator:
    """A new, independent generator for one address: a fresh `Stream` moved
    there.  Addresses with distinct (purpose, party, step) never overlap; hot
    loops re-address one `Stream` rather than pay a Philox set-up per draw."""
    return Stream(seed, purpose).at(party, step)


def sample_index(samples: "Stream", party: int, step: int, n: int) -> int:
    """The one SAMPLE draw: the index in [0, n) that `samples` draws at (party,
    step), as `integers(0, n)`, the draw of `integers(n)` at two thirds of its cost."""
    return int(samples.at(party, step).integers(0, n))


class Stream:
    """One owner's generator for a (seed, purpose) pair, re-addressed in place.

    `at(party, step)` resets the generator to the start of that address and
    returns it: numpy's Philox keyed by the seed, its counter at (0, step,
    party, purpose).  The reset also drops any buffered output, including
    the half 32-bit word `integers` can leave behind.  A re-address
    invalidates the position of the previous one, so each instance has one
    owner.
    """

    __slots__ = ("_bits", "_gen", "_state", "_words", "_purpose")

    def __init__(self, seed: int, purpose: int) -> None:
        check_seed(seed)
        self._bits = np.random.Philox(key=np.uint64(seed))  # `at` sets the whole counter
        self._gen = np.random.Generator(self._bits)
        key = tuple(self._bits.state["state"]["key"].tolist())
        self._words, self._purpose = {"counter": (0, 0, 0, purpose), "key": key}, purpose
        # the buffer exhausted, so the next draw runs the counter
        self._state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0, "state": self._words}

    def at(self, party: int, step: int) -> np.random.Generator:
        self._words["counter"] = (0, step, party, self._purpose)
        self._bits.state = self._state
        return self._gen
