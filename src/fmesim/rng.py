"""Counter-based random streams for reproducible Monte Carlo.

Word w in {0, 1} of run r in sweep row `row` is mix(key + GAMMA * i mod
2**64) with the index i = row * 2**33 + 2 r + w, where mix is the SplitMix64
finalizer (Steele, Lea & Flood, OOPSLA 2014), GAMMA = 0x9E3779B97F4A7C15 and
key = mix(seed).  A run's draws are a pure function of (seed, row, r), so
any partition of the runs into chunks gives the same stream, bit for bit.
With row < 2**31 and r < 2**32 the index is one-to-one; GAMMA is odd and mix
is a bijection, so under one seed no two words alias.  Two seeds read
shifted windows of one 2**64-long sequence, mix(GAMMA * j), which overlap
only if the shift lands inside the used index range.

A word is the mixed z with its low 11 bits cleared, k 2**11 for k = z >> 11,
so u = w 2**-64 is exact, a multiple of 2**-53 in [0, 1).  Two generators
compute the same words of runs lo .. hi - 1 of a row: run_word_array with
numpy uint64 arithmetic, for the numpy kernel, and run_words with the
standard library, which packs every word of a chunk into one 128-bit lane of
a Python int, so that each xor-shift and multiply is one big-int operation
over all lanes.  Neither checks (seed, row, lo, hi): the command line keeps
seed < 2**64, row < 2**31 and 0 <= lo <= hi <= 2**32 (runs <= 2**32).
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = (z ^ z >> 30) * _M1 & _MASK
    z = (z ^ z >> 27) * _M2 & _MASK
    return z ^ z >> 31


def _start(seed: int, row: int, lo: int) -> int:
    """key + GAMMA * i mod 2**64 at word 0 of run lo of row; it does not
    check the bounds of seed, row or lo that the module docstring gives."""
    return _mix(seed) + _GAMMA * ((row << 33) + 2 * lo) & _MASK


def run_word_array(seed: int, row: int, lo: int, hi: int) -> np.ndarray:
    """The words of runs lo .. hi - 1 as uint64, shape (2, hi - lo): row w
    holds word w of each run, row 0 drawing the run's trials to its first
    click and row 1 its branch, so every numpy call runs over whole rows."""
    import numpy as np

    start = _start(seed, row, lo)
    offset = np.array([[start], [start + _GAMMA & _MASK]], dtype=np.uint64)
    runs = np.arange(hi - lo, dtype=np.uint64)
    z = runs * np.uint64(2 * _GAMMA & _MASK) + offset  # uint64 wraps mod 2**64
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    z &= np.uint64(_MASK ^ 0x7FF)
    return z


@lru_cache(maxsize=4)  # a whole chunk and the last, shorter one
def _lanes(n: int) -> tuple[int, int, int, int]:
    """For n 128-bit lanes: 1 in each lane, 2**64 - 1 in each lane, the same
    with the low 11 bits cleared, and GAMMA * k mod 2**64 in lane k."""
    ones = int.from_bytes((b"\1" + bytes(15)) * n, "little")
    mask = ones * _MASK
    ramp = array("Q", bytes(16 * n))  # the low half of each lane holds k
    ramp[::2] = array("Q", range(n))
    return ones, mask, mask - ones * 0x7FF, int.from_bytes(ramp, sys.byteorder) * _GAMMA & mask


def run_words(seed: int, row: int, lo: int, hi: int) -> bytes:
    """The words of runs lo .. hi - 1 as 2 (hi - lo) little-endian 128-bit
    lanes: word w of run lo + j fills the low 8 bytes of lane 2 j + w, and
    its high 8 bytes are 0.  Its words are run_word_array's, k 2**11, so the
    top byte of a word (byte 7 of its lane) is k >> 45.

    The lanes sit in one Python int.  A lane holds a 64-bit value in its low
    half, so a product by a 64-bit constant fits in the lane, and the lane
    mask is applied after every xor-shift (which moves the next lane's low
    bits into the high half) and every multiply, which leaves each lane its
    value mod 2**64."""
    start = _start(seed, row, lo)
    n = 2 * (hi - lo)
    ones, mask, top53, ramp = _lanes(n)
    z = ramp + start * ones & mask
    z = (z ^ z >> 30) & mask
    z = z * _M1 & mask
    z = (z ^ z >> 27) & mask
    z = z * _M2 & mask
    z = (z ^ z >> 31) & top53
    return z.to_bytes(16 * n, "little")
