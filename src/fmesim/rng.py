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
"""

from __future__ import annotations

import numpy as np

from .config import COUNTER_LIMIT, ROW_LIMIT, SEED_LIMIT

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = (z ^ z >> 30) * _M1 & _MASK
    z = (z ^ z >> 27) * _M2 & _MASK
    return z ^ z >> 31


def run_uniforms(seed: int, row: int, runs: np.ndarray) -> np.ndarray:
    """Two 53-bit uniforms per run; shape (len(runs), 2).  Column 0 draws the
    run's trials to its first click, column 1 its branch.  Each column is
    contiguous (the transpose of one row per word), so every numpy call runs
    over whole columns."""
    seed, row = int(seed), int(row)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= row < ROW_LIMIT:
        raise ValueError(f"row must be in [0, 2**31), got {row}")
    runs = np.asarray(runs)
    if runs.size and not 0 <= int(runs.min()) <= int(runs.max()) < COUNTER_LIMIT:
        raise ValueError("run indices must lie in [0, 2**32)")
    runs = runs.astype(np.uint64, copy=False)
    start = _mix(seed) + _GAMMA * (row << 33)  # key + GAMMA * i at run 0
    offset = np.array([[start & _MASK], [start + _GAMMA & _MASK]], dtype=np.uint64)
    z = runs * np.uint64(2 * _GAMMA & _MASK) + offset  # uint64 wraps mod 2**64
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return (z * 2.0**-53).T
