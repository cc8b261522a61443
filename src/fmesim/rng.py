"""Counter-based random streams for reproducible parallel Monte Carlo.

Philox4x32-10 (Salmon et al., the Random123 generator) implemented directly
on numpy arrays.  Every trial's randomness is a pure function of

    (master seed, sweep row, run index, trial index)

so serial and multi-worker executions agree bit for bit no matter how runs
are partitioned.  The implementation is checked against the published
known-answer vectors in the test suite.

The kernel works in place on uint64 buffers of _CHUNK blocks, small enough
to stay in cache, with the round keys computed once per call.  One Philox
block yields four 32-bit words per trial; they are combined into two 53-bit
uniforms (click decision, branch selection).
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_ROUNDS = 10
_CHUNK = 1 << 14  # blocks per kernel pass

# Fixed tag in the last counter slot, so trial streams can never collide with
# other stream families added later.
_TRIAL_TAG = 0x464D4531

# Run and trial indices are 32-bit counter words; the seed is the 64-bit key.
COUNTER_LIMIT = 1 << 32
SEED_LIMIT = 1 << 64


def _round_keys(key) -> list[tuple[np.uint64, np.uint64]]:
    k0, k1 = int(key[0]), int(key[1])
    return [
        (np.uint64((k0 + r * _W0) & 0xFFFFFFFF), np.uint64((k1 + r * _W1) & 0xFFFFFFFF))
        for r in range(_ROUNDS)
    ]


def _rounds(c: np.ndarray, p: np.ndarray, keys) -> None:
    """Ten Philox rounds in place on words c (4, m) with scratch p (2, m).

    All arrays are uint64 holding 32-bit values, so each 32x32-bit product
    is exact and its high and low words are a shift and a mask away.
    """
    c0, c1, c2, c3 = c
    p0, p1 = p
    for k0, k1 in keys:
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        np.right_shift(p1, 32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.right_shift(p0, 32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p1, _MASK32, out=c1)
        np.bitwise_and(p0, _MASK32, out=c3)


def philox4x32(counter: np.ndarray, key) -> np.ndarray:
    """Philox4x32-10 block function under one key.

    counter: (n, 4) uint32, key: two uint32 words; returns (n, 4) uint32.
    """
    counter = np.asarray(counter, dtype=np.uint32)
    n = counter.shape[0]
    keys = _round_keys(key)
    buf = np.empty((6, min(n, _CHUNK)), dtype=np.uint64)
    out = np.empty((n, 4), dtype=np.uint32)
    for a in range(0, n, _CHUNK):
        m = min(_CHUNK, n - a)
        c = buf[:4, :m]
        c[:] = counter[a:a + m].T
        _rounds(c, buf[4:, :m], keys)
        out[a:a + m] = c.T
    return out


def _split_seed(seed: int) -> tuple[int, int]:
    """The two 32-bit key words of a master seed in [0, 2**64)."""
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed & 0xFFFFFFFF, seed >> 32


def trial_uniform_grid(
    seed: int, row: int, runs: np.ndarray, trial_start: int, n_trials: int
) -> np.ndarray:
    """Uniforms for a (run x trial) window; shape (len(runs), n_trials, 2).

    Column 0 drives the click decision, column 1 the branch selection.  The
    block for run r, trial t has counter (t, r, row, tag) and the seed as key.
    Counters are built one chunk at a time and the uniforms written straight
    into the result.
    """
    runs = np.asarray(runs, dtype=np.uint64)
    if trial_start < 0 or trial_start + n_trials > COUNTER_LIMIT:
        raise ValueError("trial indices must lie in [0, 2**32)")
    if runs.size and int(runs.max()) >= COUNTER_LIMIT:
        raise ValueError("run indices must lie in [0, 2**32)")
    keys = _round_keys(_split_seed(seed))
    trials = np.arange(trial_start, trial_start + n_trials, dtype=np.uint64)
    out = np.empty((runs.shape[0], n_trials, 2), dtype=np.float64)
    cols = max(1, min(n_trials, _CHUNK))  # trials per pass
    rows = _CHUNK // cols  # runs per pass
    buf = np.empty((6, rows * cols), dtype=np.uint64)
    for j in range(0, n_trials, cols):
        nt = min(cols, n_trials - j)
        for i in range(0, runs.shape[0], rows):
            nr = min(rows, runs.shape[0] - i)
            m = nr * nt
            c = buf[:4, :m]
            c[0].reshape(nr, nt)[:] = trials[j:j + nt]
            c[1].reshape(nr, nt)[:] = runs[i:i + nr, None]
            c[2] = row & 0xFFFFFFFF
            c[3] = _TRIAL_TAG
            _rounds(c, buf[4:, :m], keys)
            block = out[i:i + nr, j:j + nt]
            for col, (hi, lo) in enumerate(((c[0], c[1]), (c[2], c[3]))):
                hi <<= 32
                hi |= lo
                hi >>= 11
                np.multiply(hi.reshape(nr, nt), 2.0**-53, out=block[:, :, col])
    return out
