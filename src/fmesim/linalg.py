"""Dense matrix exponential for small systems.

The matrix exponential uses scaling-and-squaring with the Pade order fixed
at 13, so results are deterministic across platforms (no adaptive order
selection).  Target accuracy is ~1e-12 relative for the well-conditioned
matrices that arise here (skew-Hermitian pair-chain generators).
"""

from __future__ import annotations

import numpy as np

# Pade-13 numerator coefficients for exp(x), b[0] + b[1] x + ... + b[13] x^13.
_B13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)

# Largest 1-norm for which the order-13 approximant meets double precision.
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square complex matrix (fixed Pade-13 scaling/squaring)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise FloatingPointError("non-finite entries in matrix exponential input")
    n = a.shape[0]
    norm1 = float(np.max(np.sum(np.abs(a), axis=0))) if n else 0.0
    squarings = max(0, int(np.ceil(np.log2(norm1 / _THETA13))) if norm1 > _THETA13 else 0)
    a = a / (2.0**squarings)

    ident = np.eye(n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (_B13[13] * a6 + _B13[11] * a4 + _B13[9] * a2)
        + _B13[7] * a6
        + _B13[5] * a4
        + _B13[3] * a2
        + _B13[1] * ident
    )
    v = (
        a6 @ (_B13[12] * a6 + _B13[10] * a4 + _B13[8] * a2)
        + _B13[6] * a6
        + _B13[4] * a4
        + _B13[2] * a2
        + _B13[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r

