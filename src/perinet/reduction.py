"""Small-dimension lattice basis reduction.

Plane (Lagrange-Gauss) reduction for two generators, and a greedy
size-reduction sweep for full bases.  Both return the unimodular
transform actually applied, so callers can carry it to shift labels.
"""

from __future__ import annotations

import numpy as np

_MAX_SWEEPS = 1000   # in practice a handful suffice
_TIE_TOL = 1e-9      # a projection this close to 1/2 counts as size-reduced


def lagrange_reduce_pair(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange-Gauss reduce the first two basis columns within their plane.

    Returns (new_basis, U) with new_basis = basis @ U, U unimodular acting
    on columns 0 and 1 only.  The reduced pair satisfies
    |g1| <= |g2| <= |g2 +- g1| and encloses an angle in [60, 90] degrees.
    """
    B = np.array(basis, dtype=np.float64)
    n = B.shape[0]
    U = np.eye(n, dtype=np.int64)
    for _ in range(_MAX_SWEEPS):
        if np.dot(B[:, 0], B[:, 0]) > np.dot(B[:, 1], B[:, 1]):
            B[:, [0, 1]] = B[:, [1, 0]]
            U[:, [0, 1]] = U[:, [1, 0]]
        mu = round(float(np.dot(B[:, 0], B[:, 1]) / np.dot(B[:, 0], B[:, 0])))
        if mu == 0:
            break
        B[:, 1] -= mu * B[:, 0]
        U[:, 1] -= mu * U[:, 0]
    else:
        raise RuntimeError("plane reduction did not terminate")
    if np.dot(B[:, 0], B[:, 1]) < 0:
        B[:, 1] = -B[:, 1]
        U[:, 1] = -U[:, 1]
    return B, U


def greedy_reduce(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise size-reduction sweep over all basis columns.

    Repeatedly subtracts rounded projections of longer columns onto
    shorter ones; adequate for the reduced frame of a cycle-shift matrix.
    A projection within ``_TIE_TOL`` of +-1/2 is left alone: in a
    symmetric lattice, columns of equal length would otherwise trade a
    rounding-level 1/2 back and forth forever.  Returns (new_basis, U)
    with new_basis = basis @ U.
    """
    B = np.array(basis, dtype=np.float64)
    n = B.shape[1]
    U = np.eye(n, dtype=np.int64)
    for _ in range(_MAX_SWEEPS):
        changed = False
        order = np.argsort(np.einsum('ij,ij->j', B, B))
        for a in range(n):
            for b in range(n):
                i, j = int(order[a]), int(order[b])
                if i == j:
                    continue
                proj = float(np.dot(B[:, i], B[:, j]) / np.dot(B[:, i], B[:, i]))
                if abs(proj) > 0.5 + _TIE_TOL:
                    mu = round(proj)
                    B[:, j] -= mu * B[:, i]
                    U[:, j] -= mu * U[:, i]
                    changed = True
        if not changed:
            return B, U
    raise RuntimeError("greedy reduction did not terminate")
