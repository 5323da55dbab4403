"""Small-dimension lattice basis reduction.

Plane (Lagrange-Gauss) reduction for two generators, and an exact greedy
size-reduction sweep for stacks of integer matrices.  Both return the
unimodular transform actually applied, so callers can carry it to shift labels.
"""

from __future__ import annotations

import numpy as np

_MAX_SWEEPS = 1000   # in practice a handful suffice


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


def greedy_reduce(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise size reduction of the columns of integer matrices, one or a
    stack (..., m, n), all at once.  A sweep orders each matrix's columns by
    norm and, for every ordered pair (i, j) of distinct columns in that
    order, subtracts rint(c_i.c_j / c_i.c_i) c_i from c_j; a matrix is done
    after a sweep that changes nothing.  An exact projection of +-1/2 rounds
    to 0, and every change lowers the integer sum of squared norms, so the
    sweeps end.  Returns (C U, U) in int64, with U unimodular.
    """
    C = np.asarray(C).astype(np.int64, casting='safe')
    m, n = C.shape[-2:]
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), C.shape[:-2] + (n, n))
    M = np.concatenate([C, eye], axis=-2).reshape(-1, m + n, n)     # C over U
    live, rows = np.arange(len(M)), np.arange(m + n)[:, None]   # matrices still changing
    while len(live):
        Q, k = M[live], np.arange(len(live))[:, None, None]
        order = np.argsort(np.einsum('kij,kij->kj', Q[:, :m], Q[:, :m]), axis=1)[:, None]
        P, moved = Q[k, rows, order], np.zeros(len(live), dtype=bool)  # columns in norm order
        for a in range(n):      # pivot a's pairs (a, b) leave column a alone: all at once
            p = (P[:, None, :m, a] @ P[:, :m])[:, 0]
            mu = np.rint(p / p[:, a:a + 1]).astype(np.int64)
            mu[:, a] = 0
            P -= mu[:, None, :] * P[:, :, a:a + 1]
            moved |= mu.any(axis=1)
        M[live[:, None, None], rows, order] = P
        live = live[moved]
    return M[:, :m].reshape(C.shape), M[:, m:].reshape(eye.shape)
