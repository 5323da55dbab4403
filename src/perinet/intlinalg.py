"""Exact integer linear algebra for cycle-shift matrices.

Smith form and ``det_int`` run on Python integers, so there is no
overflow to detect; results are exact for arbitrary entry sizes.
``det_int_batch`` vectorizes over many small matrices in a fixed-width
integer type with the same closed forms (``_det_int``), which serve
integers only.  ``int_solve`` solves in floats, rounds, and checks the
rounded solution exactly.  ``greedy_reduce`` size-reduces stacks of
integer matrices in int64 and returns the unimodular transform applied.
"""

from math import gcd

import numpy as np


def _as_int_rows(mat) -> list[list[int]]:
    a = np.asarray(mat)     # an integer array's entries come out as Python ints
    return a.tolist() if a.dtype.kind in "iu" else [[int(x) for x in row] for row in a.tolist()]


def smith_invariant_factors(mat) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Their count is the rank.  Diagonalizes by repeated pivoting on the
    smallest nonzero entry: exact, and polynomial in the matrix size, so
    it decides lattice generation for networks that come from outside the
    program (``validate``), where a bouquet read from a file may have many
    cycles.  Their product divides every maximal minor, so an r x n matrix
    with r <= n + 1 and one of its at most n + 1 minors +-1 has all factors
    1 at once (the screen of ``topology._rows_generate_zn``).
    """
    a = _as_int_rows(mat)
    if not a or not a[0]:
        return ()
    rows, cols = len(a), len(a[0])
    minors = [a[:i] + a[i + 1:] for i in range(rows)] if rows == cols + 1 else [a] * (rows == cols)
    if any(abs(_det_int(m)) == 1 for m in minors):
        return (1,) * cols
    diag = []
    for s in range(min(rows, cols)):
        piv = None
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                v = abs(a[i][j])
                if v != 0 and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[s], a[i0] = a[i0], a[s]
        for row in a:
            row[s], row[j0] = row[j0], row[s]
        # clear row and column s; restart if a remainder creates a smaller pivot
        while True:
            p = a[s][s]
            dirty = False
            for i in range(s + 1, rows):
                q = a[i][s] // p
                if q:
                    for j in range(s, cols):
                        a[i][j] -= q * a[s][j]
                if a[i][s] != 0:
                    a[s], a[i] = a[i], a[s]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(s + 1, cols):
                q = a[s][j] // p
                if q:
                    for i in range(s, rows):
                        a[i][j] -= q * a[i][s]
                if a[s][j] != 0:
                    for row in a:
                        row[s], row[j] = row[j], row[s]
                    dirty = True
                    break
            if not dirty:
                break
        diag.append(abs(a[s][s]))
    # enforce the divisibility chain: once entry i has met every later one
    # by gcd and lcm, it divides them all, and their multiples stay so
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(d for d in diag if d != 0)


def _det_int(rows) -> int:
    m = len(rows)
    if m == 1:
        return rows[0][0]
    if m == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if m == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    det = 0
    for j in range(m):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        det += (-1) ** j * rows[0][j] * _det_int(minor)
    return det


def det_int_batch(mats) -> np.ndarray:
    """Exact determinants of a stack of small square integer matrices.

    The closed forms of :func:`_det_int` up to 3 x 3, cofactor expansion
    along the first row above, vectorized over the leading axes in the
    integer type of ``mats``; exact while the products fit, which they do
    by far in int64 for shift matrices with small entries.
    """
    a = np.asarray(mats)
    m = a.shape[-1]
    if 0 < m <= 3:
        # entry (i, j) of every stacked matrix at once, as rows[i][j]
        return _det_int(np.moveaxis(a, (-2, -1), (0, 1)))
    det = np.zeros(a.shape[:-2], dtype=a.dtype)
    for j in range(m):
        minor = np.delete(a[..., 1:, :], j, axis=-1)
        det += (-1) ** j * a[..., 0, j] * det_int_batch(minor)
    return det


def det_int(mat) -> int:
    """Exact determinant of a square integer matrix."""
    rows = _as_int_rows(mat)
    if len(rows) != len(rows[0]):
        raise ValueError("determinant requires a square matrix")
    return _det_int(rows)


def int_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integer solution x of A x = b, for A of full column rank, or of
    each of a stack of square A; raises unless it exists.  With b = I it is
    the inverse of a unimodular A.  A square A is solved by LU, a tall one
    by least squares."""
    if A.shape[-1] == A.shape[-2]:
        x = np.linalg.solve(A, b)
    else:
        x = np.linalg.lstsq(A, b, rcond=None)[0]
    x = np.rint(x).astype(np.int64)
    if not (A @ x == b).all():
        raise RuntimeError("integer solve failed: no integer solution")
    return x


def greedy_reduce(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise size reduction of the columns of integer matrices, one or a
    stack (..., m, n), all at once.  A sweep orders each matrix's columns by
    norm and, for every ordered pair (i, j) of distinct columns in that
    order, subtracts rint(c_i.c_j / c_i.c_i) c_i from c_j; a matrix is done
    when no such projection in its Gram matrix rounds off 0, as a sweep then
    changes nothing.  An exact projection of +-1/2 rounds to 0, and every
    change lowers the integer sum of squared norms, so the sweeps end.
    Returns (C U, U) in int64, with U unimodular.
    """
    C = np.asarray(C).astype(np.int64, casting='safe')
    m, n = C.shape[-2:]
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), C.shape[:-2] + (n, n))
    M = np.concatenate([C, eye], axis=-2).reshape(-1, m + n, n)     # C over U
    live, rows, d = np.arange(len(M)), np.arange(m + n)[:, None], np.arange(n)
    while True:
        Q = M[live, :m]
        G = Q.transpose(0, 2, 1) @ Q                # c_i . c_j
        moving = (np.rint(G / G[:, d, d, None]) != np.eye(n)).any(axis=(1, 2))
        if not moving.any():        # a sweep would change none of them
            return M[:, :m].reshape(C.shape), M[:, m:].reshape(eye.shape)
        live, G = live[moving], G[moving]
        order = np.argsort(G[:, d, d], axis=1)[:, None]
        P = M[live[:, None, None], rows, order]     # columns in norm order
        for a in range(n):      # pivot a's pairs (a, b) leave column a alone: all at once
            p = (P[:, None, :m, a] @ P[:, :m])[:, 0]
            mu = np.rint(p / p[:, a:a + 1]).astype(np.int64)
            mu[:, a] = 0
            P -= mu[:, None, :] * P[:, :, a:a + 1]
        M[live[:, None, None], rows, order] = P
