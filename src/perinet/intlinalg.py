"""Exact integer linear algebra for cycle-shift matrices.

Everything here except :func:`det_int_batch` runs on Python integers, so
there is no overflow to detect; results are exact for arbitrary entry
sizes.  ``det_int_batch`` vectorizes over many small matrices in int64.
"""

from math import gcd

import numpy as np


def _as_int_rows(mat) -> list[list[int]]:
    rows = [[int(x) for x in row] for row in np.asarray(mat).tolist()]
    return rows


def integer_rank(mat) -> int:
    """Rank over the rationals, via fraction-free (Bareiss) elimination."""
    a = _as_int_rows(mat)
    if not a or not a[0]:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def smith_invariant_factors(mat) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Diagonalizes by repeated pivoting on the smallest nonzero entry;
    intended for the small matrices arising from quotient-graph cycles.
    """
    a = _as_int_rows(mat)
    if not a or not a[0]:
        return ()
    rows, cols = len(a), len(a[0])
    diag = []
    s = 0
    while s < min(rows, cols):
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
        s += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return tuple(d for d in diag if d != 0)


def _det_int(rows) -> int:
    m = len(rows)
    if m == 1:
        return rows[0][0]
    if m == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
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

    Cofactor expansion along the first row, vectorized over the leading
    axes in int64; exact while the products fit, which they do by far for
    shift matrices with small entries.
    """
    a = np.asarray(mats, dtype=np.int64)
    m = a.shape[-1]
    if m == 1:
        return a[..., 0, 0]
    det = np.zeros(a.shape[:-2], dtype=np.int64)
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


def solve_unimodular(basis, target) -> tuple[int, ...]:
    """Solve ``basis^T x = target`` over the integers via Cramer's rule.

    ``basis`` holds n generator rows with determinant +-1, so the solution
    is integral; raises if the determinant is not a unit.
    """
    rows = _as_int_rows(basis)
    t = [int(x) for x in np.asarray(target).tolist()]
    n = len(rows)
    d = _det_int(rows)
    if abs(d) != 1:
        raise ValueError("generator rows are not a basis of Z^n (det != +-1)")
    coeffs = []
    for i in range(n):
        rep = [rows[j] if j != i else t for j in range(n)]
        coeffs.append(_det_int(rep) // d)
    return tuple(coeffs)
