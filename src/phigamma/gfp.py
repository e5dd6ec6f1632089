"""Dense linear algebra over the prime field GF(p).

Everything works on numpy int64 arrays whose entries are reduced mod p.
Row-reduction is plain Gauss-Jordan; sizes in this package stay well below
a few thousand, so no effort is spent on bit packing.
"""

from __future__ import annotations

import numpy as np


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def rref(A, p):
    """Reduced row echelon form of ``A`` mod p.

    Returns ``(R, pivots)`` where ``pivots`` lists the pivot column of each
    nonzero row of ``R``.
    """
    R = np.array(A, dtype=np.int64) % p
    if R.ndim != 2:
        raise ValueError("matrix expected")
    rows, cols = R.shape
    pivots = []
    r = c = 0
    while r < rows and c < cols:
        if not R[r, c]:
            # the first nonzero entry of the rows left, column by column: it
            # gives the pivot column and row at once (R is reduced)
            nonzero = np.flatnonzero(R[r:, c:].T)
            if not len(nonzero):
                break
            dc, dr = divmod(int(nonzero[0]), rows - r)
            c += dc
            if dr:
                R[[r, r + dr]] = R[[r + dr, r]]
        R[r] = (R[r] * _inv_mod(R[r, c], p)) % p
        mask = R[:, c].copy()
        mask[r] = 0
        R = (R - np.outer(mask, R[r])) % p
        pivots.append(c)
        r += 1
        c += 1
    return R, pivots


def nullspace(A, p):
    """Basis (as rows) of the right nullspace of ``A`` mod p."""
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % p
    rows, cols = A.shape
    R, pivots = rref(A, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R[i, fc]) % p
    return basis


def solve(A, b, p):
    """One solution of ``A x = b`` mod p, or None if inconsistent."""
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % p
    b = np.array(b, dtype=np.int64) % p
    rows, cols = A.shape
    aug = np.concatenate([A, b.reshape(rows, 1)], axis=1)
    R, pivots = rref(aug, p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = R[i, cols]
    return x


def inv_matrix(A, p):
    """Inverse of a square matrix mod p, or None if singular."""
    A = np.array(A, dtype=np.int64) % p
    n = A.shape[0]
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref(aug, p)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return R[:, n:]


def rank(A, p):
    _, pivots = rref(A, p)
    return len(pivots)
