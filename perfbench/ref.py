"""Reference arithmetic the checkers use instead of the library's own.

Nothing here calls phigamma.  The finite part F = GF(p)[y_1..y_s]/(f_1..f_s)
is stored as a flat tuple in the library's basis order (monomials
y_1^i_1 ... y_s^i_s, first factor most significant); products are computed
by convolving in an s-dimensional array and reducing each axis by its own
modulus.  Series are dicts {(x exponents, t exponents): F tuple}.
"""

from __future__ import annotations

import math
import random

import numpy as np


# ---------------------------------------------------------------------------
# univariate polynomials over GF(p), lists low-to-high (pure Python)


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _polymod(f, m, p):
    f = [c % p for c in f]
    n = len(m) - 1
    inv = pow(m[-1], p - 2, p)
    for k in range(len(f) - 1, n - 1, -1):
        c = f[k] * inv % p
        if c:
            for j in range(n + 1):
                f[k - n + j] = (f[k - n + j] - c * m[j]) % p
    return _trim(f[:n])


def _polymulmod(f, g, m, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _polymod(out, m, p)


def _polygcd(f, g, p):
    f, g = _trim([c % p for c in f]), _trim([c % p for c in g])
    while g:
        f, g = g, _polymod(f, g, p)
    return f


def is_irreducible(f, p):
    """Ben-Or: f (monic, degree n) is irreducible iff
    gcd(x^(p^i) - x, f) = 1 for every i <= n/2."""
    n = len(f) - 1
    xp = [0, 1]
    for _ in range(n // 2):
        acc, base, e = [1], xp, p
        while e:
            if e & 1:
                acc = _polymulmod(acc, base, f, p)
            base = _polymulmod(base, base, f, p)
            e >>= 1
        xp = acc
        diff = list(xp) + [0] * max(0, 2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(_polygcd(f, _trim(diff), p)) > 1:
            return False
    return True


def random_irreducible(p, n, rng: random.Random):
    """A uniformly drawn monic irreducible polynomial of degree n."""
    if n == 1:
        return [rng.randrange(p), 1]
    while True:
        f = [rng.randrange(p) for _ in range(n)] + [1]
        if f[0] and is_irreducible(f, p):
            return f


# ---------------------------------------------------------------------------
# the finite part


class FinitePart:
    def __init__(self, p, moduli):
        self.p = p
        self.moduli = [list(m) for m in moduli]
        self.degrees = tuple(len(m) - 1 for m in moduli)
        self.N = math.prod(self.degrees)
        # red[a]: (n_a x (2 n_a - 1)) matrix sending y^e to y^e mod f_a
        self.red = [self._power_matrix(a, 2 * n - 1, 1) for a, n in enumerate(self.degrees)]
        # frob[a]: (n_a x n_a) matrix sending y^e to y^(p e) mod f_a
        self.frob_mats = [self._power_matrix(a, n, p) for a, n in enumerate(self.degrees)]

    def _power_matrix(self, a, count, step):
        m, n, p = self.moduli[a], self.degrees[a], self.p
        M = np.zeros((n, count), dtype=np.int64)
        for e in range(count):
            col = _polymod([0] * (e * step) + [1], m, p)
            M[: len(col), e] = col
        return M

    def _arr(self, x):
        return np.asarray(x, dtype=np.int64).reshape(self.degrees)

    def _reduce_axes(self, A, mats):
        for a, M in enumerate(mats):
            A = np.moveaxis(np.tensordot(M, A, axes=([1], [a])), 0, a)
        return A % self.p

    def mul(self, x, y):
        X, Y = self._arr(x), self._arr(y)
        C = np.zeros(tuple(2 * n - 1 for n in self.degrees), dtype=np.int64)
        for idx in zip(*np.nonzero(X)):
            sl = tuple(slice(i, i + n) for i, n in zip(idx, self.degrees))
            C[sl] += X[idx] * Y
        return tuple(int(c) for c in self._reduce_axes(C, self.red).reshape(-1))

    def frob(self, x, axis):
        """The partial Frobenius y_axis -> y_axis^p."""
        mats = [
            self.frob_mats[a] if a == axis else np.eye(n, dtype=np.int64)
            for a, n in enumerate(self.degrees)
        ]
        return tuple(int(c) for c in self._reduce_axes(self._arr(x), mats).reshape(-1))

    def one(self):
        return (1,) + (0,) * (self.N - 1)

    def zero(self):
        return (0,) * self.N

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def scale(self, x, k):
        return tuple(a * k % self.p for a in x)


# ---------------------------------------------------------------------------
# truncated series {(xexps, tmono): F tuple}


def in_window(xexps, window):
    return all(e <= w for e, w in zip(xexps, window))


def series_mul(F, a, b, window):
    out = {}
    zero = F.zero()
    for (xa, ta), ca in a.items():
        for (xb, tb), cb in b.items():
            x = tuple(i + j for i, j in zip(xa, xb))
            if not in_window(x, window):
                continue
            key = (x, tuple(i + j for i, j in zip(ta, tb)))
            out[key] = F.add(out.get(key, zero), F.mul(ca, cb))
    return {k: v for k, v in out.items() if any(v)}


def truncate(a, window):
    return {k: v for k, v in a.items() if in_window(k[0], window)}


def gamma_digits(p, W):
    """The p-adic digits a gamma parameter needs on window W, plus two."""
    M = 1
    while p**M <= W:
        M += 1
    return M + 2


def univariate_mul(p, f, g, cap):
    """Product of {exponent: coeff} polynomials, truncated at X^cap."""
    out = {}
    for i, a in f.items():
        for j, b in g.items():
            if i + j <= cap:
                out[i + j] = (out.get(i + j, 0) + a * b) % p
    return {e: c for e, c in out.items() if c}


def univariate_compose(p, outer, inner, cap):
    """outer(inner(X)) truncated at X^cap; both are {exponent: coeff} with
    inner of valuation >= 1 (so the result is finite on the window)."""
    result, power = {}, {0: 1}
    for k in range(cap + 1):
        if k:
            power = univariate_mul(p, power, inner, cap)
        if not power:
            break
        ck = outer.get(k, 0) % p
        for e, c in power.items():
            result[e] = (result.get(e, 0) + ck * c) % p
    return {e: c for e, c in result.items() if c}


def poly_mul_multi(p, a, b, caps):
    """Product of {exps tuple: int} polynomials, truncated per variable."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= c for x, c in zip(e, caps)):
                out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}
