"""Naive reference implementations used to validate the optimized paths.

Nothing here shares code with the main arithmetic: dense boxes instead of
sparse dicts, exhaustive root enumeration in one absolute extension field
instead of eigenspaces of the Frobenius-fixed subalgebra, full enumeration
instead of nullspace solving.  All entry points carry hard size caps; these
are test instruments, not tools.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np

from . import gfp
from .fields import PrimeField, factor_squarefree, find_irreducible


class OracleCapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# dense polynomial boxes over F_p


class DensePolynomial:
    """Coefficients over F_p on a full exponent box [0, shape_i)."""

    def __init__(self, p, coeffs):
        self.p = p
        self.coeffs = np.array(coeffs, dtype=np.int64) % p

    @classmethod
    def zero(cls, p, shape):
        return cls(p, np.zeros(shape, dtype=np.int64))

    @classmethod
    def from_terms(cls, p, shape, terms):
        a = np.zeros(shape, dtype=np.int64)
        for exps, c in terms.items():
            a[tuple(exps)] = c % p
        return cls(p, a)

    def __eq__(self, other):
        return (
            self.p == other.p
            and self.coeffs.shape == other.coeffs.shape
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def terms(self):
        out = {}
        for idx in np.ndindex(self.coeffs.shape):
            if self.coeffs[idx]:
                out[idx] = int(self.coeffs[idx])
        return out


def dense_mul(a: DensePolynomial, b: DensePolynomial) -> DensePolynomial:
    if a.p != b.p or a.coeffs.shape != b.coeffs.shape:
        raise ValueError("window bounds incompatible")
    shape = a.coeffs.shape
    out = np.zeros(shape, dtype=np.int64)
    for ia in np.ndindex(shape):
        ca = a.coeffs[ia]
        if not ca:
            continue
        for ib in np.ndindex(shape):
            cb = b.coeffs[ib]
            if not cb:
                continue
            tgt = tuple(x + y for x, y in zip(ia, ib))
            if all(t < s for t, s in zip(tgt, shape)):
                out[tgt] = (out[tgt] + ca * cb) % a.p
    return DensePolynomial(a.p, out)


def dense_substitute(a: DensePolynomial, images) -> DensePolynomial:
    """Substitute variable i -> images[i] (each a DensePolynomial)."""
    shape = a.coeffs.shape
    p = a.p
    out = DensePolynomial.zero(p, shape)
    one = DensePolynomial.from_terms(p, shape, {(0,) * len(shape): 1})
    for idx in np.ndindex(shape):
        c = a.coeffs[idx]
        if not c:
            continue
        term = DensePolynomial(p, one.coeffs * c)
        for i, e in enumerate(idx):
            for _ in range(e):
                term = dense_mul(term, images[i])
        out = DensePolynomial(p, out.coeffs + term.coeffs)
    return out


# ---------------------------------------------------------------------------
# tensor-product splitting by root enumeration in one absolute field

ENUMERATION_CAP = 2**16  # candidate roots per irreducible factor (p^n)
ROOT_FIELD_CAP = 256  # degree L of the field holding every root


class _Field:
    """GF(p)[z]/(G) for a monic irreducible G of degree L, on batches of rows.

    Elements are int64 rows of length L (coefficients of 1, z, ..., z^{L-1});
    ``mul`` multiplies two stacks of elements row by row.
    """

    def __init__(self, p, G):
        L = len(G) - 1
        self.p = p
        self.L = L
        # red[k] = z^(L+k) mod G
        red = np.zeros((L - 1, L), dtype=np.int64)
        cur = np.array([(-c) % p for c in G[:-1]], dtype=np.int64)
        for k in range(L - 1):
            red[k] = cur
            cur = (np.concatenate(([0], cur[:-1])) + cur[-1] * red[0]) % p
        self.red = red
        # frob[:, k] = z^(p k), so x^p = frob @ x  (z^p is unused when L = 1)
        zp = self.pow(np.eye(1, L, 1, dtype=np.int64), p)
        cols = [self.one()]
        for _ in range(L - 1):
            cols.append(self.mul(cols[-1], zp))
        self.frob = np.concatenate(cols, axis=0).T
        self._subfields = {}

    def one(self, rows=1):
        x = np.zeros((rows, self.L), dtype=np.int64)
        x[:, 0] = 1
        return x

    def mul(self, X, Y):
        L, p = self.L, self.p
        full = np.zeros((X.shape[0], 2 * L - 1), dtype=np.int64)
        for i in range(L):
            full[:, i : i + L] += X[:, i : i + 1] * Y
        full %= p
        return (full[:, :L] + full[:, L:] @ self.red) % p

    def pow(self, X, e):
        out = self.one(len(X))
        while e:
            if e & 1:
                out = self.mul(out, X)
            X = self.mul(X, X)
            e >>= 1
        return out

    def subfield(self, n):
        """GF(p^n) = ker(Frob^n - 1) as ``(W, K)``.

        ``K`` is GF(p)[t]/(h) with h the minimal polynomial of a generator w
        of the kernel, and the rows of ``W`` are 1, w, ..., w^(n-1), so
        ``x @ W`` maps an element of K into this field.
        """
        if n not in self._subfields:
            p, L = self.p, self.L
            Fn = np.eye(L, dtype=np.int64)
            for _ in range(n):
                Fn = (self.frob @ Fn) % p
            basis = gfp.nullspace((Fn - np.eye(L, dtype=np.int64)) % p, p)
            if len(basis) != n:
                raise AssertionError("fixed field of Frob^n has the wrong degree")
            rng = random.Random(n)
            while True:
                w = (np.array([[rng.randrange(p) for _ in range(n)]]) @ basis) % p
                W = [self.one()]
                for _ in range(n):
                    W.append(self.mul(W[-1], w))
                W = np.concatenate(W, axis=0)
                if gfp.rank(W[:n], p) == n:
                    break
            h = gfp.solve(W[:n].T, (-W[n]) % p, p)
            self._subfields[n] = (W[:n], _Field(p, tuple(int(c) for c in h) + (1,)))
        return self._subfields[n]

    def roots(self, g):
        """The n distinct roots of a monic irreducible g of degree n.

        g is evaluated at all p^n elements of the subfield GF(p^n), in that
        subfield's own coordinates, and the zeros are mapped into this field.
        """
        n = len(g) - 1
        W, K = self.subfield(n)
        X = np.array(list(itertools.product(range(self.p), repeat=n)), dtype=np.int64)
        acc = K.one(len(X)) * g[-1]
        for c in reversed(g[:-1]):
            acc = K.mul(acc, X)
            acc[:, 0] = (acc[:, 0] + c) % self.p
        hits = X[~acc.any(axis=1)]
        if len(hits) != n:
            raise AssertionError(f"{len(hits)} roots found for a degree-{n} factor")
        return (hits @ W) % self.p


def _prime_powers(L):
    out, q = [], 2
    while L > 1:
        if L % q == 0:
            qa = 1
            while L % q == 0:
                L //= q
                qa *= q
            out.append(qa)
        q += 1
    return out


@functools.lru_cache(maxsize=None)
def _absolute_field(p, L):
    """GF(p^L) as GF(p)[z]/(G).

    GF(p^L) is the tensor product of the fields GF(p^(q^a)) over the prime
    powers q^a exactly dividing L, and the sum z of their generators lies in
    no proper subfield; G is its minimal polynomial, read off the Krylov
    sequence 1, z, ..., z^L.  Only irreducibles of degree q^a are searched
    for, never one of degree L.
    """
    Fp = PrimeField(p)
    Z = np.zeros((1, 1), dtype=np.int64)  # multiplication by z
    for qa in _prime_powers(L):
        # fixed seeds, unrelated to the one behind the library's default moduli
        f = find_irreducible(Fp, qa, random.Random(7919 * p + qa))
        C = np.zeros((qa, qa), dtype=np.int64)  # multiplication by y
        C[1:, :-1] = np.eye(qa - 1, dtype=np.int64)
        C[:, -1] = [(-c) % p for c in f[:-1]]
        Z = np.kron(Z, np.eye(qa, dtype=np.int64)) + np.kron(
            np.eye(len(Z), dtype=np.int64), C
        )
    V = np.zeros((L + 1, L), dtype=np.int64)
    V[0, 0] = 1
    for k in range(L):
        V[k + 1] = (Z @ V[k]) % p
    if gfp.rank(V[:L], p) != L:
        raise AssertionError("z does not generate GF(p^L)")
    G = gfp.solve(V[:L].T, (-V[L]) % p, p)
    return _Field(p, tuple(int(c) for c in G) + (1,))


def crt_split(p, moduli):
    """Split GF(p)[y_1..y_s]/(m_i(y_i)) into field components.

    Every root of every modulus is found inside one absolute field
    A = GF(p)[z]/(G), with deg G the lcm L of the degrees of the
    GF(p)-irreducible factors: the roots of a factor of degree n are the zeros
    among all p^n elements of the subfield ker(Frob^n - 1).  The algebra maps
    to A exactly by the tuples of roots, and its components are the Frobenius
    orbits on those tuples, each of degree its orbit length; the partial
    Frobenius of factor a permutes them through the a-th root of each tuple
    (``frobenius_permutations[a][j]`` is the index of sigma_a(e_j)).  The
    primitive idempotents are expressed in the monomial basis by solving the
    stacked evaluation system at one tuple per orbit.  Completely independent
    of the structure-tensor path.

    Caps: at most 256 basis monomials, at most 2^16 candidate roots per
    irreducible factor, and L at most 256 (the L x L matrices of A and the
    evaluation system grow as L^2 and L^3; under the other two caps an lcm
    can reach 720720).
    """
    degrees = [len(m) - 1 for m in moduli]
    N = 1
    for d in degrees:
        N *= d
    if N > 256:
        raise OracleCapError("degree cap exceeded")
    Fp = PrimeField(p)
    factors = [factor_squarefree(Fp, tuple(int(c) % p for c in m)) for m in moduli]
    fdegs = {len(f) - 1 for fs in factors for f in fs}
    if any(p**n > ENUMERATION_CAP for n in fdegs):
        raise OracleCapError("root enumeration cap exceeded")
    L = math.lcm(*fdegs)
    if L > ROOT_FIELD_CAP:
        raise OracleCapError("root field cap exceeded")
    A = _absolute_field(p, L)
    roots = [np.concatenate([A.roots(f) for f in fs], axis=0) for fs in factors]
    # Frobenius as a permutation of the roots of each modulus
    perms = []
    for rts in roots:
        index = {tuple(r): j for j, r in enumerate(rts)}
        perms.append([index[tuple(r)] for r in (rts @ A.frob.T) % p])
    # components: Frobenius orbits on root tuples, one representative each;
    # root-index tuples range over the same box as the monomial exponents
    basis = list(itertools.product(*(range(d) for d in degrees)))
    reps, comp_degrees, comp_of = [], [], {}
    for t in basis:
        if t in comp_of:
            continue
        orbit = [t]
        nxt = tuple(perm[j] for perm, j in zip(perms, t))
        while nxt != t:
            orbit.append(nxt)
            nxt = tuple(perm[j] for perm, j in zip(perms, nxt))
        comp_of.update((u, len(reps)) for u in orbit)
        reps.append(t)
        comp_degrees.append(len(orbit))
    # evaluation system: monomial basis -> stacked prime coordinates in A
    blocks = []
    for t in reps:
        vals = A.one()
        for rts, j, d in zip(roots, t, degrees):
            powers = [A.one()]
            for _ in range(d - 1):
                powers.append(A.mul(powers[-1], rts[j : j + 1]))
            powers = np.concatenate(powers, axis=0)
            vals = A.mul(np.repeat(vals, d, axis=0), np.tile(powers, (len(vals), 1)))
        blocks.append(vals.T)
    E = np.concatenate(blocks, axis=0)
    targets = np.zeros((E.shape[0], len(reps)), dtype=np.int64)
    for j in range(len(reps)):
        targets[j * L, j] = 1
    red, pivots = gfp.rref(np.concatenate([E, targets], axis=1), p)
    if pivots != list(range(N)):
        raise AssertionError("evaluation matrix singular; components not coprime")
    idems = [red[:N, N + j] for j in range(len(reps))]
    order = sorted(range(len(reps)), key=lambda j: tuple(int(c) for c in idems[j]))
    position = {j: k for k, j in enumerate(order)}
    # sigma_a(x)(t) = x(t with its a-th root raised to the p-th power), so
    # when raising maps orbit k into orbit j, sigma_a(e_j) = e_k
    frob_perms = []
    for a in range(len(moduli)):
        perm = [0] * len(reps)
        for k, j in enumerate(order):
            t = reps[j]
            perm[position[comp_of[t[:a] + (perms[a][t[a]],) + t[a + 1 :]]]] = k
        frob_perms.append(tuple(perm))
    return {
        "component_degrees": tuple(comp_degrees[j] for j in order),
        "idempotents": [idems[j] for j in order],
        "frobenius_permutations": tuple(frob_perms),
        "basis": basis,
    }


# ---------------------------------------------------------------------------
# exhaustive searches


def exhaustive_fixed_points(p, dim, operators):
    """All vectors v in F_p^dim with op(v) = v for every operator.

    Operators are arbitrary callables on numpy vectors (they need not be
    linear).  Hard cap: p^dim <= 2^20.
    """
    if p**dim > 2**20:
        raise OracleCapError("dimension too large for enumeration")
    fixed = []
    for combo in itertools.product(range(p), repeat=dim):
        v = np.array(combo, dtype=np.int64)
        if all(np.array_equal(np.asarray(op(v)) % p, v) for op in operators):
            fixed.append(v)
    return fixed


def exhaustive_inverse_search(a, window):
    """Solve a.x = 1 coefficientwise on the exponent box [0, window]^Delta.

    ``a`` is a LaurentElement with no poles.  Nonexistence of a solution on
    the box certifies that ``a`` is not a unit of the truncated ring.
    Returns ``(exists, x_or_None)``.
    """
    ring = a.ring
    alg = ring.coeffs
    p = alg.p
    nv = ring.nvars
    exps = list(itertools.product(range(window + 1), repeat=nv))
    pos = {e: i for i, e in enumerate(exps)}
    dim = len(exps) * alg.N
    if dim > 4096:
        raise OracleCapError("dimension too large")
    M = np.zeros((dim, dim), dtype=np.int64)
    for ea, ca in a.support.items():
        if min(ea) < 0:
            raise ValueError("pole-free elements only")
        amat = alg.fd_mul_matrix(ca.constant_fd())
        for ex in exps:
            tgt = tuple(x + y for x, y in zip(ea, ex))
            if tgt in pos:
                i, j = pos[tgt], pos[ex]
                M[i * alg.N : (i + 1) * alg.N, j * alg.N : (j + 1) * alg.N] += amat
    rhs = np.zeros(dim, dtype=np.int64)
    rhs[: alg.N] = alg.fd_one()
    sol = gfp.solve(M % p, rhs, p)
    if sol is None:
        return False, None
    out = ring.zero()
    for ex in exps:
        i = pos[ex]
        vec = sol[i * alg.N : (i + 1) * alg.N]
        if not alg.fd_is_zero(vec):
            out = out + ring.monomial(ex, alg.from_fdelta(vec))
    return True, out
