"""Exact arithmetic in tensor products of imperfect residue fields.

The coefficient ring is a tensor product, over GF(p), of fields
``k = GF(p^n)(t_1, ..., t_d)``: a finite field times a purely transcendental
part.  The finite parts multiply out to an etale algebra ``F`` that splits
into field components via primitive idempotents; the transcendental parts
contribute polynomial numerators and per-factor denominators.

Elements of the finite part ``F`` are int64 numpy vectors over the monomial
basis of GF(p)[y_1,...,y_s] / (moduli).  Every vector the library stores is
reduced into [0, p), so a vector is zero exactly when it has no nonzero
entry, and products need no input reduction.  An algebra keeps two tables
per factor and nothing tensored: the n x n x n product table (entry
[a, b, k] is the coefficient of y^k in y^a * y^b) and the n x n Frobenius
matrix.  The series kernels multiply through the structure tensor of ``F``
as one N x N^2 integer map, built from the factor tables the first time a
kernel reads it: left multiplication by x is the N x N matrix
``x @ map mod p``.  The N x N Frobenius matrices are likewise built on
first use.  Every sum of products is exact in int64, since
N * (p-1)^2 < 2^53 is required; there is no floating point.

Products of several terms at once go through one kernel,
``CoefficientAlgebra.mul_rows``: each operand is a list of rows (an integer
key, such as a t-monomial or a series exponent followed by one, and a
vector), all pair products come from one matmul with the map for the rows
of one operand and one batched matmul with the rows of the other, and the
products are summed per summed key.  ``combine_rows`` is the linear
combination form that substitution uses: each row of one list multiplies
its own block of rows of the other, through the same left-multiplication
maps and the same grouping.  A single row takes the shortcut instead,
``CoefficientAlgebra.row_times``: one row v0 t^m0 times any number of
numerators is a shift of their t-monomials by m0 and one matmul of their
stacked vectors with v0's left-multiplication matrix, with no key arrays
and no grouping (the shifted keys stay distinct).  Numerator products with
a one-term side, series products with a one-row operand and substitution
with one row all take it.  Keys are int64 and every stored exponent lies
in [-2^62, 2^62], so a sum of two cannot wrap unnoticed; ``key_rows`` reads
a kernel's keys and ``check_keys`` the shortcut's, and both refuse any past
that bound.

The factor tables come from y^k mod the modulus for k <= 2n - 2, and each
Frobenius from y^p by square-and-multiply, so their cost grows with log p,
not p.  The split of ``F`` reads only those tables.  It happens in the
Frobenius-fixed subalgebra ``A = F^{Frob_s}``, which is GF(p)^ell for ell
components and contains every idempotent.  A is the image of the trace
sum_{k<L} Frob_s^k, L the lcm of the factor degrees, summed factor by
factor with the Kronecker products grouped by the Chinese remainder
theorem (``frob_trace``); its products come from contracting A's basis
with the factor tables one axis at a time.  Cantor-Zassenhaus inside A,
with random elements raised to the power (p - 1)/2, refines 1 into the
primitive idempotents through products of ell-vectors, and each partial
Frobenius permutes them along its own factor axis.  The partial Frobenii
permute the components in one orbit, so every component has the same
degree, N/ell.  ``MAX_FINITE_DIM`` bounds N.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import gfp
from .fields import find_irreducible, is_irreducible, is_prime, power

DEFAULT_LABELS = "abcdefgh"


class NotInvertibleError(ArithmeticError):
    pass


class UndecidedError(ArithmeticError):
    """Raised when a verdict cannot be certified at the given presentation."""


# Exponents (series and t-monomial keys) are int64 in the product kernels.
# Every stored exponent e has |e| <= EXP_BOUND, so a sum of two cannot leave
# int64 unnoticed: the one sum that wraps, 2^63, reads -2^63, and
# ``key_rows``, which reads every kernel result, refuses keys past the bound.
EXP_BOUND = 2**62
EXP_BOUND_TEXT = "exponents must lie in [-2^62, 2^62]"


def check_exponent(e):
    if not -EXP_BOUND <= e <= EXP_BOUND:
        raise ValueError(f"exponent {e} out of range: {EXP_BOUND_TEXT}")


def check_keys(rows):
    """Refuse a list of exponent rows (tuples or lists of ints) with an entry
    past EXP_BOUND."""
    if rows and rows[0] and (
        max(map(max, rows)) > EXP_BOUND or min(map(min, rows)) < -EXP_BOUND
    ):
        raise ValueError(f"exponent out of range: {EXP_BOUND_TEXT}")


def key_rows(keys):
    """A kernel's result keys as lists of ints, refused past EXP_BOUND (a
    wrapped 2^63 reads -2^63)."""
    rows = keys.tolist()
    check_keys(rows)
    return rows


# the largest finite part, N = the product of the extension degrees: the
# split's N x N trace and a series kernel's N x N^2 product map grow with it
MAX_FINITE_DIM = 256


# every algebra re-validates its moduli, and workloads reuse a few moduli many
# times over: one irreducibility test per (p, modulus)
@functools.lru_cache(maxsize=4096)
def _is_irreducible_memo(p, modulus):
    return is_irreducible(p, modulus)


@dataclass(frozen=True)
class FiniteFieldSpec:
    """GF(p^n) presented as GF(p)[y]/(modulus)."""

    p: int
    n: int
    modulus: tuple  # coefficients low-to-high, length n+1, monic

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 1:
            raise ValueError("extension degree must be >= 1")
        mod = tuple(c % self.p for c in self.modulus)
        object.__setattr__(self, "modulus", mod)
        if len(mod) != self.n + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not _is_irreducible_memo(self.p, mod):
            raise ValueError("modulus is reducible over GF(p)")

    @classmethod
    @functools.lru_cache(maxsize=None)
    def default(cls, p: int, n: int):
        # deterministic seed and a frozen result, so one search per (p, n)
        mod = find_irreducible(p, n, random.Random(10_000 * p + n))
        return cls(p, n, mod)


@dataclass(frozen=True)
class ResidueFieldSpec:
    """GF(p^n)(t_1,...,t_d): a finite base with named transcendentals."""

    base: FiniteFieldSpec
    transcendentals: tuple = ()
    label: str = ""

    @property
    def d(self):
        return len(self.transcendentals)


class _built_on_first_read:
    """A method run on the first read of its name, whose result then stays
    on the instance as a plain attribute.  Unlike functools.cached_property,
    which writes through the instance ``__dict__``, it stores with setattr:
    materialising ``__dict__`` makes every later attribute read on the
    instance about twice as slow on CPython 3.11, and the series kernels
    read an algebra's attributes on every call."""

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.build(obj)
        setattr(obj, self.name, value)
        return value


@dataclass(frozen=True)
class IdempotentDecomposition:
    idempotents: tuple  # of F-vectors (numpy arrays)
    component_degrees: tuple
    frobenius_permutations: tuple  # per factor, a tuple giving j -> sigma(j)

    @property
    def ell(self):
        return len(self.idempotents)


class CoefficientAlgebra:
    """The tensor coefficient ring with its finite etale part precomputed."""

    def __init__(self, p: int, factors):
        self.p = p
        # the size of the finite part, refused before any modulus is sought
        # or any table is built
        N = 1
        for f in factors:
            n = f.get("n", 1)
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"extension degree must be an integer >= 1, not {n!r}")
            N *= n
        if N > MAX_FINITE_DIM:
            raise ValueError(
                f"dim F = {N} exceeds {MAX_FINITE_DIM}: the product of the "
                "extension degrees is bounded"
            )
        specs = []
        seen_symbols = set()
        for i, f in enumerate(factors):
            n = f.get("n", 1)
            mod = f.get("modulus")
            base = (
                FiniteFieldSpec(p, n, tuple(mod))
                if mod
                else FiniteFieldSpec.default(p, n)
            )
            label = f.get("label") or DEFAULT_LABELS[i]
            ts = f.get("transcendentals")
            if ts is None:
                ts = tuple(f"t_{label}_{k + 1}" for k in range(f.get("d", 0)))
            spec = ResidueFieldSpec(base, tuple(ts), label)
            for s in spec.transcendentals:
                if s in seen_symbols:
                    raise ValueError(f"transcendental symbol {s} reused across factors")
                seen_symbols.add(s)
            specs.append(spec)
        if not specs:
            raise ValueError("at least one factor required")
        self.factors = tuple(specs)
        self.labels = tuple(s.label for s in specs)
        self.degrees = tuple(s.base.n for s in specs)
        self.nvars = len(specs)
        self.tsymbols = tuple(s for spec in specs for s in spec.transcendentals)
        self.total_d = len(self.tsymbols)
        self.t_owner = tuple(
            i for i, spec in enumerate(specs) for _ in spec.transcendentals
        )
        self.t_index = {s: k for k, s in enumerate(self.tsymbols)}
        self.N = N
        self._build_structure()
        self._dec = None

    # -- finite part ---------------------------------------------------

    def _build_structure(self):
        """The per-factor tables, and nothing tensored: factor alpha's
        product table T_alpha (n x n x n, entry [a, b, k] the coefficient of
        y^k in y^a * y^b) and its Frobenius matrix F_alpha (n x n, column a
        is (y^p)^a).  The N x N^2 product map and the N x N Frobenius
        matrices are built from them on first use."""
        p = self.p
        # a product kernel sums N products, each below p^2, twice (x . T,
        # then y . (x . T)); N * (p-1)^2 < 2^53 keeps those int64 sums exact
        if self.N * (p - 1) ** 2 >= 2**53:
            raise ValueError("dim F * (p-1)^2 >= 2^53: products would not be exact")
        self._tables, self._frobs = [], []
        for spec in self.factors:
            n, mod = spec.base.n, spec.base.modulus
            # y^k mod the modulus for k <= max(2n - 2, 1), from Python ints
            powers = [[1] + [0] * (n - 1)]
            for _ in range(max(2 * n - 2, 1)):
                top, low = powers[-1][-1], [0] + powers[-1][:-1]
                powers.append([(c - top * m) % p for c, m in zip(low, mod)])
            powers = np.array(powers, dtype=np.int64)
            T = powers[np.add.outer(np.arange(n), np.arange(n))]  # y^(a + b)

            def mul(x, y, T=T.reshape(n, n * n), n=n):
                return y @ (x @ T % p).reshape(n, n) % p

            # y^p by square-and-multiply, then its powers through its
            # left-multiplication matrix
            yp = power(powers[1], p, powers[0], mul)
            left = (yp @ T.reshape(n, n * n) % p).reshape(n, n)
            cols = [powers[0]]
            for _ in range(n - 1):
                cols.append(cols[-1] @ left % p)
            self._tables.append(T)
            self._frobs.append(np.stack(cols, axis=1))

    @_built_on_first_read
    def _mul_map(self):
        """The product as one N x N^2 map: left multiplication by x is the
        N x N matrix ``x @ map mod p``.  The series kernels read it."""
        return _tensor(self.p, self._tables).reshape(self.N, self.N * self.N)

    @_built_on_first_read
    def frob_matrices(self):
        """The partial Frobenii as N x N matrices acting on columns."""
        eye = [np.eye(n, dtype=np.int64) for n in self.degrees]
        return [
            _tensor(self.p, eye[:i] + [F] + eye[i + 1 :])
            for i, F in enumerate(self._frobs)
        ]

    @_built_on_first_read
    def frob_s_matrix(self):
        """The absolute Frobenius x -> x^p as an N x N matrix."""
        return _tensor(self.p, self._frobs)

    def label_index(self, label):
        """The position of the factor named ``label``."""
        if label not in self.labels:
            raise ValueError(
                f"unknown label {label!r}; labels are {', '.join(self.labels)}"
            )
        return self.labels.index(label)

    def fd_zero(self):
        return np.zeros(self.N, dtype=np.int64)

    def fd_one(self):
        v = np.zeros(self.N, dtype=np.int64)
        v[0] = 1
        return v

    def fd_from_int(self, k: int):
        return (self.fd_one() * k) % self.p

    def fd_gen(self, alpha: int):
        """The image of the alpha-th finite-field generator."""
        stride = 1
        for n in self.degrees[alpha + 1 :]:
            stride *= n
        v = np.zeros(self.N, dtype=np.int64)
        if self.degrees[alpha] == 1:
            mod = self.factors[alpha].base.modulus
            v[0] = (-mod[0]) % self.p
        else:
            v[stride] = 1
        return v

    def fd_mul(self, x, y):
        # (x @ map)[j, k] = sum_i x_i T[i, j, k]: left multiplication by x
        return y @ (x @ self._mul_map % self.p).reshape(self.N, self.N) % self.p

    def fd_mul_matrix(self, x):
        # matrix of multiplication by x:  (M v)_k = sum_ij T[i,j,k] x_i v_j
        return (x @ self._mul_map % self.p).reshape(self.N, self.N).T

    def mul_rows(self, ka, va, kb, vb, limit=None):
        """Every pair product of two lists of rows, summed per summed key.

        ``ka`` (na x K) and ``kb`` (nb x K) are int64 keys and ``va``
        (na x N) and ``vb`` (nb x N) reduced int64 vectors; pair (i, j) is
        the row ``(ka[i] + kb[j], va[i] * vb[j])``.  Pairs whose key exceeds
        ``limit`` (a length-K array, ``inf`` for no bound) in some entry are
        dropped.  Returns the surviving keys, each once, and their summed
        vectors, reduced and nonzero; read the keys with ``key_rows``.
        """
        if len(ka) > len(kb):  # one left-multiplication matrix per row of
            ka, va, kb, vb = kb, vb, ka, va  # the shorter list
        prods = (vb @ self._left_maps(va) % self.p).reshape(-1, self.N)
        keys = (ka[:, None, :] + kb[None, :, :]).reshape(len(prods), -1)
        return self._sum_per_key(keys, prods, limit)

    def combine_rows(self, kc, vc, km, vm, owner, limit=None):
        """A linear combination of row lists with row coefficients.

        Row i of ``(kc, vc)`` multiplies the rows t of ``(km, vm)`` with
        ``owner[t] == i``: pair t is ``(km[t] + kc[i], vm[t] * vc[i])``.  The
        rows owned by one i must have distinct keys.  ``limit`` and the
        result are as in ``mul_rows``, which this shares its pair products
        and its grouping with.
        """
        prods = np.einsum("tn,tnk->tk", vm, self._left_maps(vc)[owner]) % self.p
        return self._sum_per_key(km + kc[owner], prods, limit)

    def _left_maps(self, v):
        """The left-multiplication matrices ``x @ map mod p`` of v's rows."""
        return (v @ self._mul_map % self.p).reshape(len(v), self.N, self.N)

    def row_times(self, nums, m0, v0):
        """Each numerator ({t-monomial: vector}) of ``nums`` times the one
        row v0 t^m0: its t-monomials shift by m0 and all its vectors, stacked
        with those of the others, are multiplied by v0's left-multiplication
        matrix in one matmul.  Returns the products in the order of
        ``nums``, zero rows dropped; each vector is its own array, not a view
        of the batch.  Shifted t-monomials past EXP_BOUND are refused."""
        vecs = [v for num in nums for v in num.values()]
        # ndarray.dot: on these small arrays its call costs less than @'s
        left = (v0.dot(self._mul_map) % self.p).reshape(self.N, self.N)
        if len(vecs) == 1:  # a fresh vector, not a row of a batch
            prods = [vecs[0].dot(left) % self.p]
            nonzero = [prods[0].any()]
        else:
            batch = np.array(vecs).dot(left) % self.p
            prods = [row.copy() for row in batch]
            nonzero = batch.any(axis=1).tolist()
        shift = any(m0)
        out, i = [], 0
        for num in nums:
            prod = {}
            for m in num:
                if nonzero[i]:
                    prod[tuple(map(operator.add, m, m0)) if shift else m] = prods[i]
                i += 1
            out.append(prod)
        if shift:
            check_keys([m for prod in out for m in prod])
        return out

    def _sum_per_key(self, keys, prods, limit):
        """Rows with equal keys summed once; rows past ``limit`` and zero
        sums dropped."""
        if limit is not None:
            keep = (keys <= limit).all(axis=1)
            keys, prods = keys[keep], prods[keep]
        if not len(keys):
            return keys, prods
        # sort the keys to group equal ones.  Each product is already below
        # p, so a group's sum of at most len(keys) of them is far below 2^63
        order = np.lexsort(keys.T)
        keys, prods = keys[order], prods[order]
        new = np.ones(len(keys), dtype=bool)
        np.any(keys[1:] != keys[:-1], axis=1, out=new[1:])
        starts = np.flatnonzero(new)
        keys, prods = keys[starts], np.add.reduceat(prods, starts) % self.p
        keep = prods.any(axis=1)
        return keys[keep], prods[keep]

    def fd_inv(self, x):
        sol = gfp.solve(self.fd_mul_matrix(x), self.fd_one(), self.p)
        if sol is None:
            raise NotInvertibleError("finite-part element is a zero divisor")
        return sol

    def fd_frob(self, x, alpha: int):
        return (self.frob_matrices[alpha] @ x) % self.p

    def fd_pow(self, x, n: int):
        return power(x, n, self.fd_one(), self.fd_mul)

    def fd_is_zero(self, x):
        return not x.any()  # x is reduced

    def fd_random(self, rng: random.Random):
        return np.array([rng.randrange(self.p) for _ in range(self.N)], dtype=np.int64)

    # -- idempotents ---------------------------------------------------

    def idempotent_decomposition(self) -> IdempotentDecomposition:
        if self._dec is None:
            self._dec = self._compute_idempotents()
        return self._dec

    def _compute_idempotents(self):
        """Primitive idempotents, component degrees and Frobenius permutations.

        The idempotents span A = F^{Frob_s}, the elements fixed by the
        absolute Frobenius, and A is GF(p)^ell as a ring (each component
        field meets it in its prime field).  Each component is GF(p^L),
        L = lcm of the factor degrees, on which the trace sum_{k<L} Frob_s^k
        maps onto GF(p), so A is the image of that trace (``frob_trace``).
        The split happens inside A, in the coordinates of A's reduced basis
        R_0..R_{ell-1}, the rref of the trace's columns (unique, so it does
        not depend on how the trace was summed); an element's coordinates
        are its entries at the pivot columns.  Then Cantor-Zassenhaus: for a
        random a in A, the parts where b = a^((p-1)/2) is 1, -1 and 0,
        namely (b^2 + b)/2, (b^2 - b)/2 and 1 - b^2, are orthogonal
        idempotents summing to 1 (for p = 2, a and 1 - a are).  Each round
        multiplies every current idempotent by every part and keeps the
        nonzero products, until there are ell.  The result is unique, so it
        does not depend on the draws.  The partial Frobenii act transitively
        on the components, and each maps eF isomorphically onto sigma(e)F,
        so every component has degree N/ell, the lcm of the factor degrees.
        Everything is read from the per-factor tables, in exact int64.
        """
        p, N, degrees = self.p, self.N, self.degrees
        R, pivots = gfp.rref(frob_trace(p, self._frobs).T, p)
        ell = len(pivots)
        R = R[:ell]
        # S[i, j, m] (with j, m flattened): entry pivots[m] of R_i * R_j.
        # The product's slice at an output index k is the Kronecker product
        # of the factor tables' slices at k's digits, so R's rows are
        # contracted with those slices one factor axis at a time, for every
        # pivot at once (axis m), and then with R's rows
        digits = np.unravel_index(pivots, degrees)
        V = R[None]  # [m, i, digits of b]; one m until the first contraction
        for alpha, T in enumerate(self._tables):
            n = degrees[alpha]
            if n == 1:  # T = 1
                continue
            V = V.reshape(len(V), -1, n, N // math.prod(degrees[: alpha + 1]))
            # [m, z, a] @ [m, (i, earlier digits), a, later digits]
            V = T[:, :, digits[alpha]].transpose(2, 1, 0)[:, None] @ V % p
        S = (V.reshape(ell * ell, N) @ R.T % p).reshape(ell, ell, ell)
        S = S.transpose(1, 2, 0).reshape(ell, ell * ell)

        def mul(x, y):  # every row of x times every row of y, in A
            return (y @ (x @ S % p).reshape(-1, ell, ell) % p).reshape(-1, ell)

        one = self.fd_one()[None, pivots]  # 1 is in A: a row of coordinates
        half = (p + 1) // 2  # 1/2 mod odd p
        rng = random.Random(0)
        idems = one
        while len(idems) < ell:
            a = np.array([[rng.randrange(p) for _ in range(ell)]], dtype=np.int64)
            if p == 2:
                parts = np.concatenate([a, one - a]) % p
            else:
                b = power(a, (p - 1) // 2, one, mul)
                b2 = mul(b, b)
                parts = np.concatenate([(b2 + b) * half, (b2 - b) * half, one - b2]) % p
            idems = mul(idems, parts)
            idems = idems[idems.any(axis=1)]
        idems = sorted(idems @ R % p, key=lambda v: v.tolist())
        index = {e.tobytes(): j for j, e in enumerate(idems)}
        # each partial Frobenius applied along its own factor axis
        E = np.array(idems)
        perms = []
        for alpha, F in enumerate(self._frobs):
            n = degrees[alpha]
            images = F @ E.reshape(-1, n, N // math.prod(degrees[: alpha + 1])) % p
            perm = tuple(index.get(v.tobytes()) for v in images.reshape(ell, N))
            if None in perm:
                raise AssertionError("frobenius image of idempotent not primitive")
            perms.append(perm)
        dec = IdempotentDecomposition(tuple(idems), (N // ell,) * ell, tuple(perms))
        if not phi_orbit_transitivity(dec)[1] or N != ell * math.lcm(*self.degrees):
            raise AssertionError("components are not one Frobenius orbit of degree lcm")
        return dec

    # -- element constructors -----------------------------------------

    def zero(self):
        return CoeffElement(self, {}, ())

    def one(self):
        return CoeffElement(self, {self._zero_mono(): self.fd_one()}, ())

    def from_int(self, k: int):
        v = self.fd_from_int(k)
        if self.fd_is_zero(v):
            return self.zero()
        return CoeffElement(self, {self._zero_mono(): v}, ())

    def from_fdelta(self, vec):
        vec = np.asarray(vec, dtype=np.int64) % self.p
        if self.fd_is_zero(vec):
            return self.zero()
        return CoeffElement(self, {self._zero_mono(): vec}, ())

    def gen(self, alpha: int):
        return self.from_fdelta(self.fd_gen(alpha))

    def t(self, symbol: str):
        k = self.t_index[symbol]
        mono = tuple(1 if i == k else 0 for i in range(self.total_d))
        return CoeffElement(self, {mono: self.fd_one()}, ())

    def random_element(self, rng: random.Random, tdeg: int = 2, terms: int = 3):
        num = {}
        for _ in range(terms):
            mono = tuple(rng.randrange(tdeg + 1) for _ in range(self.total_d))
            s = (num.get(mono, self.fd_zero()) + self.fd_random(rng)) % self.p
            if self.fd_is_zero(s):
                num.pop(mono, None)
            else:
                num[mono] = s
        return CoeffElement(self, num, ())

    def _zero_mono(self):
        return (0,) * self.total_d

    def same_as(self, other):
        return (
            self.p == other.p
            and self.degrees == other.degrees
            and all(
                a.base.modulus == b.base.modulus and a.transcendentals == b.transcendentals
                for a, b in zip(self.factors, other.factors)
            )
        )

    def __repr__(self):
        parts = []
        for s in self.factors:
            t = f"({','.join(s.transcendentals)})" if s.transcendentals else ""
            parts.append(f"GF({self.p}^{s.base.n}){t}")
        return " (x) ".join(parts)


def _tensor(p, blocks):
    """The tensor product of integer arrays of one rank r with entries in
    [0, p): entry [(i_1..i_s), ..., (k_1..k_s)] is the product over alpha of
    block alpha's entry [i_alpha, ..., k_alpha] mod p, reduced after each
    block (a product of s entries can pass 2^63)."""
    out = blocks[0]
    for B in blocks[1:]:
        out = np.multiply.outer(out, B) % p
    r, s = blocks[0].ndim, len(blocks)
    axes = [r * i + k for k in range(r) for i in range(s)]
    return out.transpose(axes).reshape([math.prod(out.shape[k::r]) for k in range(r)])


def frob_trace(p, frobs):
    """The N x N matrix of the trace sum_{k<L} Frob_s^k, where Frob_s is the
    Kronecker product of the factor Frobenius matrices ``frobs`` and L the
    lcm of their sizes.

    Frob_s^k is the Kronecker product of the F_alpha^(k mod n_alpha), and
    the sum is folded in factor by factor.  By the Chinese remainder
    theorem, k mod lcm(M, n) runs over the pairs (k mod M, k mod n) that
    agree mod gcd(M, n), and the factors still to come (lcm L') read only
    k mod gcd(lcm(M, n), L').  So the folded prefix is kept as its sums over
    the residue classes of that gcd (one class at the end), and a fold pairs
    the prefix's class sums with the new factor's, each first summed down to
    the classes that the pairing and the next gcd can tell apart.  No step
    forms L copies of an N x N matrix.  Each sum has at most N terms below
    p^2, exact in int64 while N * (p-1)^2 < 2^53.
    """
    degrees = [len(F) for F in frobs]
    sums, g, M = np.ones((1, 1, 1), dtype=np.int64), 1, 1  # [class, row, col]
    for i, F in enumerate(frobs):
        n, size = degrees[i], len(sums[0])
        if n == 1:  # F = 1: the fold changes nothing
            continue
        M = math.lcm(M, n)
        g_next = math.gcd(M, math.lcm(*degrees[i + 1 :]))
        g1 = math.gcd(g, math.lcm(n, g_next))
        n1 = math.gcd(n, math.lcm(g, g_next))
        if g1 < g:
            sums = sums.reshape(g // g1, g1, size, size).sum(axis=0) % p
        right = _power_class_sums(F, n1, p)
        # pair k (mod lcm(g1, n1)) is sums[k % g1] (x) right[k % n1], summed
        # into class k % g_next
        h = math.lcm(g1, n1)
        left = sums[[k % g1 for k in range(h)]]
        right = right[[k % n1 for k in range(h)]]
        terms = left[:, :, None, :, None] * right[:, None, :, None, :]
        sums = terms.reshape(-1, g_next, size * n, size * n).sum(axis=0) % p
        g = g_next
    return sums[0]


def _power_class_sums(F, m, p):
    """The sums of F^b over b < n in each class b = c mod m, c < m, stacked,
    where F is n x n with F^n = 1 and m | n: F^c times the sum of (F^m)^j
    over j < n/m, taken by doubling."""
    powers = [np.eye(len(F), dtype=np.int64), F]
    while len(powers) <= m:
        powers.append(powers[-1] @ F % p)
    classes = np.array(powers[:m])
    if m == len(F):  # one power per class
        return classes

    def geometric(c):  # (sum of G^j over j < c, G^c), G = F^m
        if c == 1:
            return powers[0], powers[m]
        S, P = geometric(c // 2)
        S, P = (S + P @ S) % p, P @ P % p
        if c % 2:
            S, P = (S + P) % p, P @ powers[m] % p
        return S, P

    return classes @ geometric(len(F) // m)[0] % p


def _num_add(alg, a, b):
    out = dict(a)
    for mono, vec in b.items():
        cur = out.get(mono)
        if cur is None:
            out[mono] = vec % alg.p
        else:
            s = (cur + vec) % alg.p
            if alg.fd_is_zero(s):
                del out[mono]
            else:
                out[mono] = s
    return out


def _num_equal(a, b):
    """Equality of two numerators, vector by vector (vectors are reduced)."""
    return len(a) == len(b) and all(
        np.array_equal(v, b.get(m, ())) for m, v in a.items()
    )


def _num_neg(alg, a):
    return {m: (-v) % alg.p for m, v in a.items()}


def _num_rows(alg, num):
    """A numerator ({t-monomial: vector}) as mul_rows' key and vector arrays."""
    return (
        np.array(list(num), dtype=np.int64).reshape(len(num), alg.total_d),
        np.array(list(num.values())),
    )


def _num_mul(alg, a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((m0, v0),) = a.items()
        return alg.row_times([b], m0, v0)[0]
    keys, vecs = alg.mul_rows(*_num_rows(alg, a), *_num_rows(alg, b))
    return {tuple(k): v.copy() for k, v in zip(key_rows(keys), vecs)}


def _num_scale_fd(alg, a, vec):
    return _num_mul(alg, a, {alg._zero_mono(): vec})


def _num_frob(alg, a, alpha):
    out = {}
    for mono, vec in a.items():
        new_mono = tuple(
            e * alg.p if alg.t_owner[i] == alpha else e for i, e in enumerate(mono)
        )
        check_exponent(max(new_mono, default=0))
        out[new_mono] = alg.fd_frob(vec, alpha)
    return out


def _den_factor_frob(alg, factor, alpha):
    beta, poly = factor
    if beta != alpha:
        return factor
    for mono, _ in poly:
        check_exponent(max(mono, default=0) * alg.p)
    new_poly = tuple(
        sorted(
            (
                tuple(
                    e * alg.p if alg.t_owner[i] == alpha else e
                    for i, e in enumerate(mono)
                ),
                c,
            )
            for mono, c in poly
        )
    )
    return (beta, new_poly)


class CoeffElement:
    """An element ``numerator / prod(denominator factors)`` of the tensor ring.

    The numerator is a polynomial in all transcendental symbols with
    coefficients in the finite part; each denominator factor is a nonzero
    polynomial in the symbols of a single factor with GF(p) coefficients
    (such factors are always units of the ring).  The constructor takes the
    numerator as given: its vectors must be nonzero int64 vectors reduced
    into [0, p).
    """

    __slots__ = ("alg", "num", "den")

    def __init__(self, alg, num, den):
        self.alg = alg
        self.num = num
        self.den = tuple(sorted(den))

    # -- basics --------------------------------------------------------

    def is_zero(self):
        return not self.num

    def _den_as_num(self, den=None):
        alg = self.alg
        den = self.den if den is None else den
        acc = {alg._zero_mono(): alg.fd_one()}
        for _, poly in den:
            pd = {m: (alg.fd_one() * c) % alg.p for m, c in poly}
            acc = _num_mul(alg, acc, pd)
        return acc

    def __add__(self, other):
        other = self._coerce(other)
        alg = self.alg
        common = _multiset_intersection(self.den, other.den)
        extra_self = _multiset_difference(other.den, common)
        extra_other = _multiset_difference(self.den, common)
        a = _num_mul(alg, self.num, self._den_as_num(extra_self)) if extra_self else self.num
        b = (
            _num_mul(alg, other.num, self._den_as_num(extra_other))
            if extra_other
            else other.num
        )
        num = _num_add(alg, a, b)
        den = tuple(common) + tuple(extra_other) + tuple(extra_self)
        if not num:
            return alg.zero()
        return CoeffElement(alg, num, den)

    def __neg__(self):
        return CoeffElement(self.alg, _num_neg(self.alg, self.num), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        alg = self.alg
        num = _num_mul(alg, self.num, other.num)
        if not num:
            return alg.zero()
        return CoeffElement(alg, num, self.den + other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        return power(self, n, self.alg.one(), operator.mul)

    def _coerce(self, other):
        if isinstance(other, CoeffElement):
            return other
        if isinstance(other, (int, np.integer)):
            return self.alg.from_int(int(other))
        raise TypeError(f"cannot coerce {other!r}")

    def __eq__(self, other):
        if not isinstance(other, CoeffElement):
            try:
                other = self._coerce(other)
            except TypeError:
                return NotImplemented
        if self.den == other.den:
            return _num_equal(self.num, other.num)
        return _num_equal(
            _num_mul(self.alg, self.num, other._den_as_num()),
            _num_mul(self.alg, other.num, self._den_as_num()),
        )

    def __hash__(self):
        raise TypeError("CoeffElement is not hashable")

    # -- ring maps -----------------------------------------------------

    def frobenius(self, alpha: int):
        """The partial Frobenius: p-th power on factor alpha, identity elsewhere."""
        alg = self.alg
        num = _num_frob(alg, self.num, alpha)
        den = tuple(_den_factor_frob(alg, f, alpha) for f in self.den)
        return CoeffElement(alg, num, den)

    def frobenius_s(self):
        out = self
        for alpha in range(self.alg.nvars):
            out = out.frobenius(alpha)
        return out

    def idem_component(self, j: int):
        dec = self.alg.idempotent_decomposition()
        return CoeffElement(
            self.alg, _num_scale_fd(self.alg, self.num, dec.idempotents[j]), self.den
        )

    # -- units ---------------------------------------------------------

    def unit_verdict(self):
        """One of 'unit', 'zero_divisor_or_zero', 'undecided'."""
        v, _ = self._unit_analysis()
        return v

    def try_invert(self):
        """The inverse, or None when the verdict is not 'unit'."""
        v, inv = self._unit_analysis()
        return inv if v == "unit" else None

    def invert(self):
        v, inv = self._unit_analysis()
        if v != "unit":
            raise NotInvertibleError(f"element is {v}")
        return inv

    def _unit_analysis(self):
        alg = self.alg
        if self.is_zero():
            return "zero_divisor_or_zero", None
        dec = alg.idempotent_decomposition()
        if dec.ell > 1:
            for j in range(dec.ell):
                if not _num_scale_fd(alg, self.num, dec.idempotents[j]):
                    return "zero_divisor_or_zero", None
        # pull out the monomial gcd:  num = t^mu * g
        monos = list(self.num)
        mu = tuple(min(m[i] for m in monos) for i in range(alg.total_d))
        g = {tuple(a - b for a, b in zip(m, mu)): v for m, v in self.num.items()}
        mu_den = _mono_den_factors(alg, mu)
        if len(g) == 1:
            ((m0, c),) = g.items()
            assert all(e == 0 for e in m0)
            try:
                cinv = alg.fd_inv(c)
            except NotInvertibleError:
                return "zero_divisor_or_zero", None
            num = _num_scale_fd(alg, self._den_as_num(), cinv)
            return "unit", CoeffElement(alg, num, mu_den)
        owners = {
            alg.t_owner[i] for m in g for i, e in enumerate(m) if e
        }
        if len(owners) != 1:
            return "undecided", None
        (alpha,) = owners
        # norm clearing: multiply by all conjugates of g under the coefficient
        # automorphisms (p-power maps on the finite parts, symbols fixed);
        # the full norm over that product group has GF(p) coefficients
        h = None
        for exps in itertools.product(*(range(n) for n in alg.degrees)):
            if not any(exps):
                continue
            conj = g
            for beta, k in enumerate(exps):
                for _ in range(k):
                    conj = {m: alg.fd_frob(v, beta) for m, v in conj.items()}
            h = conj if h is None else _num_mul(alg, h, conj)
        if h is None:
            h = {alg._zero_mono(): alg.fd_one()}
        norm = _num_mul(alg, g, h)
        if not norm:
            return "zero_divisor_or_zero", None
        poly = []
        for m, vec in norm.items():
            c = int(vec[0]) % alg.p
            scalar = np.zeros(alg.N, dtype=np.int64)
            scalar[0] = c
            if not np.array_equal(vec % alg.p, scalar):
                return "undecided", None
            poly.append((m, c))
        den = self.den + mu_den + ((alpha, tuple(sorted(poly))),)
        num = _num_mul(alg, h, self._den_as_num()) if self.den else h
        return "unit", CoeffElement(alg, num, den)

    # -- misc ----------------------------------------------------------

    def constant_fd(self):
        """The finite-part vector, when the element is a plain constant."""
        if self.den:
            raise ValueError("element has a denominator")
        if self.is_zero():
            return self.alg.fd_zero()
        if len(self.num) != 1:
            raise ValueError("element is not constant")
        ((m, v),) = self.num.items()
        if any(m):
            raise ValueError("element is not constant")
        return v.copy()

    def is_constant(self):
        return not self.den and all(not any(m) for m in self.num)

    def __repr__(self):
        alg = self.alg
        if self.is_zero():
            return "0"
        parts = []
        for mono, vec in sorted(self.num.items()):
            coeffs = "+".join(
                f"{int(c)}*e{k}" if k else str(int(c))
                for k, c in enumerate(vec)
                if c
            )
            tpart = "".join(
                f"*{alg.tsymbols[i]}^{e}" if e != 1 else f"*{alg.tsymbols[i]}"
                for i, e in enumerate(mono)
                if e
            )
            parts.append(f"({coeffs}){tpart}")
        s = " + ".join(parts)
        if self.den:
            s = f"[{s}] / (...{len(self.den)} factors)"
        return s


def _mono_den_factors(alg, mu):
    factors = []
    by_alpha = {}
    for i, e in enumerate(mu):
        if e:
            by_alpha.setdefault(alg.t_owner[i], {})[i] = e
    for alpha, exps in sorted(by_alpha.items()):
        mono = tuple(exps.get(i, 0) for i in range(alg.total_d))
        factors.append((alpha, ((mono, 1),)))
    return tuple(factors)


def _multiset_intersection(a, b):
    out = []
    b_left = list(b)
    for x in a:
        if x in b_left:
            out.append(x)
            b_left.remove(x)
    return tuple(out)


def _multiset_difference(a, b):
    """Elements of ``a`` with one copy of each element of ``b`` removed."""
    out = list(a)
    for x in b:
        if x in out:
            out.remove(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# splitting


def tensor_idempotents(alg: CoefficientAlgebra) -> IdempotentDecomposition:
    return alg.idempotent_decomposition()


def phi_orbit_transitivity(dec: IdempotentDecomposition):
    """Orbits of the partial-Frobenius permutations on the idempotents.

    The absolute Frobenius fixes every idempotent, so these orbits are the
    orbits of the quotient group acting on them.  Returns
    ``(orbits, transitive)``.
    """
    ell = dec.ell
    seen = [False] * ell
    orbits = []
    for start in range(ell):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        seen[start] = True
        while frontier:
            j = frontier.pop()
            for perm in dec.frobenius_permutations:
                for k in (perm[j], perm.index(j)):
                    if not seen[k]:
                        seen[k] = True
                        orbit.add(k)
                        frontier.append(k)
        orbits.append(tuple(sorted(orbit)))
    return orbits, len(orbits) == 1


# ---------------------------------------------------------------------------
# JSON (schema "coeff_algebra")


def algebra_to_json(alg: CoefficientAlgebra) -> dict:
    return {
        "p": alg.p,
        "factors": [
            {
                "n": s.base.n,
                "modulus": list(s.base.modulus),
                "transcendentals": list(s.transcendentals),
                "label": s.label,
            }
            for s in alg.factors
        ],
    }


def algebra_from_json(data: dict) -> CoefficientAlgebra:
    return CoefficientAlgebra(data["p"], data["factors"])


def _mono_to_json(alg, mono):
    return {alg.tsymbols[i]: int(e) for i, e in enumerate(mono) if e}


def _mono_from_json(alg, obj):
    mono = [0] * alg.total_d
    for sym, e in obj.items():
        check_exponent(int(e))
        mono[alg.t_index[sym]] = int(e)
    return tuple(mono)


def element_to_json(a: CoeffElement) -> dict:
    alg = a.alg
    return {
        "numerator": [
            {"fdelta_coeff": [int(c) for c in vec], "monomial": _mono_to_json(alg, m)}
            for m, vec in sorted(a.num.items())
        ],
        "denominator": [
            {
                "alpha": alg.labels[beta],
                "poly": [
                    {"coeff": int(c), "monomial": _mono_to_json(alg, m)}
                    for m, c in poly
                ],
            }
            for beta, poly in a.den
        ],
    }


def element_from_json(alg: CoefficientAlgebra, data: dict) -> CoeffElement:
    num = {}
    for term in data.get("numerator", []):
        vec = np.array(term["fdelta_coeff"], dtype=np.int64) % alg.p
        if len(vec) != alg.N:
            raise ValueError("fdelta_coeff has wrong length")
        if not alg.fd_is_zero(vec):
            num[_mono_from_json(alg, term.get("monomial", {}))] = vec
    den = []
    for factor in data.get("denominator", []):
        beta = alg.label_index(factor["alpha"])
        poly = tuple(
            sorted(
                (_mono_from_json(alg, t.get("monomial", {})), int(t["coeff"]) % alg.p)
                for t in factor["poly"]
            )
        )
        den.append((beta, poly))
    return CoeffElement(alg, num, tuple(den))
