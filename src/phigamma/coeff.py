"""Exact arithmetic in tensor products of imperfect residue fields.

The coefficient ring is a tensor product, over GF(p), of fields
``k = GF(p^n)(t_1, ..., t_d)``: a finite field times a purely transcendental
part.  The finite parts multiply out to an etale algebra ``F`` that splits
into field components via primitive idempotents; the transcendental parts
contribute polynomial numerators and per-factor denominators.

Elements of the finite part ``F`` are numpy vectors over the monomial basis
of GF(p)[y_1,...,y_s] / (moduli); multiplication is the structure tensor
precomputed as a linear map, so that repeated products stay cheap.

The split of ``F`` happens in its Frobenius-fixed subalgebra
``A = F^{Frob_s}``, which is GF(p)^ell for ell components and contains every
idempotent: the primitive idempotents span the joint eigenlines of
multiplication by a basis of ``A``, found with nullspaces of ell x ell
matrices rather than with products in all of ``F``.
"""

from __future__ import annotations

import functools
import itertools
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
        if not is_irreducible(self.p, mod):
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
        self.N = 1
        for n in self.degrees:
            self.N *= n
        self._build_structure()
        self._dec = None

    # -- finite part ---------------------------------------------------

    def _build_structure(self):
        p = self.p
        per_factor_T = []
        per_factor_frob = []
        for spec in self.factors:
            n = spec.base.n
            mod = np.array(spec.base.modulus, dtype=np.int64)
            # powers[k] = y^k reduced, for k up to max needed
            maxpow = max(2 * (n - 1), p * (n - 1)) + 1
            powers = np.zeros((maxpow, n), dtype=np.int64)
            cur = np.zeros(n, dtype=np.int64)
            cur[0] = 1
            powers[0] = cur
            for k in range(1, maxpow):
                nxt = np.zeros(n + 1, dtype=np.int64)
                nxt[1:] = cur
                if nxt[n]:
                    nxt[:n] = (nxt[:n] - nxt[n] * mod[:n]) % p
                cur = nxt[:n] % p
                powers[k] = cur
            T = np.zeros((n, n, n), dtype=np.int64)
            for a in range(n):
                for b in range(n):
                    T[a, b] = powers[a + b]
            F = np.zeros((n, n), dtype=np.int64)
            for a in range(n):
                F[:, a] = powers[p * a]
            per_factor_T.append(T)
            per_factor_frob.append(F)

        T = per_factor_T[0]
        for B in per_factor_T[1:]:
            n1, n2 = T.shape[0], B.shape[0]
            T = np.multiply.outer(T, B).transpose(0, 3, 1, 4, 2, 5)
            T = T.reshape(n1 * n2, n1 * n2, n1 * n2) % self.p
        # The product as a precomputed linear map in two stages: x -> x . T,
        # an N x N matrix reduced mod p, then y -> y . (x . T).  Each stage
        # sums N terms below p^2, in float64 (for BLAS); exact while the sums
        # stay below 2^53.
        if self.N * (self.p - 1) ** 2 >= 2**53:
            raise ValueError("dim F * (p-1)^2 >= 2^53: products would not be exact")
        self._mul_map = T.reshape(self.N, self.N * self.N).astype(np.float64)

        self.frob_matrices = []
        for i in range(self.nvars):
            M = np.eye(1, dtype=np.int64)
            for j in range(self.nvars):
                blk = (
                    per_factor_frob[j]
                    if j == i
                    else np.eye(self.degrees[j], dtype=np.int64)
                )
                M = np.kron(M, blk)
            self.frob_matrices.append(M % self.p)
        M = np.eye(self.N, dtype=np.int64)
        for F in self.frob_matrices:
            M = (F @ M) % self.p
        self.frob_s_matrix = M

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

    def _left_mul(self, x):
        # A[j, k] = sum_i x_i T[i, j, k] mod p
        return ((np.asarray(x) % self.p) @ self._mul_map % self.p).reshape(self.N, self.N)

    def fd_mul(self, x, y):
        return ((np.asarray(y) % self.p) @ self._left_mul(x) % self.p).astype(np.int64)

    def fd_mul_matrix(self, x):
        # matrix of multiplication by x:  (M v)_k = sum_ij T[i,j,k] x_i v_j
        return self._left_mul(x).T.astype(np.int64)

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
        return not np.any(x % self.p)

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
        field meets it in its prime field).  So the split happens inside A:
        in the coordinates of A's reduced basis R_0..R_{ell-1} (an element's
        coordinates are its entries at the pivot columns), multiplication by
        R_i is an ell x ell matrix, and the joint eigenspaces of these
        matrices are the lines through the primitive idempotents.  Each
        space is refined by the eigenspaces of one matrix after another
        (a nullspace per candidate eigenvalue in GF(p), until they fill the
        space), stopping once there are ell lines; a line spanned by
        a = s e satisfies a^2 = s a, which fixes the scale.  A partial
        Frobenius is a ring automorphism mapping eF onto sigma(e)F, so one
        rank per Frobenius orbit gives every component degree.
        """
        p, N = self.p, self.N
        fixed = gfp.nullspace((self.frob_s_matrix - np.eye(N, dtype=np.int64)) % p, p)
        R, pivots = gfp.rref(fixed, p)
        ell = len(pivots)
        # S[i, j, k]: coordinate k of R_i * R_j, from one batched product map
        left = (R @ self._mul_map % p).reshape(ell, N, N)
        S = (R @ left[:, :, pivots] % p).astype(np.int64)
        lines = [np.eye(ell, dtype=np.int64)]  # reduced bases of the spaces
        for Si in S:
            if len(lines) == ell:
                break
            refined = []
            for B in lines:
                k = len(B)
                # the action of R_i on the space, in the coordinates of B
                # (read at B's pivots, the first nonzero entry of each row)
                D = (B @ Si % p)[:, (B != 0).argmax(axis=1)]
                if np.array_equal(D, D[0, 0] * np.eye(k, dtype=np.int64)):
                    refined.append(B)  # R_i is a scalar here, or B is a line
                    continue
                found = 0
                for lam in range(p):
                    Y = gfp.nullspace((D.T - lam * np.eye(k, dtype=np.int64)) % p, p)
                    if len(Y):
                        refined.append(gfp.rref(Y @ B, p)[0])
                        found += len(Y)
                        if found == k:
                            break
            lines = refined
        idems = []
        for (x,) in lines:
            # a = x R = s e has a^2 = s a; x is 1 at its first nonzero entry
            s = int((x @ (np.tensordot(x, S, axes=1) % p) % p)[(x != 0).argmax()])
            idems.append(x * gfp._inv_mod(s, p) % p @ R % p)
        idems.sort(key=lambda v: tuple(int(c) for c in v))
        index = {e.tobytes(): j for j, e in enumerate(idems)}
        perms = []
        for alpha in range(self.nvars):
            perm = []
            for e in idems:
                j = index.get(self.fd_frob(e, alpha).tobytes())
                if j is None:
                    raise AssertionError("frobenius image of idempotent not primitive")
                perm.append(j)
            perms.append(tuple(perm))
        degrees = [0] * ell
        for j in range(ell):
            if degrees[j]:
                continue
            degrees[j] = gfp.rank(self.fd_mul_matrix(idems[j]), p)
            orbit = [j]
            for k in orbit:
                for perm in perms:
                    if not degrees[perm[k]]:
                        degrees[perm[k]] = degrees[j]
                        orbit.append(perm[k])
        return IdempotentDecomposition(tuple(idems), tuple(degrees), tuple(perms))

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


def _num_neg(alg, a):
    return {m: (-v) % alg.p for m, v in a.items()}


def _num_mul(alg, a, b):
    out = {}
    for m1, v1 in a.items():
        for m2, v2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            prod = alg.fd_mul(v1, v2)
            cur = out.get(m)
            s = prod if cur is None else (cur + prod) % alg.p
            if alg.fd_is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _num_scale_fd(alg, a, vec):
    out = {}
    for m, v in a.items():
        s = alg.fd_mul(v, vec)
        if not alg.fd_is_zero(s):
            out[m] = s
    return out


def _num_frob(alg, a, alpha):
    out = {}
    for mono, vec in a.items():
        new_mono = tuple(
            e * alg.p if alg.t_owner[i] == alpha else e for i, e in enumerate(mono)
        )
        out[new_mono] = alg.fd_frob(vec, alpha)
    return out


def _den_factor_frob(alg, factor, alpha):
    beta, poly = factor
    if beta != alpha:
        return factor
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
    (such factors are always units of the ring).
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
            a, b = self.num, other.num
        else:
            a = _num_mul(self.alg, self.num, other._den_as_num())
            b = _num_mul(self.alg, other.num, self._den_as_num())
        return not _num_add(self.alg, a, _num_neg(self.alg, b))

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
