"""Truncated sparse Laurent series over the tensor coefficient ring.

The power-series ring adjoins one variable X_alpha per tensor factor; the
Laurent ring additionally inverts the product of all variables, so poles are
bounded uniformly across the variables.  A restricted pole set supports the
intermediate rings where only some variables may occur with negative
exponents.

Truncation is per variable and inclusive: an element with window W_alpha has
exact coefficients at every exponent vector with e_alpha <= W_alpha.  A
window of ``math.inf`` marks an exact (polynomial) element.  All precision
propagation is pessimistic; a question that the window cannot settle raises
``PrecisionError`` or returns the verdict "undecided" rather than guessing.

An element stores its terms as one row block: every term c X^e of every
coefficient c = sum of v t^m is a row, with the int64 key (e, m) (the
X-exponents, then the t-exponents) in ``keys`` (K x (nvars + total_d)) and
the reduced finite-part vector v in ``vecs`` (K x N).  The rows are unique
and nonzero, lie in the window, and are in block order: sorted by key,
lexicographically from the first entry, which is the order the kernels'
``_sum_per_key`` returns.  Every ring operation reads and writes blocks:
a product of two series is one ``CoefficientAlgebra.mul_rows`` call, so
all pair products, the window cut and the sums per key happen in one batch;
a sum merges the two blocks (joined when one precedes the other, a single
row added or inserted in place, otherwise one grouping by key); and when
one operand is a single row (a monomial or a constant), the product is a
shift and a scale instead: the other block's keys shift by the row's,
which keeps their order, and its vectors go through
``CoefficientAlgebra.row_times``, one matmul with the row's
left-multiplication matrix.  An element with a
coefficient that has a denominator (a fraction) keeps the dict
{X-exponents: CoeffElement} instead, with ``keys`` and ``vecs`` None, and
its products and sums go term by term, since fractions add over a common
denominator.  ``support`` is the public read API: that dict, read-only,
built on the first read for a row block and kept.
Results of the ring operations are built without the public constructor's
checks (their rows are nonzero and their poles lie in the pole set by
construction); the window is still clipped and terms beyond it dropped.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .coeff import (
    EXP_BOUND,
    CoeffElement,
    CoefficientAlgebra,
    NotInvertibleError,
    check_block,
    check_exponent,
    check_keys,
    element_from_json,
    element_to_json,
    nonzero_rows,
    rows_within,
)
from .fields import power

INF = math.inf


class PrecisionError(ArithmeticError):
    pass


@dataclass(frozen=True)
class PAdicUnitApprox:
    """An element of Z_p known modulo p^M."""

    p: int
    residue: int
    M: int

    def __post_init__(self):
        object.__setattr__(self, "residue", self.residue % self.p**self.M)

    @property
    def is_unit(self):
        return self.residue % self.p != 0

    def digits(self):
        r, out = self.residue, []
        for _ in range(self.M):
            out.append(r % self.p)
            r //= self.p
        return out

    def mul(self, other: "PAdicUnitApprox"):
        M = min(self.M, other.M)
        return PAdicUnitApprox(self.p, self.residue * other.residue, M)

    def add(self, other: "PAdicUnitApprox"):
        M = min(self.M, other.M)
        return PAdicUnitApprox(self.p, self.residue + other.residue, M)

    def inverse(self):
        if not self.is_unit:
            raise ValueError("not a p-adic unit")
        return PAdicUnitApprox(
            self.p, pow(self.residue, -1, self.p**self.M), self.M
        )


class SeriesRingSpec:
    """The Laurent ring: coefficient algebra, variable names, precision caps."""

    def __init__(self, coeffs: CoefficientAlgebra, precision=16):
        self.coeffs = coeffs
        self.nvars = coeffs.nvars
        self.variables = tuple(f"X_{lbl}" for lbl in coeffs.labels)
        if isinstance(precision, int):
            precision = (precision,) * self.nvars
        self.precision = tuple(precision)
        if any(n < 1 for n in self.precision):
            raise ValueError("precision caps must be >= 1")
        self.var_index = {v: i for i, v in enumerate(self.variables)}

    def same_as(self, other):
        return (
            self.coeffs.same_as(other.coeffs)
            and self.variables == other.variables
            and self.precision == other.precision
        )

    # -- constructors --------------------------------------------------

    def zero(self):
        return LaurentElement._from_rows(
            self, *_no_rows(self), 0, (INF,) * self.nvars, frozenset(), clipped=True
        )

    def one(self):
        return self.constant(self.coeffs.one())

    def constant(self, c):
        if isinstance(c, int):
            c = self.coeffs.from_int(c)
        if c.is_zero():
            return self.zero()
        exact = (INF,) * self.nvars
        return LaurentElement._from_support(
            self, {(0,) * self.nvars: c}, 0, exact, frozenset(), clipped=True
        )

    def monomial(self, exps, coeff=None):
        exps = tuple(exps)
        if isinstance(coeff, int):
            coeff = self.coeffs.from_int(coeff)
        if coeff is not None and coeff.is_zero():
            return self.zero()
        m = max(0, -min(exps))
        if m > EXP_BOUND:
            check_exponent(m)
        if max(exps) > EXP_BOUND:
            check_exponent(max(exps))
        pole_set = frozenset(i for i, e in enumerate(exps) if e < 0)
        exact = (INF,) * self.nvars
        if coeff is None:  # the row X^exps with the coefficient 1
            keys = np.array([exps + (0,) * self.coeffs.total_d], dtype=np.int64)
            vecs = self.coeffs.fd_one()[None, :]
            return LaurentElement._from_rows(
                self, keys, vecs, m, exact, pole_set, clipped=True
            )
        return LaurentElement._from_support(
            self, {exps: coeff}, m, exact, pole_set, clipped=True
        )

    def var(self, alpha):
        if isinstance(alpha, str):
            alpha = self.var_index[alpha]
        return self.monomial(tuple(1 if i == alpha else 0 for i in range(self.nvars)))

    def x_delta(self, power=1):
        return self.monomial((power,) * self.nvars)

    def __repr__(self):
        return f"LaurentRing({self.coeffs!r}; {', '.join(self.variables)}; N={self.precision})"


def _clip(ring, window, pole_bound):
    """A finite window entry is at most the precision cap less the poles."""
    return tuple([
        w if w == INF else min(w, cap - pole_bound)
        for w, cap in zip(window, ring.precision)
    ])


def product_meta(ring, a, b):
    """The (window, pole bound, pole set) of a product of elements with
    metadata ``a`` and ``b``.

    A coefficient at e is exact unless an unknown term of one factor (beyond
    its window) can pair with a deepest-pole term of the other, so each
    window entry loses the other factor's pole bound where that variable is
    in its pole set; the result is clipped to the caps less the poles.  The
    rule is monotone: a smaller window, a larger pole bound or a larger pole
    set in a factor never gives a larger window.
    """
    (wa, pa, sa), (wb, pb, sb) = a, b
    pole_bound = pa + pb
    if sa or sb:
        wa = [x - pb if i in sb else x for i, x in enumerate(wa)]
        wb = [y - pa if i in sa else y for i, y in enumerate(wb)]
    window = tuple([
        INF if w == INF else min(w, cap - pole_bound)
        for w, cap in zip(map(min, wa, wb), ring.precision)
    ])
    return window, pole_bound, sa | sb


def sum_meta(ring, metas):
    """The (window, pole bound, pole set) of a sum of elements with the given
    metadata, added in any order (``__add__`` and substitution): the least
    window clipped to the caps less the largest pole bound."""
    windows, bounds, sets = zip(*metas)
    pole_bound = max(bounds)
    return (
        _clip(ring, tuple(map(min, zip(*windows))), pole_bound),
        pole_bound,
        frozenset().union(*sets),
    )


class LaurentElement:
    """A truncated Laurent series: its terms, window, pole bound and pole set.

    The terms of an element whose coefficients have no denominator are one
    row block, ``keys`` and ``vecs`` (see the module docstring).  An element
    with a fraction coefficient keeps the dict {X-exponents: CoeffElement}
    instead, and its ``keys`` and ``vecs`` are None.  ``support`` reads the
    terms as that dict, read-only; for a row block it is built on first
    read and kept.
    """

    __slots__ = ("ring", "pole_bound", "window", "pole_set", "keys", "vecs", "_support")

    def __init__(self, ring, support, pole_bound, window, pole_set=frozenset()):
        self.ring = ring
        self.pole_bound = pole_bound
        self.pole_set = frozenset(pole_set)
        if pole_bound > EXP_BOUND:
            check_exponent(pole_bound)
        window = _clip(ring, window, pole_bound)
        clean = {}
        for exps, c in support.items():
            if c.is_zero():
                continue
            if any(e > w for e, w in zip(exps, window)):
                continue
            if max(exps) > EXP_BOUND:
                check_exponent(max(exps))
            for i, e in enumerate(exps):
                if e < 0:
                    if e < -pole_bound:
                        raise ValueError("exponent below pole bound")
                    if i not in self.pole_set:
                        raise ValueError(
                            f"negative exponent in {ring.variables[i]} outside pole set"
                        )
            clean[exps] = c
        self.window = window
        self._store(clean)

    def _store(self, support):
        """Keep ``support`` ({X-exponents: nonzero CoeffElement}) as a row
        block, or as it is when a coefficient has a denominator."""
        if any(c.den for c in support.values()):
            self.keys = self.vecs = None
            self._support = MappingProxyType(support)
        else:
            self.keys, self.vecs = _pack(
                self.ring, [(e, c.num) for e, c in support.items()]
            )
            self._support = None

    @classmethod
    def _from_rows(cls, ring, keys, vecs, pole_bound, window, pole_set, clipped=False):
        """A result of the ring operations as a row block, built without the
        checks above: unique nonzero rows in block order, and negative
        exponents only in ``pole_set`` and above ``-pole_bound``.  The window
        is clipped as above and the rows beyond it are dropped, unless
        ``clipped`` says that the caller has done both."""
        el = cls.__new__(cls)
        el.ring = ring
        el.pole_bound = pole_bound
        el.pole_set = pole_set
        if not clipped:
            window = _clip(ring, window, pole_bound)
            keys, vecs = rows_within(keys, vecs, window)
        el.window = window
        el.keys, el.vecs, el._support = keys, vecs, None
        return el

    @classmethod
    def _from_support(cls, ring, support, pole_bound, window, pole_set, clipped=False):
        """As ``_from_rows``, from a dict {X-exponents: nonzero
        CoeffElement}; stored as a row block when no coefficient has a
        denominator."""
        el = cls.__new__(cls)
        el.ring = ring
        el.pole_bound = pole_bound
        el.pole_set = pole_set
        if not clipped:
            window = _clip(ring, window, pole_bound)
            finite = [(i, w) for i, w in enumerate(window) if w != INF]
            if finite:
                support = {
                    e: c
                    for e, c in support.items()
                    if all(e[i] <= w for i, w in finite)
                }
        el.window = window
        el._store(support)
        return el

    @property
    def support(self):
        """The terms as a read-only dict {X-exponents: CoeffElement}."""
        support = self._support
        if support is None:
            support = self._support = _support_view(self.ring, self.keys, self.vecs)
        return support

    # -- inspection ----------------------------------------------------

    def meta(self):
        """(window, pole bound, pole set): what product_meta and sum_meta fold."""
        return self.window, self.pole_bound, self.pole_set

    def is_exact(self):
        return all(w == INF for w in self.window)

    def _has_terms(self):
        # an element in dict form has a fraction coefficient, so a term
        return self.keys is None or len(self.keys) > 0

    def is_zero(self):
        """Certified zero; raises when precision cannot settle it."""
        if self._has_terms():
            return False
        if self.is_exact():
            return True
        raise PrecisionError("cannot distinguish 0 from a small element at this window")

    # -- arithmetic ----------------------------------------------------

    def _require_ring(self, other):
        if self.ring is not other.ring and not self.ring.same_as(other.ring):
            raise ValueError("elements live in different series rings")

    def __add__(self, other):
        other = self._coerce(other)
        self._require_ring(other)
        ring = self.ring
        window = tuple(map(min, self.window, other.window))
        pole_bound = max(self.pole_bound, other.pole_bound)
        pole_set = self.pole_set | other.pole_set
        if self.keys is None or other.keys is None:
            support = _add_terms(dict(self.support), other.support.items())
            return LaurentElement._from_support(
                ring, support, pole_bound, window, pole_set
            )
        window = _clip(ring, window, pole_bound)
        (ka, va), (kb, vb) = _rows_in(self, window), _rows_in(other, window)
        if len(ka) < len(kb):
            (ka, va), (kb, vb) = (kb, vb), (ka, va)
        if not len(kb):
            keys, vecs = ka, va
        elif kb[-1].tolist() < ka[0].tolist():
            keys, vecs = np.concatenate((kb, ka)), np.concatenate((vb, va))
        elif ka[-1].tolist() < kb[0].tolist():
            keys, vecs = np.concatenate((ka, kb)), np.concatenate((va, vb))
        elif len(kb) == 1:
            keys, vecs = _add_row(ring.coeffs.p, ka, va, kb, vb)
        else:
            keys, vecs = ring.coeffs._sum_per_key(
                np.concatenate((ka, kb)), np.concatenate((va, vb)), None
            )
        return LaurentElement._from_rows(
            ring, keys, vecs, pole_bound, window, pole_set, clipped=True
        )

    def __neg__(self):
        ring = self.ring
        if self.keys is None:
            return LaurentElement._from_support(
                ring, {e: -c for e, c in self.support.items()},
                self.pole_bound, self.window, self.pole_set, clipped=True,
            )
        return LaurentElement._from_rows(
            ring, self.keys, -self.vecs % ring.coeffs.p,
            self.pole_bound, self.window, self.pole_set, clipped=True,
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._require_ring(other)
        return self._times(other)

    def _times(self, other):
        ring = self.ring
        # the window is clipped here, not in _from_rows, because the
        # products below stop at it, so the result needs no second pass
        window, pole_bound, pole_set = product_meta(ring, self.meta(), other.meta())
        a, b = self.keys, other.keys
        if a is None or b is None:
            return LaurentElement._from_support(
                ring, self._pair_products(other, window),
                pole_bound, window, pole_set, clipped=True,
            )
        if not len(a) or not len(b):
            keys, vecs = a[:0], self.vecs[:0]
        elif len(b) == 1:
            keys, vecs = _row_times(ring, a, self.vecs, b[0], other.vecs[0], window)
        elif len(a) == 1:
            keys, vecs = _row_times(ring, b, other.vecs, a[0], self.vecs[0], window)
        else:
            keys, vecs = ring.coeffs.mul_rows(
                a, self.vecs, b, other.vecs, window
            )
        return LaurentElement._from_rows(
            ring, keys, vecs, pole_bound, window, pole_set, clipped=True
        )

    def _pair_products(self, other, window):
        """The product's support, one coefficient product per pair of terms.

        Only for coefficients with a denominator: such a coefficient
        multiplies as a fraction, and summing two needs a common denominator
        (CoeffElement.__add__), which is not a sum of numerator rows.
        """
        support = {}
        for e1, c1 in self.support.items():
            for e2, c2 in other.support.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if any(x > w for x, w in zip(e, window)):
                    continue
                prod = c1 * c2
                cur = support.get(e)
                s = prod if cur is None else cur + prod
                if s.is_zero():
                    support.pop(e, None)
                else:
                    support[e] = s
        check_keys(list(support))
        return support

    def _one_row(self):
        """(X-exponents, t-exponents, vector) of an element with one term
        whose coefficient is one row (one t-monomial, no denominator);
        None for any other element."""
        if self.keys is not None and len(self.keys) == 1:
            key = self.keys[0].tolist()
            nv = self.ring.nvars
            return tuple(key[:nv]), tuple(key[nv:]), self.vecs[0].copy()
        return None

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        return power(self, n, self.ring.one(), operator.mul)

    def _coerce(self, other):
        if isinstance(other, LaurentElement):
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        if isinstance(other, CoeffElement):
            return self.ring.constant(other)
        raise TypeError(f"cannot coerce {other!r}")

    def monomial_shift(self, shift):
        """Multiply by the monomial X^shift; the window shifts exactly."""
        shift = tuple(shift)
        ring = self.ring
        nv = ring.nvars
        window = tuple(
            w + s if w != INF else INF for w, s in zip(self.window, shift)
        )
        keys = self.keys
        if keys is not None and len(keys):
            mins = [x + s for x, s in zip(keys[:, :nv].min(axis=0).tolist(), shift)]
            maxs = [x + s for x, s in zip(keys[:, :nv].max(axis=0).tolist(), shift)]
            if -EXP_BOUND <= min(mins) and max(maxs) <= EXP_BOUND:
                pole_set = self.pole_set | frozenset(
                    i for i, v in enumerate(mins) if v < 0
                )
                if any(shift):
                    keys = keys + (shift + (0,) * ring.coeffs.total_d)
                return LaurentElement._from_rows(
                    ring, keys, self.vecs, max(0, -min(mins)), window, pole_set
                )
        # a fraction coefficient, no term, or an exponent past EXP_BOUND,
        # which the public constructor refuses unless the window drops it
        support = {
            tuple(e + s for e, s in zip(exps, shift)): c
            for exps, c in self.support.items()
        }
        mins = [min((e[i] for e in support), default=0) for i in range(nv)]
        pole_bound = max(0, -min(mins, default=0))
        pole_set = self.pole_set | frozenset(
            i for i, v in enumerate(mins) if v < 0
        )
        return LaurentElement(ring, support, pole_bound, window, pole_set)

    def scale(self, c):
        """Multiply by a coefficient-ring element (window unchanged: the
        constant is exact and has no pole)."""
        if isinstance(c, int):
            c = self.ring.coeffs.from_int(c)
        return self._times(self.ring.constant(c))

    def truncated(self, window):
        if isinstance(window, int):
            window = (window,) * self.ring.nvars
        window = tuple(min(a, b) for a, b in zip(self.window, window))
        if self.keys is None:
            return LaurentElement._from_support(
                self.ring, dict(self.support), self.pole_bound, window, self.pole_set
            )
        return LaurentElement._from_rows(
            self.ring, self.keys, self.vecs, self.pole_bound, window, self.pole_set
        )

    def eq_window(self, other):
        """Equality of all coefficients on the common certified window."""
        return self._agrees_on_window(self._coerce(other))[0]

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        equal, window = self._agrees_on_window(other)
        if not equal:
            return False
        if all(w == INF for w in window):
            return True
        raise PrecisionError(
            "elements agree on the certified window but are not exact; "
            "use eq_window for window-level comparison"
        )

    def _agrees_on_window(self, other):
        """(whether the coefficients agree, the window they are compared on).

        The window is that of ``self - other``: the least window clipped to
        the caps less the larger pole bound.  The coefficients are compared
        without forming the difference: two row blocks by their rows on the
        window (both in block order), and otherwise term by term.
        """
        self._require_ring(other)
        window = _clip(
            self.ring,
            tuple(map(min, self.window, other.window)),
            max(self.pole_bound, other.pole_bound),
        )
        if self.keys is not None and other.keys is not None:
            (ka, va), (kb, vb) = _rows_in(self, window), _rows_in(other, window)
            equal = len(ka) == len(kb) and (ka == kb).all() and (va == vb).all()
            return bool(equal), window
        finite = [(i, w) for i, w in enumerate(window) if w != INF]
        theirs = other.support
        count = 0
        for e, c in self.support.items():
            if finite and any(e[i] > w for i, w in finite):
                continue
            d = theirs.get(e)
            if d is None or not c == d:
                return False, window
            count += 1
        if finite:
            count -= sum(
                all(e[i] <= w for i, w in finite) for e in theirs
            )
        else:
            count -= len(theirs)
        return count == 0, window

    def __hash__(self):
        raise TypeError("LaurentElement is not hashable")

    # -- valuations and units ------------------------------------------

    def val(self, alpha):
        """Minimal X_alpha-exponent over the support; +inf for exact zero."""
        if isinstance(alpha, str):
            alpha = self.ring.var_index[alpha]
        if not self._has_terms():
            if self.is_exact():
                return INF
            raise PrecisionError("valuation not certified at this precision")
        if self.keys is None:
            return min(e[alpha] for e in self.support)
        return min(self.keys[:, alpha].tolist())

    def val_total(self):
        if not self._has_terms():
            if self.is_exact():
                return INF
            raise PrecisionError("valuation not certified at this precision")
        if self.keys is None:
            return min(sum(e) for e in self.support)
        return int(self.keys[:, : self.ring.nvars].sum(axis=1).min())

    def unit_verdict(self):
        """'unit', 'nonunit', or 'undecided' (insufficient precision/form)."""
        v, _ = self._corner_analysis()
        return v

    def try_invert(self):
        """The inverse, or None when the verdict is not 'unit'."""
        try:
            return self.invert()
        except NotInvertibleError:
            return None

    def _monomial(self):
        """(X-exponents, vector) of a term c X^v whose coefficient c is one
        t-free row; None for any other element."""
        row = self._one_row()
        if row is None or any(row[1]):
            return None
        return row[0], row[2]

    def _corner_analysis(self):
        """``(verdict, parts)``: for a unit, one ``(b_j, a_j, v, w)`` per
        part, with the part's idempotent b_j, its component a_j = b_j * self,
        its unique minimal corner v, and w the inverse of the corner
        coefficient within the component; otherwise parts is None.

        A term c X^v with a t-free coefficient c that ``fd_inv`` inverts is
        one part (1, self, v, c^-1), found without the idempotent split: c
        is a unit in every component, so each b_j c X^v keeps v as its
        unique minimal corner.  Every other element (a zero divisor c
        included) has one part per idempotent b_j (1 for one component,
        where a_j is self), and w comes from the corner's one unit analysis.
        """
        alg = self.ring.coeffs
        mono = self._monomial()
        if mono is not None:
            v, c = mono
            try:
                w = alg.fd_inv(c)
            except NotInvertibleError:
                pass  # some component of c is not a unit: decided below
            else:
                return "unit", [(alg.one(), self, v, alg.from_fdelta(w))]
        dec = alg.idempotent_decomposition()
        parts = []
        for j in range(dec.ell):
            if dec.ell == 1:
                bj, aj = alg.one(), self
            else:
                bj = alg.from_fdelta(dec.idempotents[j])
                aj = self.scale(bj)
            if not aj._has_terms():
                return ("nonunit" if self.is_exact() else "undecided"), None
            minimal = _minimal_corners(aj.support)
            if len(minimal) > 1:
                return "nonunit", None
            (v,) = minimal
            c = aj.support[v]
            if dec.ell > 1:
                # test invertibility within the component: patch the other
                # components with 1 and ask for a global unit
                c = c + (alg.one() - bj)
            verdict, w = c._unit_analysis()
            if verdict == "zero_divisor_or_zero":
                return "nonunit", None
            if verdict == "undecided":
                return "undecided", None
            parts.append((bj, aj, v, w))
        return "unit", parts

    def invert(self):
        """The inverse, exact on the returned window.

        A unit term c X^v with a t-free coefficient, window W, inverts in
        closed form: the one row c^-1 X^-v, with the window, pole bound and
        pole set of ``ring.constant(c^-1).truncated(W - v)
        .monomial_shift(-v)``, which are those the series below folds when
        g has no term.

        Otherwise, per idempotent component b_j, ``_corner_analysis`` gives
        a_j = w^-1 X^v (b_j - g) with g of positive total degree, so the
        inverse there is w X^-v (b_j + g + g^2 + ...) (g = b_j g).  Only
        terms of total degree <= D = sum of the precision caps fit in a
        window, so the series is cut after g^D and taken by doubling: (b_j +
        g)(b_j + g^2)(b_j + g^4)... = sum of g^i for i < 2^k, in
        2 ceil(log2(D + 1)) - 2 products, stopping once 2^k > D.  Every
        product and sum folds only g's window (cut to the caps), pole bound
        0 and pole set with the exact metadata of b_j, so the window, pole
        bound and pole set are those of the term-by-term geometric series;
        g has no negative exponent, so cutting a factor to the window
        changes no coefficient on it, and the values there are that
        series' values.
        """
        verdict, parts = self._corner_analysis()
        if verdict != "unit":
            raise NotInvertibleError(f"element is {verdict}")
        ring = self.ring
        if self._monomial() is not None:
            ((_, _, v, w),) = parts
            window = tuple(
                x if x == INF else min(x - e, cap) - e
                for x, e, cap in zip(self.window, v, ring.precision)
            )
            key = np.array([[-e for e in v] + [0] * ring.coeffs.total_d], dtype=np.int64)
            return LaurentElement._from_rows(
                ring, key, w.constant_fd()[None, :], max(0, *v), window,
                frozenset(i for i, e in enumerate(v) if e > 0),
            )
        D = sum(ring.precision)
        total = None
        for bj, aj, v, w in parts:
            unit_part = ring.constant(bj)
            shifted = aj.monomial_shift(tuple(-x for x in v)).scale(w)
            g = unit_part - shifted  # all terms have total degree >= 1
            if not g._has_terms():
                inv = unit_part.truncated(shifted.window)
            else:
                g = g.truncated(ring.precision)
                inv, pw, reach = unit_part + g, g, 2
                while reach <= D:
                    pw = pw * pw
                    inv = inv + inv * pw
                    reach *= 2
            inv = inv.scale(w).monomial_shift(tuple(-x for x in v))
            total = inv if total is None else total + inv
        return total

    # -- repr ----------------------------------------------------------

    def __repr__(self):
        if not self._has_terms():
            return "0" + ("" if self.is_exact() else f" + O(window {self.window})")
        parts = []
        for e in sorted(self.support, key=lambda t: (sum(t), t)):
            mono = "*".join(
                f"{self.ring.variables[i]}^{k}" if k != 1 else self.ring.variables[i]
                for i, k in enumerate(e)
                if k
            )
            c = self.support[e]
            parts.append(f"({c!r})*{mono}" if mono else f"({c!r})")
        tail = "" if self.is_exact() else f" + O(window {self.window})"
        return " + ".join(parts[:8]) + (" + ..." if len(parts) > 8 else "") + tail


def _no_rows(ring):
    """An empty row block of ``ring``."""
    return (
        np.empty((0, ring.nvars + ring.coeffs.total_d), dtype=np.int64),
        np.empty((0, ring.coeffs.N), dtype=np.int64),
    )


def _rows_in(x, window):
    """The rows of the row block ``x`` within ``window``; they all lie in
    x's own window."""
    if window == x.window:
        return x.keys, x.vecs
    return rows_within(x.keys, x.vecs, window)


def _add_row(p, keys, vecs, key0, v0):
    """The block ``(keys, vecs)`` plus the one row (key0, v0), whose key is
    not past both ends: added to the row of the same key, or inserted."""
    rows, row = keys.tolist(), key0[0].tolist()
    i = bisect.bisect_left(rows, row)
    if rows[i] != row:
        return (
            np.concatenate((keys[:i], key0, keys[i:])),
            np.concatenate((vecs[:i], v0, vecs[i:])),
        )
    v = (vecs[i] + v0[0]) % p
    if not v.any():
        return (
            np.concatenate((keys[:i], keys[i + 1:])),
            np.concatenate((vecs[:i], vecs[i + 1:])),
        )
    vecs = vecs.copy()
    vecs[i] = v
    return keys, vecs


def _pack(ring, terms):
    """The row block of ``terms``, (X-exponents, numerator) pairs with
    distinct X-exponents: one row per t-monomial of each numerator, sorted
    into block order."""
    keys = [e + m for e, num in terms for m in num]
    if not keys:
        return _no_rows(ring)
    keys = np.array(keys, dtype=np.int64)
    vecs = np.array([v for _, num in terms for v in num.values()], dtype=np.int64)
    if len(keys) > 1:
        order = np.lexsort(keys.T[::-1])
        keys, vecs = keys[order], vecs[order]
    return keys, vecs


def _support_view(ring, keys, vecs):
    """The read-only dict {X-exponents: CoeffElement} of a row block; each
    vector is copied, so the dict holds no view of the block."""
    nv = ring.nvars
    nums = {}
    for key, vec in zip(keys.tolist(), vecs):
        e = tuple(key[:nv])
        num = nums.get(e)
        if num is None:
            nums[e] = num = {}
        num[tuple(key[nv:])] = vec.copy()
    alg = ring.coeffs
    return MappingProxyType({e: CoeffElement(alg, num, ()) for e, num in nums.items()})


def _add_terms(support, terms):
    """Add the (X-exponents, CoeffElement) pairs ``terms`` into the dict
    ``support``, dropping the sums that vanish; returns ``support``."""
    for e, c in terms:
        cur = support.get(e)
        s = c if cur is None else cur + c
        if s.is_zero():
            support.pop(e, None)
        else:
            support[e] = s
    return support


def _row_times(ring, keys, vecs, key0, v0, window):
    """The rows ``(keys, vecs)`` times the one row (key0, v0), cut to
    ``window``: every key shifts by key0, which keeps the block order, and
    the vectors go through ``CoefficientAlgebra.row_times`` in one batch;
    zero products are dropped.  Shifted keys past EXP_BOUND that survive
    the cut are refused."""
    if key0.any():
        keys, vecs = rows_within(keys + key0, vecs, window)
        check_block(keys)
    else:
        keys, vecs = rows_within(keys, vecs, window)
    return nonzero_rows(keys, ring.coeffs.row_times(vecs, v0))


def _minimal_corners(supp):
    out = []
    for e in supp:
        if not any(
            f != e and all(x <= y for x, y in zip(f, e)) for f in supp
        ):
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# p-adic binomial series


def digits_for_window(p: int, N: int) -> int:
    """The least M >= 1 with p^M > N: base-p digits of c up to position
    floor(log_p N) fix C(c, k) mod p for every k <= N (Lucas)."""
    M = 1
    while p**M <= N:
        M += 1
    return M


def binomial_power(ring: SeriesRingSpec, alpha, c: PAdicUnitApprox) -> LaurentElement:
    """(1 + X_alpha)^c - 1, truncated at the ring's precision cap.

    The truncation is exact once c carries ``digits_for_window(p, N)``
    digits.
    """
    if isinstance(alpha, str):
        alpha = ring.var_index[alpha]
    p = ring.coeffs.p
    if c.p != p:
        raise ValueError("p mismatch")
    N = ring.precision[alpha]
    needed = digits_for_window(p, N)
    if c.M < needed:
        raise PrecisionError(
            f"digit precision M={c.M} insufficient for window {N} (need {needed})"
        )
    digits = c.digits()
    exps, coeffs = [], []
    for k in range(1, N + 1):
        coeff = _lucas_binomial(digits, k, p)
        if coeff:
            exps.append(k)
            coeffs.append(coeff)
    # one row per k: X_alpha^k with the constant C(c, k), in block order
    keys = np.zeros((len(exps), ring.nvars + ring.coeffs.total_d), dtype=np.int64)
    keys[:, alpha] = exps
    vecs = np.zeros((len(exps), ring.coeffs.N), dtype=np.int64)
    vecs[:, 0] = coeffs
    window = tuple(N if i == alpha else INF for i in range(ring.nvars))
    return LaurentElement._from_rows(ring, keys, vecs, 0, window, frozenset())


def _lucas_binomial(digits, k, p):
    out = 1
    pos = 0
    while k:
        kd = k % p
        cd = digits[pos] if pos < len(digits) else 0
        out = (out * math.comb(cd, kd)) % p
        if out == 0:
            return 0
        k //= p
        pos += 1
    return out


# ---------------------------------------------------------------------------
# JSON (schema "laurent")


def laurent_to_json(a: LaurentElement) -> dict:
    ring = a.ring
    if a.keys is None:
        terms = [
            {
                "exps": {ring.variables[i]: int(e) for i, e in enumerate(exps) if e},
                "coeff": element_to_json(c),
            }
            for exps, c in sorted(a.support.items())
        ]
    else:
        # block order is sorted by X-exponents, then t-exponents: the order
        # of the terms and of each numerator
        nv, tsymbols = ring.nvars, ring.coeffs.tsymbols
        terms, last = [], None
        for key, vec in zip(a.keys.tolist(), a.vecs.tolist()):
            if key[:nv] != last:
                last = key[:nv]
                numerator = []
                terms.append({
                    "exps": {v: e for v, e in zip(ring.variables, last) if e},
                    "coeff": {"numerator": numerator, "denominator": []},
                })
            numerator.append({
                "fdelta_coeff": vec,
                "monomial": {s: m for s, m in zip(tsymbols, key[nv:]) if m},
            })
    return {
        "pole_bound": a.pole_bound,
        "window": {
            v: (None if a.window[i] == INF else int(a.window[i]))
            for i, v in enumerate(ring.variables)
        },
        "terms": terms,
    }


def laurent_from_json(ring: SeriesRingSpec, data: dict) -> LaurentElement:
    window = tuple(
        INF if data.get("window", {}).get(v) is None else int(data["window"][v])
        for v in ring.variables
    )
    support = {}
    for term in data.get("terms", []):
        exps = tuple(int(term.get("exps", {}).get(v, 0)) for v in ring.variables)
        support[exps] = element_from_json(ring.coeffs, term["coeff"])
    pole_bound = int(data.get("pole_bound", 0))
    pole_set = frozenset(
        i for i in range(ring.nvars) if any(e[i] < 0 for e in support)
    )
    return LaurentElement(ring, support, pole_bound, window, pole_set)
