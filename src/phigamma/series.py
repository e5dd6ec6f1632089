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

A product of two series is one call of the coefficient kernel
``CoefficientAlgebra.mul_rows``: every term of every coefficient becomes a
row keyed by its X-exponents followed by its t-exponents, so all pair
products, the window cut and the sums per exponent happen in one batch.
When one operand is a single row (one term, one t-monomial, no
denominator), such as a monomial or a constant, the product is a shift
and a scale instead: the other operand's X-exponents shift by the row's,
and all its coefficients go through ``CoefficientAlgebra.row_times``, one
matmul with the row's left-multiplication matrix.  No keys are grouped,
because the shifted keys stay distinct.
Results of the ring operations are built without the public constructor's
checks (their supports are nonzero and their poles lie in the pole set by
construction); the window is still clipped and terms beyond it dropped.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .coeff import (
    EXP_BOUND,
    CoeffElement,
    CoefficientAlgebra,
    NotInvertibleError,
    check_exponent,
    check_keys,
    element_from_json,
    element_to_json,
    key_rows,
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
        return LaurentElement(self, {}, 0, (INF,) * self.nvars)

    def one(self):
        return self.constant(self.coeffs.one())

    def constant(self, c):
        if isinstance(c, int):
            c = self.coeffs.from_int(c)
        if c.is_zero():
            return self.zero()
        return LaurentElement(self, {(0,) * self.nvars: c}, 0, (INF,) * self.nvars)

    def monomial(self, exps, coeff=None):
        exps = tuple(exps)
        coeff = self.coeffs.one() if coeff is None else coeff
        if isinstance(coeff, int):
            coeff = self.coeffs.from_int(coeff)
        if coeff.is_zero():
            return self.zero()
        m = max(0, -min(exps))
        pole_set = frozenset(i for i, e in enumerate(exps) if e < 0)
        return LaurentElement(
            self, {exps: coeff}, m, (INF,) * self.nvars, pole_set
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
    metadata, added in any order (``__add__`` and ``_trusted``): the least
    window clipped to the caps less the largest pole bound."""
    windows, bounds, sets = zip(*metas)
    pole_bound = max(bounds)
    return (
        _clip(ring, tuple(map(min, zip(*windows))), pole_bound),
        pole_bound,
        frozenset().union(*sets),
    )


class LaurentElement:
    __slots__ = ("ring", "support", "pole_bound", "window", "pole_set")

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
        self.support = clean
        self.window = window

    @classmethod
    def _trusted(cls, ring, support, pole_bound, window, pole_set, clipped=False):
        """A result of the ring operations, built without the checks above:
        no zero coefficients, and negative exponents only in ``pole_set``
        and above ``-pole_bound``.  The window is clipped as above and the
        terms beyond it are dropped, unless ``clipped`` says that the caller
        has done both."""
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
        el.support = support
        return el

    # -- inspection ----------------------------------------------------

    def meta(self):
        """(window, pole bound, pole set): what product_meta and sum_meta fold."""
        return self.window, self.pole_bound, self.pole_set

    def is_exact(self):
        return all(w == INF for w in self.window)

    def is_zero(self):
        """Certified zero; raises when precision cannot settle it."""
        if self.support:
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
        window = tuple(min(a, b) for a, b in zip(self.window, other.window))
        support = dict(self.support)
        for e, c in other.support.items():
            cur = support.get(e)
            s = c if cur is None else cur + c
            if s.is_zero():
                support.pop(e, None)
            else:
                support[e] = s
        return LaurentElement._trusted(
            self.ring,
            support,
            max(self.pole_bound, other.pole_bound),
            window,
            self.pole_set | other.pole_set,
        )

    def __neg__(self):
        return LaurentElement._trusted(
            self.ring,
            {e: -c for e, c in self.support.items()},
            self.pole_bound,
            self.window,
            self.pole_set,
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._require_ring(other)
        return self._times(other)

    def _times(self, other):
        ring = self.ring
        # the window is clipped here, not in _trusted, because the products
        # below stop at it, so the result needs no second pass over its terms
        window, pole_bound, pole_set = product_meta(ring, self.meta(), other.meta())
        support = {}
        if self.support and other.support:
            row, rest = other._one_row(), self
            if row is None:
                row, rest = self._one_row(), other
            if row is not None:
                support = _row_times(ring, rest.support, *row, window)
            elif (rows_a := self._rows()) is None or (rows_b := other._rows()) is None:
                support = self._pair_products(other, window)
            else:
                limit = None
                if any(w != INF for w in window):
                    limit = np.array(window + (INF,) * ring.coeffs.total_d)
                keys, vecs = ring.coeffs.mul_rows(*rows_a, *rows_b, limit)
                support = _support_from_rows(ring, keys, vecs)
        return LaurentElement._trusted(
            ring, support, pole_bound, window, pole_set, clipped=True
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
        return support

    def _one_row(self):
        """(X-exponents, t-exponents, vector) of an element with one term
        whose coefficient is one row (one t-monomial, no denominator);
        None for any other element."""
        if len(self.support) == 1:
            ((e, c),) = self.support.items()
            if not c.den and len(c.num) == 1:
                ((m, v),) = c.num.items()
                return e, m, v
        return None

    def _rows(self):
        """Every term of every coefficient as a row: key (X-exponents,
        t-exponents) and its finite-part vector (see coeff.mul_rows); None
        when a coefficient has a denominator."""
        keys, vecs = [], []
        for e, c in self.support.items():
            if c.den:
                return None
            for t, v in c.num.items():
                keys.append(e + t)
                vecs.append(v)
        return np.array(keys, dtype=np.int64), np.array(vecs)

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
        support = {
            tuple(e + s for e, s in zip(exps, shift)): c
            for exps, c in self.support.items()
        }
        window = tuple(
            w + s if w != INF else INF for w, s in zip(self.window, shift)
        )
        mins = [
            min((e[i] for e in support), default=0) for i in range(self.ring.nvars)
        ]
        pole_bound = max(0, -min(mins, default=0))
        pole_set = self.pole_set | frozenset(
            i for i, v in enumerate(mins) if v < 0
        )
        return LaurentElement(self.ring, support, pole_bound, window, pole_set)

    def scale(self, c):
        """Multiply by a coefficient-ring element (window unchanged: the
        constant is exact and has no pole)."""
        ring = self.ring
        if isinstance(c, int):
            c = ring.coeffs.from_int(c)
        constant = LaurentElement._trusted(
            ring, {} if c.is_zero() else {(0,) * ring.nvars: c}, 0,
            (INF,) * ring.nvars, frozenset(),
        )
        return self._times(constant)

    def truncated(self, window):
        if isinstance(window, int):
            window = (window,) * self.ring.nvars
        window = tuple(min(a, b) for a, b in zip(self.window, window))
        return LaurentElement._trusted(
            self.ring, self.support, self.pole_bound, window, self.pole_set
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
        term by term, without forming the difference.
        """
        self._require_ring(other)
        window = _clip(
            self.ring,
            tuple(map(min, self.window, other.window)),
            max(self.pole_bound, other.pole_bound),
        )
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
        if not self.support:
            if self.is_exact():
                return INF
            raise PrecisionError("valuation not certified at this precision")
        return min(e[alpha] for e in self.support)

    def val_total(self):
        if not self.support:
            if self.is_exact():
                return INF
            raise PrecisionError("valuation not certified at this precision")
        return min(sum(e) for e in self.support)

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

    def _corner_analysis(self):
        """``(verdict, parts)``: for a unit, one ``(b_j, a_j, v, w)`` per
        idempotent b_j (1 for one component), with the component
        a_j = b_j * self (self for one component), its unique minimal
        corner v, and w the inverse of the corner coefficient within the
        component, from its one unit analysis; otherwise parts is None."""
        alg = self.ring.coeffs
        dec = alg.idempotent_decomposition()
        parts = []
        for j in range(dec.ell):
            if dec.ell == 1:
                bj, aj = alg.one(), self
            else:
                bj = alg.from_fdelta(dec.idempotents[j])
                aj = self.scale(bj)
            if not aj.support:
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

        Per idempotent component b_j, ``_corner_analysis`` gives a_j =
        w^-1 X^v (b_j - g) with g of positive total degree, so the inverse
        there is w X^-v (b_j + g + g^2 + ...) (g = b_j g).  Only terms of
        total degree <= D = sum of the precision caps fit in a window, so
        the series is cut after g^D and taken by doubling: (b_j + g)(b_j +
        g^2)(b_j + g^4)... = sum of g^i for i < 2^k, in
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
        D = sum(ring.precision)
        total = None
        for bj, aj, v, w in parts:
            unit_part = ring.constant(bj)
            shifted = aj.monomial_shift(tuple(-x for x in v)).scale(w)
            g = unit_part - shifted  # all terms have total degree >= 1
            if not g.support:
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
        if not self.support:
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


def _support_from_rows(ring, keys, vecs):
    """The series support {X-exponents: CoeffElement} of mul_rows' output;
    each vector is copied, so the support holds no view of the batch."""
    nv = ring.nvars
    nums = {}
    for key, vec in zip(key_rows(keys), vecs):
        e = tuple(key[:nv])
        num = nums.get(e)
        if num is None:
            nums[e] = num = {}
        num[tuple(key[nv:])] = vec.copy()
    return {e: CoeffElement(ring.coeffs, num, ()) for e, num in nums.items()}


def _row_times(ring, support, e0, m0, v0, window):
    """The support ``support`` times the one-row term v0 t^m0 X^e0, cut to
    ``window``: each exponent shifts by e0, and every coefficient goes
    through ``CoefficientAlgebra.row_times`` in one batch, keeping its
    denominator.  Shifted exponents past EXP_BOUND that survive the cut are
    refused."""
    finite = [(i, w) for i, w in enumerate(window) if w != INF]
    shift = any(e0)
    keys, coeffs = [], []
    for e, c in support.items():
        if shift:
            e = tuple(map(operator.add, e, e0))
        if finite and any(e[i] > w for i, w in finite):
            continue
        keys.append(e)
        coeffs.append(c)
    if not keys:
        return {}
    if shift:
        check_keys(keys)
    alg = ring.coeffs
    nums = alg.row_times([c.num for c in coeffs], m0, v0)
    return {
        e: CoeffElement(alg, num, c.den)
        for e, c, num in zip(keys, coeffs, nums)
        if num
    }


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
    support = {}
    for k in range(1, N + 1):
        coeff = _lucas_binomial(digits, k, p)
        if coeff:
            exps = tuple(k if i == alpha else 0 for i in range(ring.nvars))
            support[exps] = ring.coeffs.from_int(coeff)
    window = tuple(N if i == alpha else INF for i in range(ring.nvars))
    return LaurentElement(ring, support, 0, window)


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
    return {
        "pole_bound": a.pole_bound,
        "window": {
            v: (None if a.window[i] == INF else int(a.window[i]))
            for i, v in enumerate(ring.variables)
        },
        "terms": [
            {
                "exps": {ring.variables[i]: int(e) for i, e in enumerate(exps) if e},
                "coeff": element_to_json(c),
            }
            for exps, c in sorted(a.support.items())
        ],
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
