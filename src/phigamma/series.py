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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .coeff import (
    CoeffElement,
    CoefficientAlgebra,
    NotInvertibleError,
    element_from_json,
    element_to_json,
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

    def __init__(self, coeffs: CoefficientAlgebra, precision=16, variables=None):
        self.coeffs = coeffs
        self.nvars = coeffs.nvars
        if variables is None:
            variables = tuple(f"X_{lbl}" for lbl in coeffs.labels)
        if len(variables) != self.nvars:
            raise ValueError("one series variable per tensor factor required")
        self.variables = tuple(variables)
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


class LaurentElement:
    __slots__ = ("ring", "support", "pole_bound", "window", "pole_set")

    def __init__(self, ring, support, pole_bound, window, pole_set=frozenset()):
        self.ring = ring
        self.pole_bound = pole_bound
        self.pole_set = frozenset(pole_set)
        window = tuple(
            min(w, ring.precision[i] - pole_bound) if w != INF else INF
            for i, w in enumerate(window)
        )
        clean = {}
        for exps, c in support.items():
            if c.is_zero():
                continue
            if any(e > w for e, w in zip(exps, window)):
                continue
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

    # -- inspection ----------------------------------------------------

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
        if not self.ring.same_as(other.ring):
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
        return LaurentElement(
            self.ring,
            support,
            max(self.pole_bound, other.pole_bound),
            window,
            self.pole_set | other.pole_set,
        )

    def __neg__(self):
        return LaurentElement(
            self.ring,
            {e: -c for e, c in self.support.items()},
            self.pole_bound,
            self.window,
            self.pole_set,
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def _effective_poles(self):
        return tuple(
            self.pole_bound if i in self.pole_set else 0 for i in range(self.ring.nvars)
        )

    def __mul__(self, other):
        other = self._coerce(other)
        self._require_ring(other)
        ma = self._effective_poles()
        mb = other._effective_poles()
        # a coefficient at e is exact unless an unknown term of one factor
        # (beyond its window) can pair with a deepest-pole term of the other
        window = tuple(
            min(wa - pb, wb - pa)
            for wa, wb, pa, pb in zip(self.window, other.window, ma, mb)
        )
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
        return LaurentElement(
            self.ring,
            support,
            self.pole_bound + other.pole_bound,
            window,
            self.pole_set | other.pole_set,
        )

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
        """Multiply by a coefficient-ring element (window unchanged)."""
        if isinstance(c, int):
            c = self.ring.coeffs.from_int(c)
        support = {}
        for e, v in self.support.items():
            s = v * c
            if not s.is_zero():
                support[e] = s
        return LaurentElement(
            self.ring, support, self.pole_bound, self.window, self.pole_set
        )

    def truncated(self, window):
        if isinstance(window, int):
            window = (window,) * self.ring.nvars
        window = tuple(min(a, b) for a, b in zip(self.window, window))
        return LaurentElement(
            self.ring, self.support, self.pole_bound, window, self.pole_set
        )

    def eq_window(self, other):
        """Equality of all coefficients on the common certified window."""
        other = self._coerce(other)
        diff = self - other
        return not diff.support

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        diff = self - other
        if diff.support:
            return False
        if diff.is_exact():
            return True
        raise PrecisionError(
            "elements agree on the certified window but are not exact; "
            "use eq_window for window-level comparison"
        )

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

    def _component_support(self, j):
        dec = self.ring.coeffs.idempotent_decomposition()
        if dec.ell == 1:
            return self.support
        out = {}
        for e, c in self.support.items():
            cj = c.idem_component(j)
            if not cj.is_zero():
                out[e] = cj
        return out

    def unit_verdict(self):
        """'unit', 'nonunit', or 'undecided' (insufficient precision/form)."""
        v, _ = self._corner_analysis()
        return v

    def _corner_analysis(self):
        """Per idempotent component, locate the unique minimal corner.

        Returns ``(verdict, corners)`` where corners maps component index j to
        ``(exps, coeff)`` with coeff the corner coefficient of component j.
        """
        ring = self.ring
        alg = ring.coeffs
        if not self.support:
            if self.is_exact():
                return "nonunit", None
            return "undecided", None
        dec = alg.idempotent_decomposition()
        corners = {}
        for j in range(dec.ell):
            supp = self._component_support(j)
            if not supp:
                if self.is_exact():
                    return "nonunit", None
                return "undecided", None
            minimal = _minimal_corners(supp)
            if len(minimal) > 1:
                return "nonunit", None
            (v,) = minimal
            c = supp[v]
            if dec.ell > 1:
                # test invertibility within the component: patch the other
                # components with 1 and ask for a global unit
                comp = alg.one() - alg.from_fdelta(dec.idempotents[j])
                c_test = c + comp
            else:
                c_test = c
            verdict = c_test.unit_verdict()
            if verdict == "zero_divisor_or_zero":
                return "nonunit", None
            if verdict == "undecided":
                return "undecided", None
            corners[j] = (v, c_test)
        return "unit", corners

    def invert(self):
        """The inverse, exact on the returned window.

        Per idempotent component the element is corner * (1 + h) with h of
        positive total degree after the corner shift; the geometric series of
        h terminates on any finite window.
        """
        verdict, corners = self._corner_analysis()
        if verdict != "unit":
            raise NotInvertibleError(f"element is {verdict}")
        ring = self.ring
        alg = ring.coeffs
        dec = alg.idempotent_decomposition()
        total = ring.zero()
        for j, (v, c_test) in corners.items():
            w = c_test.invert()
            if dec.ell == 1:
                aj = self
                unit_part = ring.one()
            else:
                bj = alg.from_fdelta(dec.idempotents[j])
                aj = self.scale(bj)
                unit_part = ring.constant(bj)
            shifted = aj.monomial_shift(tuple(-x for x in v)).scale(w)
            h = shifted - unit_part  # all terms have total degree >= 1
            if not h.support:
                inv = unit_part.truncated(shifted.window)
            else:
                h = h.truncated(ring.precision)
                inv = unit_part
                # h^k has total degree >= k, so it dies once k exceeds the
                # sum of the per-variable windows
                for _ in range(sum(ring.precision) + 1):
                    inv = unit_part - h * inv
            total = total + inv.scale(w).monomial_shift(tuple(-x for x in v))
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
