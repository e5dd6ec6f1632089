"""Fixed-point solving, finite extensions with Galois actions, and the
rank-1 module functors.

The simultaneous Frobenius fixed-point problems here are solved exactly on a
certified subwindow W' with p*W' <= W: a candidate supported in W' has its
image supported in W, so the equation set is an exact finite F_p-linear
system.  Its unknowns sit in "slots": a module coordinate, powers of the
extension generators, X-exponents and a t-monomial.  The solver reads each
phi_alpha from stored data: every layer's continuation phi_alpha(y) = c*y,
and the module's phi matrix, diagonal with one-slot entries.  Each such c
and entry must be one slot w X^s t^m, so that each operator sends a slot to
one slot; anything else is refused.  Then phi_alpha keeps a slot's class
(coordinate, generator powers), multiplies the exponents that factor alpha
owns (X_alpha and alpha's t's) by p, adds the class's shift s, and sends
the coefficient through an invertible F_p-linear map.  A slot that an
operator moves never comes back: its chain leaves W', where the
coefficient is 0 (in a quotient by X_alpha^r, the backward chain ends at a
slot with no preimage), and injectivity forces every coefficient along it
to 0.  So the fixed slots are in closed form, E = -s/(p-1) on alpha's
exponents and s = 0 on the others, and one small nullspace over the finite
part per class gives their coefficients.

Extensions of the base ring are towers of Artin-Schreier (y^p - y = a,
Galois y -> y+1) and Kummer (y^e = a with e | p-1, Galois y -> zeta*y)
layers.  Powers of a generator are in closed form: y^k = a^(k div e) *
y^(k mod e) on a Kummer layer, and y^(p+j) = y^(j+1) + a*y^j for j <= p-2
on an Artin-Schreier layer, which covers every product of two reduced
elements.  A Kummer layer's Frobenius continuations follow one rule:
phi_v(y) = y^k * w with k = p in the layer's own direction and k = 1 in the
others, and w^e = phi_v(a)/a^k.  w = 1 when that quotient is 1 on the
window; otherwise w is an e-th root: a root r0 of the constant term times
the principal root of the rest, one power (1+h)^n with n*e = 1 mod p^M and
p^M past every cap, as (1+h)^(p^M) = 1 + h^(p^M) is 1 on the window.
r0 = 1 when the constant term is 1; any other r0 is found by enumerating
the finite part, which is not tried past p^N = 2^16 candidates.  Each w is
fixed only up to an e-th root of unity, so when some w is not 1 the
composite of the phi_v on y, which must be zeta*y^p with zeta^e = 1 a
constant, is computed, and phi_alpha(y) is divided by zeta.  A
continuation that cannot be found is recorded as unavailable.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import gfp
from .coeff import CoefficientAlgebra, CoeffElement, NotInvertibleError
from .endos import make_phi
from .fields import multiplicative_order, power
from .modules import PhiGammaModule, rank_one_from_units
from .series import (
    LaurentElement,
    PAdicUnitApprox,
    SeriesRingSpec,
    digits_for_window,
)


class BudgetExceededError(ValueError):
    """The requested descent needs splitting data beyond the supported
    extension builders."""


class SubwindowError(ValueError):
    pass


MAX_SLOTS = 2**16  # slots in one fixed-point box


# ---------------------------------------------------------------------------
# finite extensions


class FiniteExtension:
    """One layer y over a base series ring: Artin-Schreier or Kummer."""

    def __init__(self, base: SeriesRingSpec, kind, alpha, degree, a, zeta=None):
        self.base = base
        self.kind = kind  # "artin_schreier" | "kummer"
        self.alpha = alpha
        self.degree = degree
        self.a = a
        self.zeta = zeta
        self.phi_images = {}  # ring var -> dict {power: base elem}, or None
        self.phi_notes = {}

    def power(self, k):
        """y^k as a dict {j: base coefficient} with j < degree.

        An Artin-Schreier layer gives y^k for k <= 2p - 2, the largest
        exponent in a product of two reduced elements, and refuses more.
        """
        if self.kind == "kummer":
            q, rem = divmod(k, self.degree)
            return {rem: self.a**q}
        if k < self.degree:
            return {k: self.base.one()}
        if k > 2 * self.degree - 2:
            raise ValueError(f"y^{k} is past y^(2p-2) on an artin-schreier layer")
        # y^p = y + a, so y^(p+j) = y^(j+1) + a*y^j
        j = k - self.degree
        return {j + 1: self.base.one(), j: self.a}

    def galois_coeffs(self, k):
        """Image of y^k under the Galois generator, as {j: F_p scalar}."""
        p = self.base.coeffs.p
        if self.kind == "kummer":
            return {k: pow(self.zeta, k, p)}
        return {j: math.comb(k, j) % p for j in range(k + 1) if math.comb(k, j) % p}

    def galois_matrix(self):
        p = self.base.coeffs.p
        G = np.zeros((self.degree, self.degree), dtype=np.int64)
        for k in range(self.degree):
            for j, c in self.galois_coeffs(k).items():
                G[j, k] = c
        return G

    def relation_check(self):
        """The Galois generator respects the defining relation."""
        base = self.base
        if self.kind == "kummer":
            # (zeta y)^e = zeta^e y^e = y^e since zeta has order e
            return pow(self.zeta, self.degree, base.coeffs.p) == 1
        # (y+1)^p - (y+1) = y^p - y in characteristic p
        p = base.coeffs.p
        return all(math.comb(p, j) % p == 0 for j in range(1, p))


def build_artin_schreier(base: SeriesRingSpec, a: LaurentElement, alpha=0):
    """The degree-p extension y^p - y = a with Galois generator y -> y+1."""
    p = base.coeffs.p
    ext = FiniteExtension(base, "artin_schreier", alpha, p, a)
    phis = [make_phi(base, v) for v in range(base.nvars)]
    shifts = []  # u_v, or None where the continuation is unavailable
    for v, phi in enumerate(phis):
        u, residual = _solve_artin_schreier_aux(base, phi.apply(a) - a)
        shifts.append(u)
        ext.phi_notes[v] = (
            "ok" if u is not None else f"frobenius continuation unavailable: {residual}"
        )
    if all(u is not None for u in shifts):
        # each u_v is fixed only up to a constant c with c^p = c.  The other
        # phi_v, in order, send y to y + D, and phi_alpha after them to
        # y + u_alpha + phi_alpha(D), which must be y^p = y + a: the
        # difference is such a constant, and u_alpha absorbs it
        D = base.zero()
        for v, phi in enumerate(phis):
            if v != alpha:
                D = shifts[v] + phi.apply(D)
        c = (a - shifts[alpha] - phis[alpha].apply(D)).truncated(base.precision)
        if set(c.support) - {(0,) * base.nvars} or not (c**p).eq_window(c):
            raise AssertionError("artin-schreier continuations miss y^p = y + a")
        shifts[alpha] = shifts[alpha] + c
    for v, u in enumerate(shifts):  # y + u, with a zero u left out
        ext.phi_images[v] = None if u is None else {
            j: c for j, c in ((0, u), (1, base.one())) if c.support
        }
    assert ext.relation_check()
    return ext


def _solve_artin_schreier_aux(ring: SeriesRingSpec, d: LaurentElement):
    """A solution u of u^p - u = d in the Laurent ring, or (None, residual)."""
    p = ring.coeffs.p
    alg = ring.coeffs
    d = d.truncated(ring.precision)
    if not d.support:
        return ring.zero(), None
    pos = {}
    neg = {}
    const = None
    for e, c in d.support.items():
        if all(x == 0 for x in e):
            const = c
        elif min(e) >= 0:
            pos[e] = c
        else:
            neg[e] = c
    u = ring.zero()
    # positive part: u = -(d + d^p + d^{p^2} + ...), a finite sum at window
    if pos:
        dp = LaurentElement(ring, pos, 0, d.window, d.pole_set)
        acc = dp
        total = ring.zero()
        while acc.support:
            total = total + acc
            acc = (acc**p).truncated(ring.precision)
        u = u - total
    # constant part: x^p - x is F_p-linear on the finite part
    if const is not None:
        S = (alg.frob_s_matrix - np.eye(alg.N, dtype=np.int64)) % p
        sol = gfp.solve(S, const.constant_fd(), p)
        if sol is None:
            return None, "constant part not in the image of x -> x^p - x"
        u = u + ring.constant(alg.from_fdelta(sol))
    # negative part: u satisfies u^p = d + u; iterate p-th roots of the
    # divisible terms, which converges when a solution exists in the ring
    if neg:
        dn = LaurentElement(ring, neg, d.pole_bound, d.window, d.pole_set)
        un = ring.zero()
        for _ in range(2 * sum(ring.precision) + 4):
            nxt = _pth_root_partial(dn + un)
            if nxt.eq_window(un):
                un = nxt
                break
            un = nxt
        res = (un**p - un - dn).truncated(ring.precision)
        if res.support:
            return None, f"negative part residual {res!r}"
        u = u + un
    total_res = (u**p - u - d).truncated(ring.precision)
    if total_res.support:
        return None, f"residual {total_res!r}"
    return u, None


def _pth_root_partial(x: LaurentElement):
    """p-th root of the p-divisible terms of x (other terms are dropped)."""
    ring = x.ring
    alg = ring.coeffs
    p = alg.p
    root_mat = gfp.inv_matrix(alg.frob_s_matrix, p)
    out = ring.zero()
    for e, c in x.support.items():
        if any(k % p for k in e):
            continue
        if c.den or any(
            m[i] % p for m in c.num for i in range(alg.total_d)
        ):
            continue
        num = {}
        for m, vec in c.num.items():
            num[tuple(k // p for k in m)] = (root_mat @ vec) % p
        cr = CoeffElement(alg, num, ())
        out = out + ring.monomial(tuple(k // p for k in e), cr)
    return out


def build_kummer(base: SeriesRingSpec, a: LaurentElement, e: int, alpha=0):
    """The degree-e extension y^e = a (e | p-1, a a unit), Galois y -> zeta*y."""
    p = base.coeffs.p
    if (p - 1) % e != 0:
        raise ValueError(f"e = {e} does not divide p - 1 = {p - 1}")
    a_inv = a.try_invert()
    if a_inv is None:
        raise NotInvertibleError("kummer datum must be a certified unit")
    zeta = _primitive_root_power(p, e)
    ext = FiniteExtension(base, "kummer", alpha, e, a, zeta)
    rooted = False  # some w differs from 1
    for v in range(base.nvars):
        # phi_v(y) = y^k * w with w^e = phi_v(a) / a^k; the layer lives in
        # the alpha direction, where k = p
        k = p if v == alpha else 1
        q = make_phi(base, v).apply(a) * a_inv**k
        w = None
        if not q.eq_window(base.one()):
            w, note = _eth_root(base, q, e)
            if w is None:
                ext.phi_images[v] = None
                ext.phi_notes[v] = f"frobenius continuation unavailable: {note}"
                continue
            rooted = True
        img = ext.power(k)
        ext.phi_images[v] = img if w is None else {j: c * w for j, c in img.items()}
        ext.phi_notes[v] = "ok"
    if rooted and None not in ext.phi_images.values():
        # the other phi_v, then phi_alpha, send y to c * y^p with c^e = 1,
        # read from the quotient by y^p = a^(p div e) y^(p mod e)
        tower = ExtensionTower(base, [ext])
        image = {(1,): base.one()}
        for v in [*(v for v in range(base.nvars) if v != alpha), alpha]:
            image = tower.apply_phi(v, image)
        ((j, yp),) = ext.power(p).items()
        ratio = image.get((j,), base.zero()) * a_inv ** (p // e)
        c = ratio.support.get((0,) * base.nvars)
        if c is None or c**e != base.coeffs.one() or not tower.eq_window(
            image, {(j,): yp.scale(c)}
        ):
            raise AssertionError("kummer continuations miss y^p beyond a root of unity")
        ext.phi_images[alpha] = {
            i: x.scale(c ** (e - 1)) for i, x in ext.phi_images[alpha].items()
        }
    assert ext.relation_check()
    return ext


def _primitive_root_power(p, e):
    """An element of order exactly e in F_p^*."""
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return pow(g, (p - 1) // e, p)
    return 1  # p = 2, e = 1


def _eth_root(ring: SeriesRingSpec, q: LaurentElement, e: int):
    """An e-th root of a unit q = X^m*q0*(1+h): X^(m/e) when q's least
    exponents m are a term of q and e | m, times r0 = 1 when q0 = 1 (a
    principal unit), else r0 by enumeration, times (1+h)^(1/e) as one
    power of 1+h."""
    alg = ring.coeffs
    p = alg.p
    if not q.support:
        return None, "zero has no unit root"
    target = q
    m = tuple(map(min, zip(*q.support)))
    lead = None
    if any(m) and m in q.support and not any(x % e for x in m):
        lead = tuple(x // e for x in m)
        q = q.monomial_shift(tuple(-x for x in m))
    zero_exp = (0,) * ring.nvars
    c0 = q.support.get(zero_exp)
    if c0 is None:
        return None, "root requires a unit constant term in this presentation"
    q0 = c0.constant_fd() if c0.is_constant() else None
    if q0 is None:
        return None, "nonconstant corner coefficient"
    if np.array_equal(q0 % p, alg.fd_one()):
        r0 = alg.fd_one()
    else:
        r0, note = _fd_eth_root(alg, q0, e)
        if r0 is None:
            return None, note
    r0inv = alg.fd_inv(r0)
    scaled = q.scale(alg.from_fdelta(alg.fd_pow(r0inv, e)))
    h = scaled - ring.one()
    if h.support and min(sum(x) for x in h.support) < 1:
        return None, "principal part not congruent to 1"
    # (1+h)^(1/e) = (1+h)^n with n*e = 1 mod p^M: in characteristic p,
    # (1+h)^(p^M) = 1 + h^(p^M), and every term of h^(p^M) lies past the
    # window once p^M exceeds every cap
    w = ring.one()
    if h.support:
        w = scaled ** pow(e, -1, p ** digits_for_window(p, max(ring.precision)))
    w = w.scale(alg.from_fdelta(r0))
    if lead is not None:
        w = w.monomial_shift(lead)
    if (w**e).eq_window(target):
        return w, None
    return None, "root verification failed"


def _fd_eth_root(alg: CoefficientAlgebra, x, e):
    """An e-th root in the finite part by enumeration, as ``(root, None)``.

    ``(None, reason)`` when there is none, or when the p^N candidates exceed
    2^16 and the search is not made: a capped search is no verdict.
    """
    if alg.p**alg.N > 2**16:
        return None, "enumeration cap: more than 2^16 candidate constant terms"
    for combo in itertools.product(range(alg.p), repeat=alg.N):
        v = np.array(combo, dtype=np.int64)
        if np.array_equal(alg.fd_pow(v, e), x % alg.p):
            return v, None
    return None, "constant term is not an e-th power"


# ---------------------------------------------------------------------------
# towers


def _collect(pieces):
    """The tower element summing (generator powers, base element) pieces
    per key, with zero sums dropped."""
    out = {}
    for t, c in pieces:
        cur = out.get(t)
        out[t] = c if cur is None else cur + c
    return {t: c for t, c in out.items() if c.support}


class ExtensionTower:
    """A stack of extension layers over a common base ring.

    Elements are dicts mapping tuples of generator powers to base elements.
    """

    def __init__(self, ring: SeriesRingSpec, layers):
        self.ring = ring
        self.layers = list(layers)
        self.degrees = tuple(l.degree for l in self.layers)
        self.degree = 1
        for d in self.degrees:
            self.degree *= d
        self._phi_endos = {}

    def from_base(self, x: LaurentElement):
        return {(0,) * len(self.layers): x}

    def one(self):
        return self.from_base(self.ring.one())

    def add(self, a, b):
        return _collect(itertools.chain(a.items(), b.items()))

    def scale(self, a, x: LaurentElement):
        return _collect((t, c * x) for t, c in a.items())

    def reduce_monomial(self, tpow, coeff):
        items = [((), coeff)]
        for layer, k in zip(self.layers, tpow):
            tbl = layer.power(k)
            items = [
                (pref + (j,), c * mult)
                for pref, c in items
                for j, mult in tbl.items()
            ]
        return _collect(items)

    def mul(self, a, b):
        return _collect(
            piece
            for t1, c1 in a.items()
            for t2, c2 in b.items()
            for piece in self.reduce_monomial(
                tuple(x + y for x, y in zip(t1, t2)), c1 * c2
            ).items()
        )

    def pow(self, a, n):
        return power(a, n, self.one(), self.mul)

    def apply_phi(self, alpha, a):
        """The Frobenius phi_alpha extended to the tower."""
        if alpha not in self._phi_endos:
            self._phi_endos[alpha] = make_phi(self.ring, alpha)
        endo = self._phi_endos[alpha]
        gen_images = []
        for i, layer in enumerate(self.layers):
            img = layer.phi_images.get(alpha)
            if img is None:
                raise BudgetExceededError(
                    f"layer has no frobenius continuation: {layer.phi_notes.get(alpha)}"
                )
            gen_images.append({
                tuple(j if l == i else 0 for l in range(len(self.layers))): v
                for j, v in img.items()
            })

        def image(tpow, c):
            term = self.from_base(endo.apply(c))
            for img, k in zip(gen_images, tpow):
                if k:
                    term = self.mul(term, self.pow(img, k))
            return term

        return _collect(
            piece for tpow, c in a.items() for piece in image(tpow, c).items()
        )

    def apply_galois(self, layer_index, a):
        """The Galois generator of one layer (base coefficients fixed)."""
        layer = self.layers[layer_index]
        return _collect(
            (tuple(j if l == layer_index else k for l, k in enumerate(tpow)),
             c.scale(s))
            for tpow, c in a.items()
            for j, s in layer.galois_coeffs(tpow[layer_index]).items()
        )

    def eq_window(self, a, b):
        diff = self.add(a, {t: -c for t, c in b.items()})
        return all(not c.support for c in diff.values())

    def galois_invariants_report(self):
        """Per-layer invariance systems; the tower invariants equal the base
        ring iff every layer's system has the one-dimensional solution
        spanned by the constant power.

        The Galois matrices have scalar entries, so the flattened invariance
        system decouples into one copy of (G - I) per base slot; its
        nullspace over F_p is the whole computation.
        """
        p = self.ring.coeffs.p
        layers = []
        ok = True
        for layer in self.layers:
            G = layer.galois_matrix()
            ns = gfp.nullspace((G - np.eye(layer.degree, dtype=np.int64)) % p, p)
            e0 = [list(v) == [1] + [0] * (layer.degree - 1) for v in ns]
            good = len(ns) == 1 and e0[0]
            ok = ok and good
            layers.append(
                {
                    "kind": layer.kind,
                    "degree": layer.degree,
                    "invariant_dimension": len(ns),
                    "invariants_are_base": good,
                }
            )
        return {"layers": layers, "invariants_equal_base": ok}


# ---------------------------------------------------------------------------
# fixed point solver on slots


class FrobFixedSystem:
    """A simultaneous fixed-point problem for a set of phi_alpha operators.

    ``ambient`` is one of three shapes, and the solutions come back in it:
    a SeriesRingSpec (series), a PhiGammaModule (coordinate vectors of
    series), or a (tower, module) pair of an ExtensionTower and a module
    over its base ring (coordinate vectors of tower elements).  Inside,
    every problem is a tower, with no layers for the first two shapes, and
    an optional module.  The solver reads phi_alpha from the layers' stored
    continuations ``phi_images[alpha]`` and the module's phi matrix, which
    must be diagonal with one-slot entries, and finds the fixed slots in
    closed form (see the module docstring).  ``window`` is the certified
    exponent region W, ``subwindow`` the solution support region W' with
    p*W' <= W.  ``quotient`` = (alpha, r) works modulo X_alpha^r; its
    operators are then every phi_beta with beta != alpha by default, and
    phi_alpha is refused.
    """

    def __init__(self, ambient, operators=None, window=None, subwindow=None,
                 t_cap=4, quotient=None):
        self.ambient = ambient
        if isinstance(ambient, tuple):
            self.tower, self.module = ambient
        elif isinstance(ambient, PhiGammaModule):
            self.tower, self.module = ExtensionTower(ambient.ring, []), ambient
        elif isinstance(ambient, SeriesRingSpec):
            self.tower, self.module = ExtensionTower(ambient, []), None
        else:
            raise TypeError(f"unsupported ambient {ambient!r}")
        ring = self.ring = self.tower.ring
        p = ring.coeffs.p
        window = _sizes(
            "window", ring.precision if window is None else window, ring.nvars
        )
        if subwindow is None:
            subwindow = tuple(w // p for w in window)
        self.window = window
        self.subwindow = _sizes("subwindow", subwindow, ring.nvars)
        self.t_cap = _size("t_cap", t_cap)
        if quotient is not None:
            quotient = (quotient[0], _size("quotient r", quotient[1]))
        self.quotient = quotient  # (alpha, r) or None
        if operators is None:
            operators = (v for v in range(ring.nvars)
                         if not (quotient and v == quotient[0]))
        self.operators = tuple(operators)
        for alpha in self.operators:
            if self.quotient and alpha == self.quotient[0]:
                raise ValueError("cannot include phi of the quotient variable")
            if p * self.subwindow[alpha] > self.window[alpha]:
                raise SubwindowError(
                    f"p*W' > W in direction {ring.variables[alpha]}"
                )


def _size(name, v):
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"{name} must be a non-negative int")
    return v


def _sizes(name, value, n):
    """``value`` as n non-negative ints; one int stands for all n."""
    if isinstance(value, int):
        value = (value,) * n
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ValueError(f"{name} must be an int or a list of {n} ints")
    return tuple(_size(name, v) for v in value)


def _one_slot(x):
    """(X- then t-exponents, finite-part vector) of x, one slot of the
    series; anything else is refused."""
    row = None if x is None else x._one_row()
    if row is None:
        raise NotImplementedError(
            "slot solver: each operator must send a slot to one slot"
        )
    return row[0] + row[1], row[2]


def _class_steps(sys: FrobFixedSystem):
    """Each operator's step per class (coordinate, tower powers) of slots,
    as {class: [(alpha, shift, M)]} in lexicographic order.

    phi_alpha sends a layer's generator y to c*y, c = w X^s t^m its stored
    continuation, and coordinate i to A_ii times it, A_ii = u X^s t^m.  So
    a slot of class (i, T) goes to one slot of the same class: the shift of
    A_ii * prod c_l^T_l is added to its X- and t-exponents, after those of
    factor alpha are multiplied by p, and its coefficient goes through
    M = mult(u * prod w_l^T_l) * Frob_alpha.
    """
    alg = sys.ring.coeffs
    one = alg.fd_one()
    layers = sys.tower.layers
    classes = {
        (coord, tpow): []
        for coord in range(sys.module.rank if sys.module else 1)
        for tpow in itertools.product(*(range(l.degree) for l in layers))
    }
    for alpha in sys.operators:
        gens = []
        for layer in layers:
            img = layer.phi_images.get(alpha)
            if img is None:
                raise BudgetExceededError(
                    f"layer has no frobenius continuation: {layer.phi_notes.get(alpha)}"
                )
            gens.append(_one_slot(img[1] if img.keys() == {1} else None))
        A = sys.module.phi_matrices[alpha] if sys.module else [[sys.ring.one()]]
        scalars = [
            _one_slot(None if any(x.support for j, x in enumerate(row) if j != i)
                      else row[i])
            for i, row in enumerate(A)
        ]
        frob = alg.frob_matrices[alpha]
        mats = {}  # M per distinct w
        for (coord, tpow), steps in classes.items():
            shift, w = scalars[coord]
            for (s, c), k in zip(gens, tpow):
                if k:
                    shift = tuple(a + k * b for a, b in zip(shift, s))
                    if not np.array_equal(c, one):
                        w = alg.fd_mul(w, alg.fd_pow(c, k))
            key = w.tobytes()
            if key not in mats:
                mats[key] = frob if np.array_equal(w, one) else (
                    alg.fd_mul_matrix(w) @ frob % alg.p)
            steps.append((alpha, shift, mats[key]))
    return classes


def _box(sys: FrobFixedSystem, nclasses):
    """The X-exponent ranges and the sorted t-monomials of the box;
    refuses more than MAX_SLOTS slots before building anything."""
    ring = sys.ring
    total_d = ring.coeffs.total_d
    xranges = [
        range(sys.quotient[1]) if sys.quotient and v == sys.quotient[0]
        else range(sys.subwindow[v] + 1)
        for v in range(ring.nvars)
    ]
    # every range starts at 0; a degree past MAX_SLOTS puts a box with
    # transcendentals over the cap, and one without them has only t = ()
    t = min(sys.t_cap, MAX_SLOTS)
    count = math.prod(r.stop for r in xranges) * nclasses
    if max(count, 1) * math.comb(t + total_d, total_d) > MAX_SLOTS:
        raise ValueError(f"the fixed-point box has more than {MAX_SLOTS} slots; "
                         "shrink the subwindow, t_cap or quotient")
    # t-monomials of degree <= t_cap: multisets of t_cap indices, index
    # total_d standing for "no variable"
    tmonos = sorted(
        tuple(m.count(k) for k in range(total_d))
        for m in itertools.combinations_with_replacement(range(total_d + 1), t)
    )
    return xranges, tmonos


def _pinned_exponents(alg: CoefficientAlgebra, steps):
    """{position: exponent} over the X- then the t-exponents that a slot of
    the class needs to be fixed by every step; None when no slot is.
    phi_alpha sends an exponent E of factor alpha to p*E + s, fixed iff
    E = -s/(p-1), and any other to E + s, fixed iff s = 0."""
    owner = tuple(range(alg.nvars)) + alg.t_owner
    pinned = {}
    for alpha, shift, _ in steps:
        for j, s in enumerate(shift):
            if owner[j] != alpha:
                if s:
                    return None
            elif s % (alg.p - 1):
                return None
            else:
                pinned[j] = -s // (alg.p - 1)
    return pinned


def solve_fixed_points(sys: FrobFixedSystem):
    """Basis of the exact simultaneous fixed space supported in W'.

    Returns a report with fields ``dimension``, ``basis`` (ambient elements),
    ``unconfirmed`` (boundary-touching solutions, excluded from the count),
    and ``checks``.
    """
    ring = sys.ring
    alg = ring.coeffs
    p = alg.p
    nv = ring.nvars
    classes = _class_steps(sys)
    xranges, tmonos = _box(sys, len(classes))
    free = [v for v in range(nv) if not (sys.quotient and v == sys.quotient[0])]
    # the largest image exponent over a non-empty box, per direction outside
    # the quotient, must lie in the certified window
    if all(xranges) and any(
        (p if v == alpha else 1) * sys.subwindow[v] + shift[v] > sys.window[v]
        for steps in classes.values() for alpha, shift, _ in steps for v in free
    ):
        raise SubwindowError(
            "operator image escapes the certified window; shrink W' or grow W"
        )
    # The fixed space is supported on the fixed slots (see the module
    # docstring), and every fixed slot of a class shares the class's maps:
    # one nullspace per class gives their coefficients.
    basis = []
    unconfirmed = []
    ident = np.eye(alg.N, dtype=np.int64)
    for (coord, tpow), steps in classes.items():
        pinned = _pinned_exponents(alg, steps)
        if pinned is None:
            continue
        xexps = list(itertools.product(*(
            r if v not in pinned else [e for e in (pinned[v],) if e in r]
            for v, r in enumerate(xranges)
        )))
        tfixed = [m for m in tmonos
                  if all(pinned.get(nv + k, e) == e for k, e in enumerate(m))]
        if not (xexps and tfixed):
            continue
        # a zero block first: with no operators every vector is fixed
        rows = [0 * ident] + [(M - ident) % p for _, _, M in steps]
        vecs = list(gfp.nullspace(np.concatenate(rows), p))
        for xexp in xexps:
            boundary = any(
                sys.subwindow[v] > 0 and xexp[v] == sys.subwindow[v] for v in free
            )
            (unconfirmed if boundary else basis).extend(
                ((coord, tpow, xexp, tmono), vec) for tmono in tfixed for vec in vecs
            )
    elements = [_slot_to_element(sys, s, vec) for s, vec in basis]
    checks = [
        {"basis_vector": idx, "fixed_under_all_operators": all(
            _agrees(sys, _apply_phi(sys, alpha, el), el)
            for alpha in sys.operators
        )}
        for idx, el in enumerate(elements)
    ]
    return {
        "dimension": len(basis),
        "basis": [_to_ambient(sys, el) for el in elements],
        "unconfirmed": [
            _to_ambient(sys, _slot_to_element(sys, s, v)) for s, v in unconfirmed
        ],
        "checks": checks,
    }


def _slot_to_element(sys, slot, vec):
    """The slot's element: one tower element per module coordinate."""
    coord, tpow, xexp, tmono = slot
    c = CoeffElement(
        sys.ring.coeffs, {tuple(tmono): np.array(vec, dtype=np.int64)}, ()
    )
    base = sys.ring.monomial(xexp, c)
    rank = sys.module.rank if sys.module else 1
    return [{tuple(tpow): base} if i == coord else {} for i in range(rank)]


def _apply_phi(sys, alpha, el):
    """The real operator, as an independent check of the slot maps: the
    tower's phi_alpha on each coordinate, then the module's phi matrix."""
    tower = sys.tower
    imgs = [tower.apply_phi(alpha, x) for x in el]
    if not sys.module:
        return imgs
    return [
        functools.reduce(tower.add, map(tower.scale, imgs, row), {})
        for row in sys.module.phi_matrices[alpha]
    ]


def _agrees(sys, a, b):
    """a = b on the certified window, coordinate by coordinate and tower
    power by tower power; in a quotient by X_alpha^r the terms with
    X_alpha-exponent >= r are dropped first."""
    zero = sys.ring.zero()

    def clip(x):
        if not sys.quotient:
            return x
        qa, qr = sys.quotient
        support = {e: c for e, c in x.support.items() if e[qa] < qr}
        return LaurentElement(x.ring, support, x.pole_bound, x.window, x.pole_set)

    return all(
        clip(x.get(t, zero)).eq_window(clip(y.get(t, zero)))
        for x, y in zip(a, b)
        for t in x.keys() | y.keys()
    )


def _to_ambient(sys, el):
    """A solution in the caller's shape: the tower vector for a (tower,
    module) pair, else the base coordinates, one series for a ring."""
    if isinstance(sys.ambient, tuple):
        return el
    coords = [x.get((), sys.ring.zero()) for x in el]
    return coords if sys.module else coords[0]


def solve_quotient_fixed_points(ring: SeriesRingSpec, alpha, r, t_cap=4):
    """Fixed points of the phi_beta (beta != alpha) in the quotient by
    X_alpha^r.  Desk-scale counterpart of the k_alpha[X_alpha]/(X_alpha^r)
    computation."""
    return solve_fixed_points(
        FrobFixedSystem(ring, quotient=(alpha, r), t_cap=t_cap)
    )


# ---------------------------------------------------------------------------
# characters and the rank-1 functors


def canonical_chi(ring: SeriesRingSpec):
    """The canonical topological generator value: a lift of a primitive root
    mod p (3 for p = 2), with two digits past the ring's precision."""
    p = ring.coeffs.p
    g = _primitive_root_power(p, p - 1) if p > 2 else 3
    return PAdicUnitApprox(p, g, digits_for_window(p, max(ring.precision)) + 2)


def parse_character(ring: SeriesRingSpec, data: dict):
    """Character description: values in F_p^* at the canonical generators.

    ``gamma_values`` entries: {"alpha": label, "chi_order": int, "value": int}
    with value = eta(gamma_alpha) at the canonical gamma.  ``delta_values``
    entries describe values on the delta generators; a continuous character
    of the corresponding pro-p group into F_p^* is trivial, so any nontrivial
    value is out of budget.
    """
    alg = ring.coeffs
    p = alg.p
    gamma = {}
    for entry in data.get("gamma_values", []):
        alpha = alg.label_index(entry["alpha"])
        v = int(entry["value"]) % p
        if v == 0:
            raise ValueError("character values must be units")
        order = multiplicative_order(v, p)
        declared = int(entry.get("chi_order", order))
        if pow(v, declared, p) != 1:
            raise ValueError("declared order inconsistent with the value")
        gamma[alpha] = (order, v)
    for entry in data.get("delta_values", []):
        if int(entry.get("value", 1)) % p != 1:
            raise BudgetExceededError(
                "nontrivial delta characters have no splitting data within "
                "the supported extension builders (continuous characters of "
                "a pro-p group into F_p^* are trivial)"
            )
    return gamma


def character_tower(ring: SeriesRingSpec, gamma):
    """The Kummer splitting tower for an inflated character."""
    layers = []
    for alpha in sorted(gamma):
        order, _ = gamma[alpha]
        if order == 1:
            continue
        layers.append(build_kummer(ring, ring.var(alpha), order, alpha=alpha))
    return ExtensionTower(ring, layers)


def functor_D_rank1(ring: SeriesRingSpec, character: dict):
    """The rank-1 module attached to a character via explicit descent.

    The character is inflated (trivial on the geometric part), so the
    descent runs over its Kummer splitting tower: the tower's Galois
    invariants are computed by the linear invariance systems, the generator
    1 (x) v is extracted, and the operator scalars are read off.
    """
    alg = ring.coeffs
    p = alg.p
    gamma = parse_character(ring, character)
    tower = character_tower(ring, gamma)
    inv = tower.galois_invariants_report()
    if not inv["invariants_equal_base"]:
        raise BudgetExceededError("invariants space is not free of rank 1")
    chi = canonical_chi(ring)
    a_alpha = {alpha: ring.one() for alpha in range(ring.nvars)}
    gamma_units = []
    for alpha in range(ring.nvars):
        _, v = gamma.get(alpha, (1, 1))
        gamma_units.append((alpha, chi, ring.constant(v)))
    delta_units = []
    for alpha in range(ring.nvars):
        locals_ = [k for k in range(alg.total_d) if alg.t_owner[k] == alpha]
        if locals_:
            b = tuple(1 if k == locals_[0] else 0 for k in locals_)
            delta_units.append((alpha, b, ring.one()))
    D = rank_one_from_units(
        ring, a_alpha, gamma_units=gamma_units, delta_units=delta_units
    )
    return {
        "module": D,
        "tower": tower,
        "character": {a: gamma.get(a, (1, 1)) for a in range(ring.nvars)},
        "invariants_report": inv,
    }


def roundtrip_V_of_D(ring: SeriesRingSpec, character: dict, expect_dim=1):
    """Desk-scale quasi-inverse check: recover the character from its module.

    Solves the simultaneous Frobenius fixed points of the module over the
    same splitting tower, verifies the solution space is ``expect_dim``-
    dimensional, and compares the induced Galois action with the character
    generator by generator.
    """
    data = functor_D_rank1(ring, character)
    D = data["module"]
    tower = data["tower"]
    p = ring.coeffs.p
    # tower slots shift x-exponents by up to p-1, so shrink W' accordingly
    sub = tuple(max(0, (w - (p - 1)) // p) for w in ring.precision)
    sys = FrobFixedSystem((tower, D), subwindow=sub)
    sol = solve_fixed_points(sys)
    checks = list(sol["checks"])
    ok = sol["dimension"] == expect_dim
    checks.append({"check": "dimension", "expected": expect_dim,
                   "found": sol["dimension"], "pass": ok})
    action_ok = True
    recovered = {}
    if ok and sol["basis"]:
        vecs = sol["basis"][0]
        base_supported = all(
            not c.support for x in vecs for t, c in x.items() if any(t)
        )
        checks.append({"check": "solution_in_base", "pass": base_supported})
        if base_supported:
            for gi, (alpha, c, A) in enumerate(D.gamma_generators):
                img = D.act(("gamma", gi), _strip_tower(vecs))
                expected_value = data["character"][alpha][1]
                expected = [x.scale(expected_value) for x in _strip_tower(vecs)]
                match = all(a.eq_window(b) for a, b in zip(img, expected))
                recovered[ring.coeffs.labels[alpha]] = expected_value
                action_ok = action_ok and match
                checks.append(
                    {
                        "check": f"gamma action on factor {ring.coeffs.labels[alpha]}",
                        "value": expected_value,
                        "pass": match,
                    }
                )
        else:
            action_ok = False
    passed = ok and action_ok and all(
        c.get("fixed_under_all_operators", True) is not False for c in checks
    )
    return {
        "dimension": sol["dimension"],
        "expected_dimension": expect_dim,
        "recovered_values": recovered,
        "checks": checks,
        "pass": passed,
    }


def _strip_tower(vecs):
    out = []
    for x in vecs:
        base = [c for t, c in x.items() if not any(t)]
        if not base:
            raise ValueError("vector has no base component")
        out.append(base[0])
    return out


def _twist_key(b):
    return tuple(getattr(x, "residue", x) for x in b)


def _tensor_generators(gens1, gens2, key):
    """Each generator of gens1 times its first unused partner in gens2 with
    the same alpha and the same ``key`` of its parameter, then the unmatched
    generators of gens2, the other factor acting trivially."""
    out = []
    used = set()
    for alpha, c, A in gens1:
        scalar = A[0][0]
        for i, (a2, c2, A2) in enumerate(gens2):
            if i not in used and a2 == alpha and key(c2) == key(c):
                used.add(i)
                scalar = scalar * A2[0][0]
                break
        out.append((alpha, c, [[scalar]]))
    out += [(a2, c2, [[A2[0][0]]])
            for i, (a2, c2, A2) in enumerate(gens2) if i not in used]
    return out


def tensor_rank_one(D1: PhiGammaModule, D2: PhiGammaModule) -> PhiGammaModule:
    """Tensor product of rank-1 modules: the scalars multiply.

    Gamma generators are matched by (alpha, chi residue) and delta
    generators by (alpha, twist); unmatched generators carry over with the
    other factor acting trivially."""
    if D1.rank != 1 or D2.rank != 1:
        raise ValueError("rank-1 modules only")
    phis = {
        a: [[D1.phi_matrices[a][0][0] * D2.phi_matrices[a][0][0]]]
        for a in D1.phi_matrices
    }
    gammas = _tensor_generators(
        D1.gamma_generators, D2.gamma_generators, lambda c: c.residue
    )
    deltas = _tensor_generators(
        D1.delta_generators, D2.delta_generators, _twist_key
    )
    return PhiGammaModule(D1.ring, 1, phis, gammas, deltas)
