"""Fixed-point solving, finite extensions with Galois actions, and the
rank-1 module functors.

The simultaneous Frobenius fixed-point problems here are solved exactly on a
certified subwindow W' with p*W' <= W: a candidate supported in W' has its
image supported in W, so the equation set is an exact finite F_p-linear
system.  Because every implemented operator sends each basis "slot" (a
monomial in the series variables, transcendentals, and extension generators)
to a single slot with an invertible coefficient map, the system is solved by
forced-zero propagation along slot chains instead of a large dense nullspace:
a slot whose image coefficient is known to vanish must itself vanish, and
iterating this leaves only slots fixed by every operator, where a small
per-slot linear system over the finite part remains.

Extensions of the base ring are towers of Artin-Schreier (y^p - y = a,
Galois y -> y+1) and Kummer (y^e = a with e | p-1, Galois y -> zeta*y)
layers; Frobenius continuations to each layer are computed where the
defining data allows and recorded as unavailable otherwise.
"""

from __future__ import annotations

import itertools

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
    _lucas_binomial,
    digits_for_window,
)


class BudgetExceededError(ValueError):
    """The requested descent needs splitting data beyond the supported
    extension builders."""


class SubwindowError(ValueError):
    pass


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
        self._powers = None

    def power_table(self, k):
        """y^k as a dict {j: base coefficient} with j < degree."""
        if self._powers is None:
            self._powers = [{0: self.base.one()}, {1: self.base.one()}]
        while len(self._powers) <= k:
            n = len(self._powers)
            if self.kind == "kummer":
                q, rem = divmod(n, self.degree)
                self._powers.append({rem: self.a**q})
            else:
                prev = self._powers[n - 1]
                nxt = {}
                for j, c in prev.items():
                    if j + 1 < self.degree:
                        nxt[j + 1] = nxt.get(j + 1, self.base.zero()) + c
                    else:
                        # y^p = y + a
                        nxt[1] = nxt.get(1, self.base.zero()) + c
                        nxt[0] = nxt.get(0, self.base.zero()) + c * self.a
                self._powers.append(nxt)
        return self._powers[k]

    def galois_coeffs(self, k):
        """Image of y^k under the Galois generator, as {j: F_p scalar}."""
        p = self.base.coeffs.p
        if self.kind == "kummer":
            return {k: pow(self.zeta, k, p)}
        import math

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
        import math

        return all(math.comb(p, j) % p == 0 for j in range(1, p))


def build_artin_schreier(base: SeriesRingSpec, a: LaurentElement, alpha=0):
    """The degree-p extension y^p - y = a with Galois generator y -> y+1."""
    p = base.coeffs.p
    ext = FiniteExtension(base, "artin_schreier", alpha, p, a)
    for v in range(base.nvars):
        endo = make_phi(base, v)
        d = endo.apply(a) - a
        u, residual = _solve_artin_schreier_aux(base, d)
        if residual is None:
            ext.phi_images[v] = {0: u, 1: base.one()}  # phi(y) = y + u
            ext.phi_notes[v] = "ok"
        else:
            ext.phi_images[v] = None
            ext.phi_notes[v] = f"frobenius continuation unavailable: {residual}"
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
    if a.unit_verdict() != "unit":
        raise NotInvertibleError("kummer datum must be a certified unit")
    zeta = _primitive_root_power(p, e)
    ext = FiniteExtension(base, "kummer", alpha, e, a, zeta)
    a_inv = a.invert()
    for v in range(base.nvars):
        endo = make_phi(base, v)
        if v != alpha:
            # the layer lives in the alpha direction: phi_v(y) = s*y with
            # s^e = phi_v(a)/a, the degree-1 root
            q = endo.apply(a) * a_inv
            if q.eq_window(base.one()):
                ext.phi_images[v] = {1: base.one()}
                ext.phi_notes[v] = "ok"
                continue
            s, note = _eth_root(base, q, e)
            if s is None:
                ext.phi_images[v] = None
                ext.phi_notes[v] = f"frobenius continuation unavailable: {note}"
            else:
                ext.phi_images[v] = {1: s}
                ext.phi_notes[v] = "ok"
            continue
        # phi_alpha(y) = y^p * w with w^e = phi_alpha(a) / a^p
        q = endo.apply(a) * a_inv**p
        w, note = _eth_root(base, q, e)
        if w is None:
            ext.phi_images[v] = None
            ext.phi_notes[v] = f"frobenius continuation unavailable: {note}"
            continue
        img = {}
        for j, c in ext.power_table(p).items():
            img[j] = c * w
        ext.phi_images[v] = img
        ext.phi_notes[v] = "ok"
    assert ext.relation_check()
    return ext


def _primitive_root_power(p, e):
    """An element of order exactly e in F_p^*."""
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return pow(g, (p - 1) // e, p)
    return 1  # p = 2, e = 1


def _eth_root(ring: SeriesRingSpec, q: LaurentElement, e: int):
    """An e-th root of a unit q = q0*(1+h), via enumeration for q0 and a
    binomial series for the principal part."""
    alg = ring.coeffs
    p = alg.p
    if not q.support:
        return None, "zero has no unit root"
    zero_exp = (0,) * ring.nvars
    c0 = q.support.get(zero_exp)
    if c0 is None:
        return None, "root requires a unit constant term in this presentation"
    q0 = c0.constant_fd() if c0.is_constant() else None
    if q0 is None:
        return None, "nonconstant corner coefficient"
    r0, note = _fd_eth_root(alg, q0, e)
    if r0 is None:
        return None, note
    r0inv = alg.fd_inv(r0)
    scaled = q.scale(alg.from_fdelta(alg.fd_pow(r0inv, e)))
    h = scaled - ring.one()
    if h.support and min(sum(x) for x in h.support) < 1:
        return None, "principal part not congruent to 1"
    # (1+h)^(1/e) via the p-adic binomial series; 1/e in Z_p has an integer
    # representative mod p^M, and Lucas digits make the truncation exact
    M = digits_for_window(p, max(ring.precision)) + 1
    c = PAdicUnitApprox(p, pow(e, -1, p**M), M)
    digits = c.digits()
    w = ring.one()
    hk = ring.one()
    bound = sum(w_ for w_ in ring.precision)
    for k in range(1, bound + 1):
        hk = hk * h
        if not hk.support:
            break
        coeff = _lucas_binomial(digits, k, p)
        if coeff:
            w = w + hk.scale(coeff)
    w = w.scale(alg.from_fdelta(r0))
    if (w**e).eq_window(q):
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
        out = dict(a)
        for t, c in b.items():
            cur = out.get(t)
            out[t] = c if cur is None else cur + c
        return self._clean(out)

    def scale(self, a, x: LaurentElement):
        return self._clean({t: c * x for t, c in a.items()})

    def _clean(self, a):
        return {t: c for t, c in a.items() if c.support}

    def reduce_monomial(self, tpow, coeff):
        items = [((), coeff)]
        for i, layer in enumerate(self.layers):
            tbl = layer.power_table(tpow[i])
            items = [
                (pref + (j,), c * mult)
                for pref, c in items
                for j, mult in tbl.items()
            ]
        out = {}
        for t, c in items:
            cur = out.get(t)
            out[t] = c if cur is None else cur + c
        return self._clean(out)

    def mul(self, a, b):
        out = {}
        for t1, c1 in a.items():
            for t2, c2 in b.items():
                t = tuple(x + y for x, y in zip(t1, t2))
                for tr, cr in self.reduce_monomial(t, c1 * c2).items():
                    cur = out.get(tr)
                    out[tr] = cr if cur is None else cur + cr
        return self._clean(out)

    def pow(self, a, n):
        return power(a, n, self.one(), self.mul)

    def apply_phi(self, alpha, a):
        """The Frobenius phi_alpha extended to the tower."""
        if alpha not in self._phi_endos:
            self._phi_endos[alpha] = make_phi(self.ring, alpha)
        endo = self._phi_endos[alpha]
        gen_images = []
        for layer in self.layers:
            img = layer.phi_images.get(alpha)
            if img is None:
                raise BudgetExceededError(
                    f"layer has no frobenius continuation: {layer.phi_notes.get(alpha)}"
                )
            gen_images.append(img)
        out = {}
        for tpow, c in a.items():
            term = self.from_base(endo.apply(c))
            for i, k in enumerate(tpow):
                if k == 0:
                    continue
                layer_img = {
                    tuple(j if l == i else 0 for l in range(len(self.layers))): v
                    for j, v in gen_images[i].items()
                }
                term = self.mul(term, self.pow(layer_img, k))
            for t, v in term.items():
                cur = out.get(t)
                out[t] = v if cur is None else cur + v
        return self._clean(out)

    def apply_galois(self, layer_index, a):
        """The Galois generator of one layer (base coefficients fixed)."""
        layer = self.layers[layer_index]
        out = {}
        for tpow, c in a.items():
            for j, s in layer.galois_coeffs(tpow[layer_index]).items():
                t = tuple(j if l == layer_index else k for l, k in enumerate(tpow))
                piece = c.scale(s)
                cur = out.get(t)
                out[t] = piece if cur is None else cur + piece
        return self._clean(out)

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
# slot-chain fixed point solver


class FrobFixedSystem:
    """A simultaneous fixed-point problem for a set of phi_alpha operators.

    ``ambient`` is a SeriesRingSpec, a PhiGammaModule (with monomial-diagonal
    phi matrices), an ExtensionTower, or a (tower, module) pair.  ``window``
    is the certified exponent region W, ``subwindow`` the solution support
    region W' with p*W' <= W.
    """

    def __init__(self, ambient, operators=None, window=None, subwindow=None,
                 t_cap=4, quotient=None):
        ring, tower, module = _ambient_parts(ambient)
        self.ring = ring
        self.tower = tower
        self.module = module
        self.operators = tuple(
            operators if operators is not None else range(ring.nvars)
        )
        p = ring.coeffs.p
        if window is None:
            window = ring.precision
        if isinstance(window, int):
            window = (window,) * ring.nvars
        if subwindow is None:
            subwindow = tuple(w // p for w in window)
        if isinstance(subwindow, int):
            subwindow = (subwindow,) * ring.nvars
        self.window = tuple(window)
        self.subwindow = tuple(subwindow)
        self.t_cap = t_cap
        self.quotient = quotient  # (alpha, r) or None
        for alpha in self.operators:
            if self.quotient and alpha == self.quotient[0]:
                raise ValueError("cannot include phi of the quotient variable")
            if p * self.subwindow[alpha] > self.window[alpha]:
                raise SubwindowError(
                    f"p*W' > W in direction {ring.variables[alpha]}"
                )


def _ambient_parts(ambient):
    if isinstance(ambient, SeriesRingSpec):
        return ambient, None, None
    if isinstance(ambient, ExtensionTower):
        return ambient.ring, ambient, None
    if isinstance(ambient, PhiGammaModule):
        return ambient.ring, None, ambient
    if isinstance(ambient, tuple) and len(ambient) == 2:
        tower, module = ambient
        return tower.ring, tower, module
    raise TypeError(f"unsupported ambient {ambient!r}")


def _module_phi_multipliers(module: PhiGammaModule, alpha):
    """Per-coordinate (x-shift, finite-part unit) for a monomial-diagonal
    phi matrix; raises for anything richer."""
    A = module.phi_matrices[alpha]
    out = []
    for i in range(module.rank):
        for j in range(module.rank):
            if i != j and A[i][j].support:
                raise NotImplementedError(
                    "slot solver requires diagonal phi matrices"
                )
        entry = A[i][i]
        if len(entry.support) != 1:
            raise NotImplementedError(
                "slot solver requires monomial phi scalars"
            )
        ((exps, c),) = entry.support.items()
        if not c.is_constant():
            raise NotImplementedError(
                "slot solver requires finite-part phi scalar coefficients"
            )
        out.append((exps, c.constant_fd()))
    return out


def _build_slot_ops(sys: FrobFixedSystem):
    """One slot map per operator.

    A slot is (coordinate, tower powers, x-exponents, t-monomial).  Each
    operator sends a slot to a single slot together with an invertible
    F_p-linear map on the finite-part coefficient.
    """
    ring = sys.ring
    alg = ring.coeffs
    p = alg.p
    rank = sys.module.rank if sys.module else 1
    ops = []
    for alpha in sys.operators:
        mults = (
            _module_phi_multipliers(sys.module, alpha) if sys.module else None
        )
        layer_info = []
        if sys.tower:
            for layer in sys.tower.layers:
                if layer.alpha != alpha:
                    layer_info.append(None)
                    continue
                if layer.kind != "kummer":
                    raise NotImplementedError(
                        "slot solver supports kummer layers only"
                    )
                ((exps, c),) = layer.a.support.items()
                if not c.is_constant() or not np.array_equal(
                    c.constant_fd(), alg.fd_one()
                ):
                    raise NotImplementedError(
                        "slot solver requires monic monomial kummer data"
                    )
                layer_info.append((layer.degree, exps))
        frob = alg.frob_matrices[alpha]

        def op(slot, alpha=alpha, mults=mults, layer_info=layer_info, frob=frob):
            coord, tpow, xexp, tmono = slot
            shift = [0] * ring.nvars
            new_tpow = list(tpow)
            for i, info in enumerate(layer_info):
                if info is None:
                    continue
                e, aexps = info
                pk = p * tpow[i]
                q, rem = divmod(pk, e)
                new_tpow[i] = rem
                for v in range(ring.nvars):
                    shift[v] += q * aexps[v]
            M = frob
            if mults is not None:
                aexps, avec = mults[coord]
                for v in range(ring.nvars):
                    shift[v] += aexps[v]
                M = (alg.fd_mul_matrix(avec) @ frob) % p
            new_xexp = tuple(
                (p * e if v == alpha else e) + shift[v]
                for v, e in enumerate(xexp)
            )
            new_tmono = tuple(
                m * p if alg.t_owner[i] == alpha else m
                for i, m in enumerate(tmono)
            )
            return (coord, tuple(new_tpow), new_xexp, new_tmono), M

        ops.append((alpha, op))
    return ops, rank


def _enumerate_slots(sys: FrobFixedSystem, rank):
    ring = sys.ring
    alg = ring.coeffs
    xranges = []
    for v in range(ring.nvars):
        if sys.quotient and v == sys.quotient[0]:
            xranges.append(range(sys.quotient[1]))
        else:
            xranges.append(range(sys.subwindow[v] + 1))
    tranges = [
        m
        for m in itertools.product(
            *(range(sys.t_cap + 1) for _ in range(alg.total_d))
        )
        if sum(m) <= sys.t_cap
    ] or [()]
    if alg.total_d == 0:
        tranges = [()]
    towranges = (
        itertools.product(*(range(d) for d in sys.tower.degrees))
        if sys.tower
        else [()]
    )
    towranges = list(towranges)
    slots = []
    for coord in range(rank):
        for tpow in towranges:
            for xexp in itertools.product(*xranges):
                for tmono in tranges:
                    slots.append((coord, tpow, xexp, tmono))
    return slots


def solve_fixed_points(sys: FrobFixedSystem):
    """Basis of the exact simultaneous fixed space supported in W'.

    Returns a report with fields ``dimension``, ``basis`` (ambient elements),
    ``unconfirmed`` (boundary-touching solutions, excluded from the count),
    and ``checks``.
    """
    ring = sys.ring
    alg = ring.coeffs
    p = alg.p
    ops, rank = _build_slot_ops(sys)
    slots = _enumerate_slots(sys, rank)
    slotset = set(slots)

    # validate that every image stays inside the certified window
    for _, op in ops:
        for s in slots:
            (coord, tpow, xexp, tmono), _ = op(s)
            for v, e in enumerate(xexp):
                if sys.quotient and v == sys.quotient[0]:
                    continue
                if e > sys.window[v]:
                    raise SubwindowError(
                        "operator image escapes the certified window; "
                        "shrink W' or grow W"
                    )
    alive = set(slotset)
    changed = True
    while changed:
        changed = False
        for _, op in ops:
            images = {}
            for s in alive:
                u, _ = op(s)
                if sys.quotient:
                    qa, qr = sys.quotient
                    if u[2][qa] >= qr:
                        continue  # image annihilated in the quotient
                images[u] = s
            for s in list(alive):
                u, _ = op(s)
                if sys.quotient and u[2][sys.quotient[0]] >= sys.quotient[1]:
                    continue  # no constraint from an annihilated image
                if u != s and u not in alive and s in alive:
                    alive.discard(s)
                    changed = True
            for u in list(alive):
                src = images.get(u)
                if src is None:
                    alive.discard(u)
                    changed = True
    basis = []
    unconfirmed = []
    ident = np.eye(alg.N, dtype=np.int64)
    for s in sorted(alive):
        rows = []
        for _, op in ops:
            u, M = op(s)
            if u != s:
                raise AssertionError("surviving slot is not operator-fixed")
            rows.append((M - ident) % p)
        if rows:
            ns = gfp.nullspace(np.concatenate(rows, axis=0), p)
        else:
            ns = ident.copy()
        boundary = any(
            not (sys.quotient and v == sys.quotient[0])
            and sys.subwindow[v] > 0
            and s[2][v] == sys.subwindow[v]
            for v in range(ring.nvars)
        )
        for vec in ns:
            if alg.fd_is_zero(vec):
                continue
            entry = (s, np.array(vec, dtype=np.int64) % p)
            (unconfirmed if boundary else basis).append(entry)
    elements = [_slot_to_element(sys, s, vec) for s, vec in basis]
    checks = _recheck_fixed(sys, elements)
    return {
        "dimension": len(basis),
        "basis": elements,
        "basis_slots": basis,
        "unconfirmed": [_slot_to_element(sys, s, v) for s, v in unconfirmed],
        "checks": checks,
    }


def _slot_to_element(sys, slot, vec):
    ring = sys.ring
    alg = ring.coeffs
    coord, tpow, xexp, tmono = slot
    c = CoeffElement(alg, {tuple(tmono): np.array(vec, dtype=np.int64)}, ())
    base = ring.monomial(xexp, c)
    if sys.tower:
        el = {tuple(tpow): base}
    else:
        el = base
    if sys.module:
        vecout = [
            el if i == coord else (sys.tower.from_base(ring.zero()) if sys.tower else ring.zero())
            for i in range(sys.module.rank)
        ]
        return vecout
    return el


def _recheck_fixed(sys, elements):
    """Independent soundness check: apply the real operators directly."""
    ring = sys.ring
    results = []
    for idx, el in enumerate(elements):
        ok = True
        for alpha in sys.operators:
            img = _apply_ambient_phi(sys, alpha, el)
            if not _ambient_eq(sys, img, el):
                ok = False
        results.append({"basis_vector": idx, "fixed_under_all_operators": ok})
    return results


def _apply_ambient_phi(sys, alpha, el):
    ring = sys.ring
    if sys.module:
        coords = el
        out = []
        A = sys.module.phi_matrices[alpha]
        imgs = [
            sys.tower.apply_phi(alpha, x) if sys.tower else
            make_phi(ring, alpha).apply(x)
            for x in coords
        ]
        for i in range(sys.module.rank):
            acc = sys.tower.from_base(ring.zero()) if sys.tower else ring.zero()
            for j in range(sys.module.rank):
                entry = A[i][j]
                term = (
                    sys.tower.scale(imgs[j], entry) if sys.tower else entry * imgs[j]
                )
                acc = sys.tower.add(acc, term) if sys.tower else acc + term
            out.append(acc)
        return out
    if sys.tower:
        return sys.tower.apply_phi(alpha, el)
    return make_phi(ring, alpha).apply(el)


def _ambient_eq(sys, a, b):
    if sys.module:
        return all(_single_eq(sys, x, y) for x, y in zip(a, b))
    return _single_eq(sys, a, b)


def _single_eq(sys, a, b):
    if sys.tower:
        if sys.quotient:
            return sys.tower.eq_window(
                _quotient_clip(sys, a), _quotient_clip(sys, b)
            )
        return sys.tower.eq_window(a, b)
    if sys.quotient:
        a, b = _quotient_clip(sys, a), _quotient_clip(sys, b)
    return a.eq_window(b)


def _quotient_clip(sys, x):
    qa, qr = sys.quotient
    if isinstance(x, dict):
        return {t: _quotient_clip_one(sys.ring, c, qa, qr) for t, c in x.items()}
    return _quotient_clip_one(sys.ring, x, qa, qr)


def _quotient_clip_one(ring, x, qa, qr):
    support = {e: c for e, c in x.support.items() if e[qa] < qr}
    return LaurentElement(ring, support, x.pole_bound, x.window, x.pole_set)


def solve_quotient_fixed_points(ring: SeriesRingSpec, alpha, r,
                                operators=None, t_cap=4):
    """Fixed points of the phi_beta (beta != alpha) in the quotient by
    X_alpha^r.  Desk-scale counterpart of the k_alpha[X_alpha]/(X_alpha^r)
    computation."""
    if operators is None:
        operators = tuple(b for b in range(ring.nvars) if b != alpha)
    sys = FrobFixedSystem(
        ring, operators=operators, quotient=(alpha, r), t_cap=t_cap
    )
    return solve_fixed_points(sys)


# ---------------------------------------------------------------------------
# characters and the rank-1 functors


def canonical_chi(ring: SeriesRingSpec, extra_digits=2):
    """The canonical topological generator value: a lift of a primitive root
    mod p, with enough digits for the ring's precision."""
    p = ring.coeffs.p
    g = _primitive_root_power(p, p - 1) if p > 2 else 3
    M = digits_for_window(p, max(ring.precision)) + extra_digits
    if p == 2:
        return PAdicUnitApprox(2, 3, M)
    return PAdicUnitApprox(p, g, M)


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
    ambient = (tower, D) if tower.layers else D
    p = ring.coeffs.p
    # tower slots shift x-exponents by up to p-1, so shrink W' accordingly
    sub = tuple(max(0, (w - (p - 1)) // p) for w in ring.precision)
    sys = FrobFixedSystem(ambient, subwindow=sub)
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
            (not isinstance(x, dict))
            or all(not c.support for t, c in x.items() if any(t))
            for x in vecs
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
        if isinstance(x, dict):
            base = None
            for t, c in x.items():
                if not any(t):
                    base = c
            if base is None:
                raise ValueError("vector has no base component")
            out.append(base)
        else:
            out.append(x)
    return out


def _twist_key(b):
    return tuple(getattr(x, "residue", x) for x in b)


def tensor_rank_one(D1: PhiGammaModule, D2: PhiGammaModule) -> PhiGammaModule:
    """Tensor product of rank-1 modules: the scalars multiply.

    Gamma generators are matched by (alpha, chi); unmatched generators carry
    over with the other factor acting trivially."""
    if D1.rank != 1 or D2.rank != 1:
        raise ValueError("rank-1 modules only")
    ring = D1.ring
    phis = {
        a: [[D1.phi_matrices[a][0][0] * D2.phi_matrices[a][0][0]]]
        for a in D1.phi_matrices
    }
    gammas = []
    used = set()
    for alpha, c, A in D1.gamma_generators:
        partner = None
        for i, (a2, c2, A2) in enumerate(D2.gamma_generators):
            if i not in used and a2 == alpha and c2.residue == c.residue:
                partner = i
                break
        scalar = A[0][0]
        if partner is not None:
            used.add(partner)
            scalar = scalar * D2.gamma_generators[partner][2][0][0]
        gammas.append((alpha, c, [[scalar]]))
    for i, (a2, c2, A2) in enumerate(D2.gamma_generators):
        if i not in used:
            gammas.append((a2, c2, [[A2[0][0]]]))
    deltas = []
    used = set()
    for alpha, b, A in D1.delta_generators:
        partner = None
        for i, (a2, b2, A2) in enumerate(D2.delta_generators):
            if i not in used and a2 == alpha and _twist_key(b2) == _twist_key(b):
                partner = i
                break
        scalar = A[0][0]
        if partner is not None:
            used.add(partner)
            scalar = scalar * D2.delta_generators[partner][2][0][0]
        deltas.append((alpha, b, [[scalar]]))
    for i, (a2, b2, A2) in enumerate(D2.delta_generators):
        if i not in used:
            deltas.append((a2, b2, [[A2[0][0]]]))
    return PhiGammaModule(ring, 1, phis, gammas, deltas)
