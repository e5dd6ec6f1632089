"""Workload "operators": series arithmetic and the operators phi, gamma, delta.

Each problem is one operator task on one ring: a Laurent product, a unit
inversion, an application of phi_alpha, gamma_alpha(c) or delta_alpha(b)
to generators and to a product, a composition, or a commutation check.
The rings are fixed in shape (below), each used COPIES times with the
operator directions cycling over the variables; the seed draws the moduli,
the series' nonzero coefficients (on exponents fixed per ring), the unit's
constant, the gamma parameter's digits above the window and the delta
twist.  What sets a task's cost is the same for every seed, so seeds move
wall_s by little.  Half of the rings carry a transcendental (d = 1), so
dense constant coefficients and the sparse t-symbol path both run.

The rings and series objects are built in set-up; the idempotent split of
each coefficient algebra is computed there too (it is memoized on the
algebra), so every round does the same work.
"""

from __future__ import annotations

import math
import random

import numpy as np
import phigamma
import ref
from phigamma.coeff import CoeffElement
from core import CheckError, Problem, expect

# (p, degrees, transcendentals per factor, window, terms per series)
RINGS = (
    (2, (1,), (0,), 16, 10),
    (5, (1,), (1,), 12, 8),
    (3, (1, 1), (0, 0), 8, 10),
    (3, (2, 1), (1, 0), 8, 8),
    (5, (2, 1), (0, 0), 8, 8),
    (2, (2, 2), (0, 1), 6, 8),
    (3, (1, 1, 1), (0, 0, 0), 6, 8),
    (2, (1, 2, 1), (1, 0, 0), 6, 6),
)
COPIES = 4
TRIALS = 2  # random probes per commutation check
INF = math.inf


def _random_vec(rng, p, N):
    while True:
        v = tuple(rng.randrange(p) for _ in range(N))
        if any(v):
            return v


def _random_series(shape, rng, spec, F, count, positive=False):
    """count terms with nonzero coefficients; positive: no constant term.

    The exponents come from ``shape``, the coefficients from ``rng``."""
    p, degs, ds, W, _ = spec
    box = 1  # exponents 0..box per variable, room for twice the terms
    while box < W and (box + 1) ** len(degs) * 2 ** sum(ds) < 2 * count + 2:
        box += 1
    support = set()
    while len(support) < count:
        x = tuple(shape.randrange(box + 1) for _ in degs)
        t = tuple(shape.randrange(2) for _ in range(sum(ds)))
        if any(x) or not positive:
            support.add((x, t))
    return {key: _random_vec(rng, p, F.N) for key in sorted(support)}


def _gamma_parameter(rng, p, M, W):
    """A unit c mod p^M with (1 + X)^c != 1 + X on the window, so that
    gamma(c) is not the identity there and the negative control holds."""
    while True:
        c = rng.randrange(1, p**M)
        if c % p and any(math.comb(c, k) % p != math.comb(1, k) for k in range(W + 1)):
            return c


def generate(seed, workdir):
    rng = random.Random(f"operators-{seed}")
    rings = []
    for copy in range(COPIES):
        for r, spec in enumerate(RINGS):
            # what sets a task's cost is drawn from a generator of its own,
            # the same for every seed: the series' exponents, the unit's
            # corner, the gamma parameter mod p^(M-2) (all that acts on the
            # window) and the commutation probes
            shape = random.Random(f"operators-shape-{copy}-{r}")
            p, degs, ds, W, count = spec
            moduli = [ref.random_irreducible(p, n, rng) for n in degs]
            F = ref.FinitePart(p, moduli)
            nv = len(degs)
            window = (W,) * nv
            a = _random_series(shape, rng, spec, F, count)
            b = _random_series(shape, rng, spec, F, count)
            # a unit: s * y_j^k plus terms of positive degree, no t in the corner
            corner = F.one()
            j = shape.randrange(nv)
            gen = tuple(1 if i == math.prod(degs[j + 1:]) else 0 for i in range(F.N)) \
                if degs[j] > 1 else F.one()
            for _ in range(shape.randrange(3)):
                corner = F.mul(corner, gen)
            corner = F.scale(corner, rng.randrange(1, p))
            u = {((0,) * nv, (0,) * sum(ds)): corner}
            u.update(_random_series(shape, rng, spec, F, max(2, count // 3), positive=True))
            M = ref.gamma_digits(p, W)
            # the top two digits of c do not act on the window
            c = _gamma_parameter(shape, p, M - 2, W) + p ** (M - 2) * rng.randrange(p * p)
            t_owner = [i for i, d in enumerate(ds) for _ in range(d)]
            rings.append({
                "spec": spec, "moduli": moduli, "F": F, "window": window,
                "a": a, "b": b, "ab": ref.series_mul(F, a, b, window), "u": u,
                # directions cycle with the copy, so every seed sends the
                # same operators along the same variables
                "alpha": copy % nv, "beta": (copy + 1) % nv,
                "c": c, "M": M, "twist": rng.randrange(1, p),
                "t_alpha": t_owner[0] if t_owner else None,
                "probe_seed": shape.randrange(2**32),
            })
    return rings


# ---------------------------------------------------------------------------
# between plain data and library objects


def to_plain(el):
    """(window, {(x exponents, t exponents): F tuple}) of a LaurentElement."""
    p = el.ring.coeffs.p
    terms = {}
    for x, c in el.support.items():
        if c.den:
            raise CheckError("unexpected denominator in a coefficient")
        for t, vec in c.num.items():
            v = tuple(int(e) % p for e in vec)
            if any(v):
                terms[(tuple(x), tuple(t))] = v
    return tuple(el.window), terms


def from_plain(ring, terms, window):
    by_x = {}
    for (x, t), v in terms.items():
        by_x.setdefault(x, {})[t] = np.array(v, dtype=np.int64)
    support = {x: CoeffElement(ring.coeffs, num, ()) for x, num in by_x.items()}
    return phigamma.LaurentElement(ring, support, 0, window)


def same_on(window, A, B):
    return ref.truncate(A, window) == ref.truncate(B, window)


def common(*windows):
    return tuple(min(ws) for ws in zip(*windows))


# ---------------------------------------------------------------------------
# problems


def setup(rings):
    problems = []
    for r, data in enumerate(rings):
        p, degs, ds, W, _ = data["spec"]
        factors = [
            {"n": n, "d": d, "modulus": m, "label": "abc"[i]}
            for i, (n, d, m) in enumerate(zip(degs, ds, data["moduli"]))
        ]
        alg = phigamma.CoefficientAlgebra(p, factors)
        alg.idempotent_decomposition()
        ring = phigamma.SeriesRingSpec(alg, W)
        obj = {
            "ring": ring,
            "a": from_plain(ring, data["a"], data["window"]),
            "b": from_plain(ring, data["b"], data["window"]),
            "ab": from_plain(ring, data["ab"], data["window"]),
            "u": from_plain(ring, data["u"], (INF,) * len(degs)),
        }
        tag = f"ring#{r} p={p} degrees={degs} d={ds} W={W}"
        for kind, run, verify in _tasks(data, obj):
            problems.append(Problem(
                name=f"{kind} on {tag}", kind=kind, run=run, plain=_plain_of(kind),
                verify=verify, data=data,
            ))
    return problems


def _plain_of(kind):
    if kind in ("commute", "semidirect", "noncommute"):
        return lambda rep: {"equal": rep["equal"], "probes": rep["probes"]}
    return lambda out: {k: to_plain(v) for k, v in out.items()}


def _tasks(data, obj):
    ring = obj["ring"]
    p, degs, ds, W, _ = data["spec"]
    nv = len(degs)
    alpha, beta = data["alpha"], data["beta"]
    c = phigamma.PAdicUnitApprox(p, data["c"], data["M"])
    yield "mul", lambda: {"ab": obj["a"] * obj["b"]}, lambda out: _check_mul(data, out)
    yield "invert", lambda: {"inv": obj["u"].invert()}, lambda out: _check_inv(data, out)

    def apply_all(sigma, gens):
        out = {f"gen{i}": sigma.apply(g) for i, g in enumerate(gens)}
        for key in ("a", "b", "ab"):
            out[key] = sigma.apply(obj[key])
        return out

    yield (
        "phi",
        lambda: apply_all(phigamma.make_phi(ring, alpha), [ring.var(alpha)]),
        lambda out: _check_phi(data, out),
    )
    yield (
        "gamma",
        lambda: apply_all(phigamma.make_gamma(ring, alpha, c), [ring.var(alpha)]),
        lambda out: _check_gamma(data, out),
    )
    if data["t_alpha"] is not None:
        ta = data["t_alpha"]
        sym = ring.coeffs.tsymbols[0]
        twist = (data["twist"],)
        yield (
            "delta",
            lambda: apply_all(phigamma.make_delta(ring, ta, twist),
                              [ring.constant(ring.coeffs.t(sym))]),
            lambda out: _check_delta(data, out),
        )

    def compose():
        s = phigamma.make_gamma(ring, beta, c)
        t = phigamma.make_phi(ring, alpha)
        st = s.compose(t)
        return {"lhs": st.apply(obj["a"]), "rhs": s.apply(t.apply(obj["a"]))}

    yield "compose", compose, _check_compose

    Word = phigamma.OperatorWord
    phi_a = Word([("phi", alpha, 1)])
    gamma_b = Word([("gamma", beta, c, 1)])

    def commutation(w1, w2):
        rng = random.Random(data["probe_seed"])
        return phigamma.verify_commutation(w1, w2, ring, trials=TRIALS, rng=rng)

    probes = 2 * nv + sum(ds) + TRIALS
    yield (
        "commute",
        lambda: commutation(gamma_b * phi_a, phi_a * gamma_b),
        lambda out: _check_verdict(out, True, probes),
    )
    if data["t_alpha"] is not None:
        ta = data["t_alpha"]
        gam = Word([("gamma", ta, c, 1)])
        one = phigamma.PAdicUnitApprox(p, 1, data["M"])
        delta = Word([("delta", ta, (one,), 1)])
        # gamma delta gamma^-1 = delta^chi(gamma)
        yield (
            "semidirect",
            lambda: commutation(gam * delta * gam.inverse(), Word([("delta", ta, (c,), 1)])),
            lambda out: _check_verdict(out, True, probes),
        )
        # gamma and delta of one factor do not commute: a negative control
        yield (
            "noncommute",
            lambda: commutation(gam * delta, delta * gam),
            lambda out: _check_verdict(out, False, probes),
        )


# ---------------------------------------------------------------------------
# checks


def _check_mul(data, out):
    window, terms = out["ab"]
    expect(window == data["window"], f"product window {window}, expected {data['window']}")
    expect(terms == ref.truncate(data["ab"], window), "product differs from the convolution")


def _check_inv(data, out):
    F = data["F"]
    window, inv = out["inv"]
    expect(window == data["window"], f"inverse window {window}, expected {data['window']}")
    prod = ref.series_mul(F, data["u"], inv, window)
    nv = len(window)
    one = {((0,) * nv, (0,) * sum(data["spec"][2])): F.one()}
    expect(prod == one, "u * u^-1 != 1 on the window")


def _check_hom(data, out):
    """sigma(a) sigma(b) = sigma(ab) on the common window."""
    F = data["F"]
    (wa, sa), (wb, sb), (wab, sab) = out["a"], out["b"], out["ab"]
    window = common(wa, wb, wab)
    expect(window == data["window"], f"image window {window}, expected {data['window']}")
    expect(same_on(window, ref.series_mul(F, sa, sb, window), sab),
           "sigma(a) sigma(b) != sigma(ab)")


def _check_phi(data, out):
    p, degs, ds, W, _ = data["spec"]
    nv, alpha = len(degs), data["alpha"]
    x = tuple(p if i == alpha else 0 for i in range(nv))
    window, img = out["gen0"]
    expect(img == {(x, (0,) * sum(ds)): data["F"].one()}, "phi(X_alpha) != X_alpha^p")
    _check_hom(data, out)


def _check_gamma(data, out):
    p, degs, ds, W, _ = data["spec"]
    nv, alpha, c = len(degs), data["alpha"], data["c"]
    window, img = out["gen0"]
    expect(window[alpha] == W, f"gamma(X_alpha) window {window}")
    expected = {}
    for k in range(1, W + 1):
        v = math.comb(c, k) % p
        if v:
            x = tuple(k if i == alpha else 0 for i in range(nv))
            expected[(x, (0,) * sum(ds))] = data["F"].scale(data["F"].one(), v)
    expect(img == expected, "gamma(X_alpha) coefficients differ from C(c, k) mod p")
    _check_hom(data, out)


def _check_delta(data, out):
    p, degs, ds, W, _ = data["spec"]
    nv, ta, b = len(degs), data["t_alpha"], data["twist"]
    window, img = out["gen0"]
    t = (1,) + (0,) * (sum(ds) - 1)
    expected = {}
    for k in range(0, b + 1):
        v = math.comb(b, k) % p
        if v:
            x = tuple(k if i == ta else 0 for i in range(nv))
            expected[(x, t)] = data["F"].scale(data["F"].one(), v)
    expect(same_on(window, img, expected), "delta(t) != (1 + X)^b t")
    _check_hom(data, out)


def _check_compose(out):
    (wl, lhs), (wr, rhs) = out["lhs"], out["rhs"]
    window = common(wl, wr)
    expect(all(w >= 1 for w in window), f"empty window {window}")
    expect(same_on(window, lhs, rhs), "compose(s, t)(a) != s(t(a))")


def _check_verdict(out, equal, probes):
    expect(out["probes"] == probes, f"{out['probes']} probes, expected {probes}")
    expect(out["equal"] is equal, f"verdict equal={out['equal']}, expected {equal}")


def tampered(problems, outputs, failed):
    """One coefficient of gamma(X_alpha) changed."""
    for prob, out, bad in zip(problems, outputs, failed):
        if prob.kind == "gamma" and not bad:
            data = prob.plain(out)
            window, img = data["gen0"]
            key = min(img)
            p = prob.data["spec"][0]
            img = dict(img)
            img[key] = tuple((v + 1) % p for v in img[key])
            data["gen0"] = (window, img)
            return [("gamma coefficient", prob, data)]
    return []
