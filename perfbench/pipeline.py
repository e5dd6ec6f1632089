"""Workload "pipeline": the command-line interface on generated configs.

Each problem is one ``phigamma.cli.main`` call on a JSON config written in
set-up: ``roundtrip``, ``fixed-points`` (full ring and X_alpha^r
quotient), ``check-module`` (rank-1 etale modules and one corrupted
module), ``dplusplus`` and ``apply-op``.  The shapes of the problems are
fixed (the tables below), and so is what decides their cost; the seed
draws the moduli, the character values (among those of a fixed order, so
the Kummer tower has a fixed size), the module scalars and the high digits
of the gamma parameters, the coefficients of the lattice elements, the
operator words and the series.

Two ``apply-op`` words per round use the ``^`` that the README documents
inside a gamma parameter (``gamma(a; 1+p^2)``).  They do not depend on the
seed.  The parser rejects them today (exit 2), so they count as failed;
their expected images are known, so they are checked once they run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import phigamma.cli
import ref
from core import Problem, expect

LABELS = "abc"

# roundtrip: (p, multiplicative orders of the character values per factor)
ROUNDTRIP = (
    (3, (2,)), (3, (2, 2)), (3, (1, 2)), (3, (2, 1, 2)),
    (5, (4,)), (5, (2,)), (5, (4, 2)), (5, (2, 4)),
    (7, (3,)), (7, (6,)), (7, (2, 3)),
)
ROUNDTRIP_PRECISION = {3: 8, 5: 10, 7: 14}
# fixed points of every phi_alpha: (p, degrees, transcendentals, subwindow)
FIXED = (
    (2, (1, 1), (0, 0), 4), (2, (2, 2), (0, 0), 4), (2, (1, 1), (1, 1), 3),
    (3, (1, 1), (0, 0), 4), (3, (1, 1, 1), (0, 0, 0), 2), (3, (2, 1), (0, 1), 3),
)
# X_alpha^r quotients: (p, degrees, r)
QUOTIENT = ((2, (1, 1), 2), (2, (2, 2), 3), (3, (2, 1), 2), (3, (1, 2, 1), 1), (5, (2, 2), 2))
# check-module: (p, cyclotomic power j_alpha per factor, precision)
MODULES = (
    (2, (1,), 8), (3, (1,), 9), (5, (2,), 8), (3, (1, 0), 8), (2, (1, 2), 8),
    (5, (1, 1), 6), (3, (0, 1, 1), 6),
)
# dplusplus: (p, pole orders m_alpha of the phi scalars, precision)
DPLUSPLUS = ((2, (0, 0), 8), (2, (2,), 8), (3, (1, 3), 8), (5, (2, 0), 8), (3, (0, 1, 2), 6))
# the monomials classified (first nv exponents); the seed draws their coefficients
DPLUSPLUS_ELEMENTS = ((1, 1, 1), (0, 2, 1), (-1, 1, 2))
# apply-op: (p, degrees, precision, generator factors per word)
APPLY = ((2, (2, 2), 8, 2), (3, (1,), 9, 3), (3, (1, 1), 8, 3), (5, (1, 2), 8, 2), (7, (1,), 10, 2))
# the fixed words with "^" in a gamma parameter: (p, degrees, precision, word)
CARET_WORDS = ((3, (1,), 9, "gamma(a; 1+p^2)"), (5, (1, 1), 8, "phi(b) * gamma(a; 2+p^2)"))
COPIES = 3


# ---------------------------------------------------------------------------
# JSON builders (the pg_module / laurent / coeff_algebra formats)


def algebra(p, degrees, ds, rng):
    return {
        "p": p,
        "factors": [
            {"n": n, "d": d, "label": LABELS[i], "modulus": ref.random_irreducible(p, n, rng)}
            for i, (n, d) in enumerate(zip(degrees, ds))
        ],
    }


def series_json(nv, N, terms, window=None):
    """terms {x exponents: int in F_p}; window {alpha: W} (others exact)."""
    window = window or {}
    return {
        "pole_bound": max([0] + [-e for x in terms for e in x]),
        "window": {f"X_{LABELS[i]}": window.get(i) for i in range(nv)},
        "terms": [
            {
                "exps": {f"X_{LABELS[i]}": e for i, e in enumerate(x) if e},
                "coeff": {
                    "numerator": [{"fdelta_coeff": [v] + [0] * (N - 1), "monomial": {}}],
                    "denominator": [],
                },
            }
            for x, v in sorted(terms.items())
        ],
    }


def envelope(p, degrees, ds, precision, rng, **payload):
    return {
        "schema_version": 1,
        "algebra": algebra(p, degrees, ds, rng),
        "precision": [precision] * len(degrees),
        **payload,
    }


def _chi(rng, p, P, M):
    """A gamma parameter mod p^M whose digits below the window are all 1,
    so that (1 + X)^chi has the same number of terms on the window for
    every seed; the seed draws the digits above it."""
    low = 0
    while p**low <= P:
        low += 1
    return sum(p**i for i in range(low)) + p**low * rng.randrange(p ** (M - low))


# ---------------------------------------------------------------------------
# generation


def _module(p, js, P, rng):
    """Rank 1: phi_alpha by c X_alpha^((p-1) j), gamma_alpha(chi) by
    v (((1 + X_alpha)^chi - 1) / X_alpha)^j, a power of the cyclotomic
    character twisted by constants; every relation holds."""
    nv = len(js)
    M = ref.gamma_digits(p, P)
    phi, gamma = {}, []
    for a, j in enumerate(js):
        c = rng.randrange(1, p)
        x = tuple((p - 1) * j if i == a else 0 for i in range(nv))
        phi[LABELS[a]] = [series_json(nv, 1, {x: c})]
        chi = _chi(rng, p, P, M)
        quotient = {k - 1: math.comb(chi, k) % p for k in range(1, P + 1)}
        quotient = {e: v for e, v in quotient.items() if v}
        coeffs = {0: 1}
        for _ in range(j):
            coeffs = ref.univariate_mul(p, coeffs, quotient, P - 1)
        v = rng.randrange(1, p)
        terms = {tuple(e if i == a else 0 for i in range(nv)): cv * v % p
                 for e, cv in coeffs.items()}
        window = {a: P - 1} if j else None
        gamma.append({"alpha": LABELS[a], "chi": chi, "digits": M,
                      "matrix": [series_json(nv, 1, terms, window)]})
    return {"rank": 1, "phi": phi, "gamma": gamma, "delta": []}


def _corrupt(module):
    """Add X_alpha to the first gamma scalar: the relation with phi_alpha
    fails for every j and every twist."""
    bad = json.loads(json.dumps(module))
    g = bad["gamma"][0]
    var = f"X_{g['alpha']}"
    entry = g["matrix"][0]
    for term in entry["terms"]:
        if term["exps"] == {var: 1}:
            num = term["coeff"]["numerator"][0]
            num["fdelta_coeff"][0] = 0 if num["fdelta_coeff"][0] == 1 else 1
            break
    else:
        entry["terms"].append({"exps": {var: 1}, "coeff": {
            "numerator": [{"fdelta_coeff": [1], "monomial": {}}], "denominator": []}})
    return bad


def _word(rng, p, nv, nfactors, P):
    """A word in phi and gamma and the integer gamma parameters it uses.

    The phi powers on one variable stay within p^k <= P: past that, gamma
    after phi maps X_alpha to an element with no term on the window, and
    the library refuses to build that operator (see CHANGES.md)."""
    parts, factors = [], []
    phi_power = [0] * nv
    for _ in range(nfactors):
        a = rng.randrange(nv)
        k = rng.randrange(1, 3)
        while k and p ** (phi_power[a] + k) > P:
            k -= 1
        if k and rng.randrange(2):
            phi_power[a] += k
            parts.append(f"phi({LABELS[a]})" + (f"^{k}" if k > 1 else ""))
            factors.append(("phi", a, k))
        else:
            a0, a1 = rng.randrange(1, p), rng.randrange(p)
            parts.append(f"gamma({LABELS[a]}; {a0}+{a1}*p)")
            factors.append(("gamma", a, a0 + a1 * p))
    return " * ".join(parts), factors


def _apply_config(p, degrees, P, word, factors, rng):
    nv = len(degrees)
    N = math.prod(degrees)
    terms = {}
    while len(terms) < 2:
        terms[tuple(rng.randrange(3) for _ in range(nv))] = rng.randrange(1, p)
    cfg = envelope(p, degrees, (0,) * nv, P, rng, word=word, series=series_json(nv, N, terms))
    return cfg, {"terms": terms, "factors": factors}


def generate(seed, workdir):
    rng = random.Random(f"pipeline-{seed}")
    jobs = []  # (kind, command, config, expectation)
    for _ in range(COPIES):
        for p, orders in ROUNDTRIP:
            values = []
            for order in orders:
                choices = [v for v in range(1, p) if _order(v, p) == order]
                values.append(rng.choice(choices))
            character = {"gamma_values": [
                {"alpha": LABELS[i], "chi_order": _order(v, p), "value": v}
                for i, v in enumerate(values) if v != 1
            ]}
            cfg = envelope(p, (1,) * len(orders), (0,) * len(orders),
                           ROUNDTRIP_PRECISION[p], rng, character=character)
            jobs.append(("roundtrip", "roundtrip", cfg,
                         {LABELS[i]: v for i, v in enumerate(values)}))
        for p, degrees, ds, sub in FIXED:
            W = max(8, p * sub)
            cfg = envelope(p, degrees, ds, W + 2, rng, window=W, subwindow=sub,
                           t_cap=4 if any(ds) else 0, expect_dim=1)
            jobs.append(("fixed-points", "fixed-points", cfg, 1))
        for p, degrees, r in QUOTIENT:
            a = rng.randrange(len(degrees))
            cfg = envelope(p, degrees, (0,) * len(degrees), 8, rng,
                           quotient={"alpha": LABELS[a], "r": r})
            jobs.append(("quotient", "fixed-points", cfg, r * degrees[a]))
        for i, (p, js, P) in enumerate(MODULES):
            module = _module(p, js, P, rng)
            cfg = envelope(p, (1,) * len(js), (0,) * len(js), P, rng, module=module)
            jobs.append(("check-module", "check-module", cfg, 0))
            if i == 0:
                bad = dict(cfg, module=_corrupt(module))
                jobs.append(("corrupted", "check-module", bad, 1))
        for p, ms, P in DPLUSPLUS:
            nv = len(ms)
            cs = [rng.randrange(1, p) for _ in ms]
            phi = {
                LABELS[a]: [series_json(nv, 1, {tuple(-m if i == a else 0 for i in range(nv)): c})]
                for a, (m, c) in enumerate(zip(ms, cs))
            }
            elements = [e[:nv] for e in DPLUSPLUS_ELEMENTS]
            module = {"rank": 1, "phi": phi, "gamma": [], "delta": []}
            cfg = envelope(p, (1,) * nv, (0,) * nv, P, rng, module=module, elements=[
                series_json(nv, 1, {e: rng.randrange(1, p)}) for e in elements])
            trivial = not any(ms) and all(c == 1 for c in cs)
            jobs.append(("dplusplus", "dplusplus", cfg,
                         {"p": p, "m": ms, "elements": elements, "trivial": trivial}))
        for p, degrees, P, nfactors in APPLY:
            word, factors = _word(rng, p, len(degrees), nfactors, P)
            cfg, expect_data = _apply_config(p, degrees, P, word, factors, rng)
            jobs.append(("apply-op", "apply-op", cfg, dict(expect_data, p=p, P=P, nv=len(degrees))))
    caret = random.Random("pipeline-caret-words")
    for p, degrees, P, word in CARET_WORDS:
        factors = [("phi", 1, 1)] if word.startswith("phi(b)") else []
        factors.append(("gamma", 0, _caret_value(word, p)))
        cfg, expect_data = _apply_config(p, degrees, P, word, factors, caret)
        jobs.append(("apply-op^", "apply-op", cfg, dict(expect_data, p=p, P=P, nv=len(degrees))))
    rng.shuffle(jobs)
    out = []
    for i, (kind, command, cfg, expected) in enumerate(jobs):
        path = workdir / f"{i:04d}-{kind}.json"
        path.write_text(json.dumps(cfg))
        out.append((kind, command, str(path), expected))
    return out


def _caret_value(word, p):
    """The gamma parameter a0+p^e of the fixed words, read from the text."""
    a0, power = word.split(";")[1].split(")")[0].split("+")
    return int(a0) + p ** int(power.split("^")[1])


def _order(v, p):
    k, x = 1, v % p
    while x != 1:
        x = x * v % p
        k += 1
    return k


# ---------------------------------------------------------------------------
# problems and checks


def run_cli(command, path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = phigamma.cli.main([command, "--config", path])
    return code, buf.getvalue()


def plain(out):
    code, text = out
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    return {"code": code, "report": report}


def failed(out):
    return out[0] in (2, 3)


def setup(jobs):
    problems = []
    for i, (kind, command, path, expected) in enumerate(jobs):
        problems.append(Problem(
            name=f"{kind}#{i}", kind=kind,
            run=lambda command=command, path=path: run_cli(command, path),
            plain=plain, failed=failed,
            verify=lambda out, kind=kind, expected=expected: CHECKS[kind](out, expected),
            data=expected,
        ))
    return problems


def _ok(out):
    expect(out["report"] is not None, "no JSON report")


def check_roundtrip(out, values):
    _ok(out)
    rep = out["report"]
    expect(out["code"] == 0 and rep["pass"], f"exit {out['code']}")
    expect(rep["dimension"] == 1, f"dimension {rep['dimension']}")
    expect(rep["recovered_values"] == values,
           f"recovered {rep['recovered_values']}, expected {values}")


def check_fixed(out, dim):
    _ok(out)
    expect(out["report"]["dimension"] == dim, f"dimension {out['report']['dimension']}, expected {dim}")
    expect(out["code"] == 0, f"exit {out['code']}")


def check_module(out, code):
    _ok(out)
    rep = out["report"]
    expect(out["code"] == code, f"exit {out['code']}, expected {code}")
    expect(rep["pass"] is (code == 0), f"pass={rep['pass']}")


def check_dplusplus(out, data):
    _ok(out)
    rep = out["report"]
    p, ms = data["p"], data["m"]
    r = max(ms)
    k = (r + 1) // (p - 1) + 1
    expect(out["code"] == 0, f"exit {out['code']}")
    expect((rep["r"], rep["k"]) == (r, k), f"(r, k) = {(rep['r'], rep['k'])}, expected {(r, k)}")
    for e, got in zip(data["elements"], rep["memberships"]):
        want = {"dplusplus": _membership(e, data, k), "dplus": _membership(e, data, 0)}
        verdicts = {key: got[key] for key in want}
        expect(verdicts == want, f"element X^{e}: {verdicts}, expected {want}")


def _membership(e, data, threshold):
    """The verdict for the monomial X^e: phi_s sends X^e to X^(p e - m)
    (times a constant), and X^e lies in X_Delta^threshold M iff every
    exponent is at least threshold.  A trivial module is decided by
    valuations directly."""
    if data["trivial"]:
        bound = 1 if threshold else 0
        return "yes_certified" if min(e) >= bound else "no_certified"
    y = list(e)
    for _ in range(7):
        if min(y) >= threshold:
            return "yes_certified"
        y = [data["p"] * yi - mi for yi, mi in zip(y, data["m"])]
    return "unknown"


def expected_image(data):
    """The image of the series under the word, by substitution: the factors
    of the word act right to left, so the image of X_alpha is
    f_m(...f_1(X_alpha)) for the factors f_1, ..., f_m on alpha read left to
    right."""
    p, P, nv = data["p"], data["P"], data["nv"]
    images, window = [], []
    for a in range(nv):
        g, cap = {1: 1}, math.inf
        for kind, b, arg in data["factors"]:
            if b != a:
                continue
            if kind == "phi":
                g = {e * p**arg: c for e, c in g.items()}
            else:
                cap = P
                outer = {k: math.comb(arg, k) % p for k in range(1, P + 1)}
                g = ref.univariate_compose(p, {k: v for k, v in outer.items() if v}, g, P)
        images.append({e: c for e, c in g.items() if e <= cap})
        # the image is truncated in alpha only where the series has X_alpha
        window.append(cap if any(x[a] for x in data["terms"]) else math.inf)
    total = {}
    for x, v in data["terms"].items():
        term = {(0,) * nv: v}
        for a, e in enumerate(x):
            for _ in range(e):
                factor = {tuple(k if i == a else 0 for i in range(nv)): c
                          for k, c in images[a].items()}
                term = ref.poly_mul_multi(p, term, factor, window)
        for key, c in term.items():
            total[key] = (total.get(key, 0) + c) % p
    return {k: c for k, c in total.items() if c}, window


def check_apply(out, data):
    _ok(out)
    expect(out["code"] == 0, f"exit {out['code']}")
    res = out["report"]["result"]
    nv = data["nv"]
    names = [f"X_{LABELS[i]}" for i in range(nv)]
    window = tuple(math.inf if res["window"][v] is None else res["window"][v] for v in names)
    got = {}
    for term in res["terms"]:
        x = tuple(term["exps"].get(v, 0) for v in names)
        (num,) = term["coeff"]["numerator"]
        vec = num["fdelta_coeff"]
        expect(not any(vec[1:]) and not num["monomial"], "coefficient outside F_p")
        got[x] = vec[0] % data["p"]
    want, want_window = expected_image(data)
    expect(window == tuple(want_window), f"window {window}, expected {tuple(want_window)}")
    expect(got == want, "image differs from the substitution")


CHECKS = {
    "roundtrip": check_roundtrip,
    "fixed-points": check_fixed,
    "quotient": check_fixed,
    "check-module": check_module,
    "corrupted": check_module,
    "dplusplus": check_dplusplus,
    "apply-op": check_apply,
    "apply-op^": check_apply,
}


def tampered(problems, outputs, failed_flags):
    """One recovered character value changed."""
    for prob, out, bad in zip(problems, outputs, failed_flags):
        if prob.kind == "roundtrip" and not bad:
            data = prob.plain(out)
            values = data["report"]["recovered_values"]
            label = sorted(values)[0]
            values[label] += 1
            return [("character value", prob, data)]
    return []
