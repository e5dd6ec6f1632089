"""The semilinear ring endomorphisms phi_alpha, gamma_alpha(c), delta_{alpha,b}.

An endomorphism is described by its action on generators: an image for each
series variable, a Frobenius exponent e_alpha per tensor factor (the finite
part and the transcendentals of factor alpha receive x -> x^{p^{e_alpha}}),
and a series multiplier ("twist") per transcendental with
t -> twist * t^{p^{e_alpha}}.  Everything else follows by substitution.

The generator actions implemented:

    phi_alpha:        X_alpha -> X_alpha^p, p-power on factor alpha, rest fixed
    gamma_alpha(c):   X_alpha -> (1+X_alpha)^c - 1, coefficients fixed
    delta_{alpha,b}:  t_{alpha,i} -> (1+X_alpha)^{b_i} t_{alpha,i}, rest fixed

Composition is available in closed form, and formal words in the generators
support a small textual syntax for the command line, e.g.
``"phi(a)^2 * gamma(a; 1+p) * delta(b; 0,1)"``.  A word acts like a
composition of functions: in ``A * B`` the factor ``B`` is applied first.
"""

from __future__ import annotations

import ast
import operator
import re

from .coeff import CoeffElement, UndecidedError
from .series import (
    INF,
    LaurentElement,
    PAdicUnitApprox,
    SeriesRingSpec,
    binomial_power,
    digits_for_window,
)


class RingEndo:
    def __init__(self, ring: SeriesRingSpec, var_images, frob_exps, twists=None):
        self.ring = ring
        self.var_images = tuple(var_images)
        self.frob_exps = tuple(frob_exps)
        self.twists = dict(twists or {})  # (alpha, local index) -> LaurentElement
        for alpha, img in enumerate(self.var_images):
            # with no term on a window that is finite in X_alpha alone, every
            # term has X_alpha-exponent past the window, which is all this
            # check needs; val() would ask for the exact valuation and raise
            past_window = not img.support and all(
                w == INF for i, w in enumerate(img.window) if i != alpha
            )
            low = img.window[alpha] < 0 if past_window else img.val(alpha) < 1
            if low:
                raise ValueError(
                    f"image of {ring.variables[alpha]} must have valuation >= 1"
                )
        self._pow_cache = {}

    # -- generator images ----------------------------------------------

    def twist(self, alpha, i):
        return self.twists.get((alpha, i), self.ring.one())

    def _var_power(self, alpha, e):
        key = (alpha, e)
        cached = self._pow_cache.get(key)
        if cached is None:
            img = self.var_images[alpha]
            cached = img ** e if e >= 0 else img.invert() ** (-e)
            self._pow_cache[key] = cached
        return cached

    # -- application ---------------------------------------------------

    def apply_coeff(self, c: CoeffElement) -> LaurentElement:
        """Image of a coefficient-ring element (a series, via the twists)."""
        ring = self.ring
        alg = ring.coeffs
        out = ring.zero()
        for mono, vec in c.num.items():
            out = out + self._image_of_num_term(mono, vec)
        for beta, poly in c.den:
            img = ring.zero()
            for mono, coeff in poly:
                img = img + self._image_of_num_term(
                    mono, (alg.fd_one() * coeff) % alg.p
                )
            verdict = img.unit_verdict()
            if verdict != "unit":
                raise UndecidedError(
                    f"denominator image is {verdict}; cannot apply endomorphism"
                )
            out = out * img.invert()
        return out

    def _image_of_num_term(self, mono, vec):
        ring = self.ring
        alg = ring.coeffs
        v = vec
        for alpha, e in enumerate(self.frob_exps):
            for _ in range(e):
                v = alg.fd_frob(v, alpha)
        new_mono = list(mono)
        mult = ring.one()
        for k, m in enumerate(mono):
            if m == 0:
                continue
            alpha = alg.t_owner[k]
            e = self.frob_exps[alpha]
            new_mono[k] = m * alg.p**e
            u = self.twists.get((alpha, k))
            if u is not None:
                key = ("twist", k, m)
                cached = self._pow_cache.get(key)
                if cached is None:
                    cached = u**m
                    self._pow_cache[key] = cached
                mult = mult * cached
        base = CoeffElement(alg, {tuple(new_mono): v}, ())
        return mult.scale(base)

    def apply(self, a: LaurentElement) -> LaurentElement:
        if not self.ring.same_as(a.ring):
            raise ValueError("endomorphism and element live in different rings")
        out = self.ring.zero()
        for exps, c in a.support.items():
            term = self.apply_coeff(c)
            for alpha, e in enumerate(exps):
                if e:
                    term = term * self._var_power(alpha, e)
            out = out + term
        # precision: substitution maps the unknown tail of a into terms of
        # valuation >= window + 1 in each variable (images preserve the
        # filtration), so a's window survives pessimistically
        out = out.truncated(
            tuple(min(wo, wa) for wo, wa in zip(out.window, a.window))
        )
        return out

    # -- composition ---------------------------------------------------

    def compose(self, other: "RingEndo") -> "RingEndo":
        """self after other:  apply(compose(s,t), a) = apply(s, apply(t, a))."""
        ring = self.ring
        alg = ring.coeffs
        p = alg.p
        var_images = tuple(self.apply(img) for img in other.var_images)
        frob_exps = tuple(a + b for a, b in zip(self.frob_exps, other.frob_exps))
        twists = {}
        for k in range(alg.total_d):
            alpha = alg.t_owner[k]
            u_t = other.twists.get((alpha, k))
            u_s = self.twists.get((alpha, k))
            if u_t is None and u_s is None:
                continue
            u = ring.one()
            if u_t is not None:
                u = u * self.apply(u_t)
            if u_s is not None:
                u = u * u_s ** (p ** other.frob_exps[alpha])
            twists[(alpha, k)] = u
        return RingEndo(ring, var_images, frob_exps, twists)

    def __repr__(self):
        return (
            f"RingEndo(frob_exps={self.frob_exps}, "
            f"twisted={sorted(k for k in self.twists)})"
        )


# ---------------------------------------------------------------------------
# generators


def identity_endo(ring: SeriesRingSpec) -> RingEndo:
    return RingEndo(
        ring,
        tuple(ring.var(i) for i in range(ring.nvars)),
        (0,) * ring.nvars,
    )


def _resolve_alpha(ring, alpha):
    if isinstance(alpha, str):
        if alpha in ring.var_index:
            return ring.var_index[alpha]
        return ring.coeffs.label_index(alpha)
    return alpha


def make_phi(ring: SeriesRingSpec, alpha) -> RingEndo:
    alpha = _resolve_alpha(ring, alpha)
    p = ring.coeffs.p
    images = [
        ring.var(i) ** p if i == alpha else ring.var(i) for i in range(ring.nvars)
    ]
    exps = tuple(1 if i == alpha else 0 for i in range(ring.nvars))
    return RingEndo(ring, images, exps)


def make_phi_s(ring: SeriesRingSpec) -> RingEndo:
    p = ring.coeffs.p
    return RingEndo(
        ring,
        tuple(ring.var(i) ** p for i in range(ring.nvars)),
        (1,) * ring.nvars,
    )


def make_gamma(ring: SeriesRingSpec, alpha, c: PAdicUnitApprox) -> RingEndo:
    alpha = _resolve_alpha(ring, alpha)
    if not c.is_unit:
        raise ValueError("gamma parameter must be a p-adic unit")
    images = [
        binomial_power(ring, alpha, c) if i == alpha else ring.var(i)
        for i in range(ring.nvars)
    ]
    return RingEndo(ring, images, (0,) * ring.nvars)


def gamma_inverse(ring: SeriesRingSpec, alpha, c: PAdicUnitApprox) -> RingEndo:
    return make_gamma(ring, alpha, c.inverse())


def make_delta(ring: SeriesRingSpec, alpha, b) -> RingEndo:
    """delta_{alpha,b}: t_{alpha,i} -> (1+X_alpha)^{b_i} t_{alpha,i}."""
    alpha = _resolve_alpha(ring, alpha)
    alg = ring.coeffs
    locals_ = [k for k in range(alg.total_d) if alg.t_owner[k] == alpha]
    if not locals_:
        raise ValueError(
            f"factor {alg.labels[alpha]} has no transcendentals to twist"
        )
    if len(b) != len(locals_):
        raise ValueError("twist vector length must match the transcendental count")
    twists = {}
    for bi, k in zip(b, locals_):
        if isinstance(bi, int):
            M = digits_for_window(alg.p, ring.precision[alpha])
            bi = PAdicUnitApprox(alg.p, bi, M)
        if bi.residue == 0:
            continue
        twists[(alpha, k)] = ring.one() + binomial_power(ring, alpha, bi)
    images = tuple(ring.var(i) for i in range(ring.nvars))
    return RingEndo(ring, images, (0,) * ring.nvars, twists)


# ---------------------------------------------------------------------------
# operator words


class OperatorWord:
    """A formal word in phi / gamma / delta generators with integer exponents.

    Factors apply right-to-left (function composition order).
    """

    def __init__(self, factors):
        # factors: list of ("phi", alpha, k) | ("gamma", alpha, c, k)
        #          | ("delta", alpha, (b...), k)
        self.factors = list(factors)

    def __mul__(self, other):
        return OperatorWord(self.factors + other.factors)

    def inverse(self):
        out = []
        for f in reversed(self.factors):
            out.append(f[:-1] + (-f[-1],))
        return OperatorWord(out)

    def to_endo(self, ring: SeriesRingSpec) -> RingEndo:
        endo = identity_endo(ring)
        for f in self.factors:
            endo = endo.compose(_factor_endo(ring, f))
        return endo

    def __repr__(self):
        bits = []
        for f in self.factors:
            kind, alpha = f[0], f[1]
            k = f[-1]
            pw = f"^{k}" if k != 1 else ""
            if kind == "phi":
                bits.append(f"phi({alpha}){pw}")
            elif kind == "gamma":
                bits.append(f"gamma({alpha}; {f[2].residue}){pw}")
            else:
                b = ",".join(str(x.residue) for x in f[2])
                bits.append(f"delta({alpha}; {b}){pw}")
        return " * ".join(bits) if bits else "1"


def _factor_endo(ring, f):
    kind, alpha = f[0], f[1]
    k = f[-1]
    if kind == "phi":
        if k < 0:
            raise ValueError("phi admits no inverse (monoid generator)")
        endo = identity_endo(ring)
        phi = make_phi(ring, alpha)
        for _ in range(k):
            endo = endo.compose(phi)
        return endo
    if kind == "gamma":
        c = f[2]
        ck = PAdicUnitApprox(c.p, pow(c.residue, k, c.p**c.M) if k >= 0 else
                             pow(c.inverse().residue, -k, c.p**c.M), c.M)
        return make_gamma(ring, alpha, ck)
    if kind == "delta":
        b = tuple(PAdicUnitApprox(x.p, x.residue * k, x.M) for x in f[2])
        return make_delta(ring, alpha, b)
    raise ValueError(f"unknown generator kind {kind}")


_HEAD_RE = re.compile(r"\s*(phi|gamma|delta)\s*\(\s*([A-Za-z_][A-Za-z_0-9]*)\s*")
_EXP_RE = re.compile(r"\s*(?:\^\s*(-?\d+))?\s*")
_EXPR_CHARS_RE = re.compile(r"[0-9p+\-*^() ]*")
_EXPR_OPS = {  # every operator but '^', which takes a literal exponent only
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
}
MAX_EXPR_LEN = 100  # characters in one numeric parameter


def _match_factor(text, pos):
    """Parse one generator factor; returns (kind, label, args, exp, newpos)."""
    m = _HEAD_RE.match(text, pos)
    if not m:
        return None
    kind, label = m.groups()
    pos = m.end()
    args = None
    if pos < len(text) and text[pos] == ";":
        pos += 1
        depth, start = 0, pos
        while pos < len(text):
            ch = text[pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            pos += 1
        args = text[start:pos]
    if pos >= len(text) or text[pos] != ")":
        raise ValueError(f"unbalanced parentheses at: {text[pos:]!r}")
    pos += 1
    m = _EXP_RE.match(text, pos)
    exp = m.group(1)
    return kind, label, args, exp, m.end()


def _eval_padic_expr(expr: str, p: int, M: int) -> PAdicUnitApprox:
    """An integer expression in the symbol ``p``, reduced mod p^M.

    The grammar has digits, ``p``, ``+`` and ``-`` (binary or unary), ``*``,
    parentheses, and ``^`` with a literal exponent (``p^2`` or ``p^(2)``);
    an exponent takes no further ``^``.  Every step is reduced mod p^M, which gives the residue
    of the exact value.
    """
    expr = " ".join(expr.split())
    if len(expr) > MAX_EXPR_LEN:
        raise ValueError(f"numeric expression longer than {MAX_EXPR_LEN} characters")
    bad = ValueError(f"bad numeric expression {expr!r}")
    if "**" in expr:
        raise ValueError(f"bad numeric expression {expr!r}: powers are written '^'")
    if not _EXPR_CHARS_RE.fullmatch(expr):
        raise bad
    try:  # Python's parser, with '^' as '**' and no leading zeros
        source = re.sub(r"\b0+(?=\d)", "", expr).replace("^", "**")
        tree = ast.parse(source, mode="eval").body
    except SyntaxError:
        raise bad from None
    mod = p**M

    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value % mod
        if isinstance(node, ast.Name) and node.id == "p":
            return p % mod
        op = _EXPR_OPS.get(type(getattr(node, "op", None)))
        if isinstance(node, ast.UnaryOp) and op:
            return op(value(node.operand)) % mod
        if isinstance(node, ast.BinOp) and op:
            return op(value(node.left), value(node.right)) % mod
        k = getattr(node, "right", None)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and (
            isinstance(k, ast.Constant) and type(k.value) is int
        ):
            return pow(value(node.left), k.value, mod)
        raise bad

    return PAdicUnitApprox(p, value(tree), M)


def parse_word(text: str, ring: SeriesRingSpec) -> OperatorWord:
    """Parse e.g. ``"phi(a)^2 * gamma(a; 1+p) * delta(b; 0,1)"``."""
    p = ring.coeffs.p
    factors = []
    pos = 0
    text = text.strip()
    if text in ("", "1"):
        return OperatorWord([])
    while pos < len(text):
        m = _match_factor(text, pos)
        if m is None:
            raise ValueError(f"cannot parse operator word at: {text[pos:]!r}")
        kind, label, args, exp, end = m
        alpha = _resolve_alpha(ring, label)
        k = int(exp) if exp else 1
        M = digits_for_window(p, ring.precision[alpha]) + 2
        if kind == "phi":
            if args is not None:
                raise ValueError("phi takes no parameters")
            factors.append(("phi", alpha, k))
        elif kind == "gamma":
            if args is None:
                raise ValueError("gamma requires a chi-value parameter")
            factors.append(("gamma", alpha, _eval_padic_expr(args, p, M), k))
        else:
            if args is None:
                raise ValueError("delta requires a twist vector")
            b = tuple(_eval_padic_expr(x, p, M) for x in args.split(","))
            factors.append(("delta", alpha, b, k))
        pos = end
        if pos < len(text):
            if text[pos] != "*":
                raise ValueError(f"expected '*' at: {text[pos:]!r}")
            pos += 1
    return OperatorWord(factors)


# ---------------------------------------------------------------------------
# relation checking


def verify_commutation(word1, word2, ring: SeriesRingSpec, trials=10, rng=None):
    """Check that two operator words act identically.

    Both words are applied to every ring generator and to ``trials`` random
    elements; equality holds up to the certified windows.  Returns a report
    dict; failures are entries, not exceptions.
    """
    import random as _random

    rng = rng or _random.Random(0)
    e1 = word1.to_endo(ring) if isinstance(word1, OperatorWord) else word1
    e2 = word2.to_endo(ring) if isinstance(word2, OperatorWord) else word2
    alg = ring.coeffs
    probes = [(f"var {v}", ring.var(i)) for i, v in enumerate(ring.variables)]
    probes += [(f"t {s}", ring.constant(alg.t(s))) for s in alg.tsymbols]
    probes += [
        (f"gen {alg.labels[i]}", ring.constant(alg.gen(i))) for i in range(alg.nvars)
    ]
    for n in range(trials):
        el = ring.zero()
        for _ in range(3):
            exps = tuple(rng.randrange(0, 3) for _ in range(ring.nvars))
            el = el + ring.monomial(exps, alg.random_element(rng, tdeg=1, terms=2))
        probes.append((f"random #{n}", el))
    failures = []
    for name, el in probes:
        a = e1.apply(el)
        b = e2.apply(el)
        if not a.eq_window(b):
            failures.append({"probe": name, "lhs": repr(a), "rhs": repr(b)})
    return {
        "probes": len(probes),
        "equal": not failures,
        "failures": failures,
    }
