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

Application is substitution in at most one kernel call.  Each t-row
(t^m, vector) of each input term c X^e becomes a constant row: the
Frobenius of the vector, keyed by t^(m p^e) and by the exponents of the
key-mapped variables.  A variable is key-mapped when its image is exactly
X_alpha^k (coefficient 1, exact, no poles), as under phi_alpha, phi_s,
their composites and the identity: its exponent e becomes the key entry
k e, a key map and not a product, refused past EXP_BOUND.  A row's
multiplier is the product of the twist powers of t^m and the image powers
of the other (moved) variables, cached on the endomorphism for the keys
the inputs use.  ``CoefficientAlgebra.combine_rows`` makes every
row-times-multiplier product in one batch and sums equal keys once.  Two
cases need no kernel: when no row has a multiplier (every variable of
every term key-mapped, no twist), each row is its own image under a
distinct key; and a single row times its multiplier is a series product
with a one-row operand (``series._row_times``).  The window, pole bound
and pole set are folded from metadata alone, in the order of the
term-by-term substitution: the sum rule over a coefficient's t-rows, the
product rule over the variable powers in variable order, the sum rule over
the terms and the input window.  Both rules are monotone, so each
multiplier is exact on its part of the folded window and the values there
are those of the term-by-term sum.  Coefficients with a denominator have
no rows; their images are made by series products and added into the
result.

Composition is available in closed form, and formal words in the generators
support a small textual syntax for the command line, e.g.
``"phi(a)^2 * gamma(a; 1+p) * delta(b; 0,1)"``.  A word acts like a
composition of functions: in ``A * B`` the factor ``B`` is applied first.
"""

from __future__ import annotations

import ast
import functools
import operator
import re

import numpy as np

from .coeff import (
    EXP_BOUND,
    EXP_BOUND_TEXT,
    CoeffElement,
    UndecidedError,
    check_exponent,
    check_keys,
)
from .series import (
    INF,
    LaurentElement,
    PAdicUnitApprox,
    SeriesRingSpec,
    _row_times,
    _support_from_rows,
    binomial_power,
    digits_for_window,
    product_meta,
    sum_meta,
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
        self._mono_cache = {}
        self._mult_cache = {}  # (twisted t-exponents, moved exponents) -> rows
        self._meta_cache = {}

    @functools.cached_property
    def _fixed(self):
        """Per variable, k when its image is exactly X_alpha^k (coefficient
        1, exact, no poles), else 0: then its exponents map keys e -> k e
        instead of multiplying."""
        return tuple(
            _monomial_exponent(img, alpha) for alpha, img in enumerate(self.var_images)
        )

    def _image_mono(self, mono):
        """The t-exponents of the image of t^mono: each times p^e, e the
        Frobenius exponent of its factor; cached, refused past EXP_BOUND."""
        out = self._mono_cache.get(mono)
        if out is None:
            alg = self.ring.coeffs
            out = tuple(m * alg.p ** self.frob_exps[a] for m, a in zip(mono, alg.t_owner))
            if out and max(out) > EXP_BOUND:
                check_exponent(max(out))
            self._mono_cache[mono] = out
        return out

    # -- generator images ----------------------------------------------

    def twist(self, alpha, i):
        return self.twists.get((alpha, i), self.ring.one())

    def _var_power(self, alpha, e):
        return self._power(alpha, self.var_images[alpha], e)

    def _power(self, name, base, e):
        """base^e for e != 0, cached under (name, e).

        Each power is one product of cached powers: x^e = x^(e-h) x^h with h
        the top bit of e, and x^h = x^(h/2) x^(h/2), the products that
        square-and-multiply makes for x^e; a negative e takes the powers of
        the inverse.
        """
        key = (name, e)
        cached = self._pow_cache.get(key)
        if cached is None:
            if e in (1, -1):
                cached = base if e == 1 else base.invert()
            else:
                h = (1 << (abs(e).bit_length() - 1)) * (1 if e > 0 else -1)
                if h == e:
                    half = self._power(name, base, e // 2)
                    cached = half * half
                else:
                    cached = self._power(name, base, e - h) * self._power(name, base, h)
            self._pow_cache[key] = cached
        return cached

    def _twist_power(self, tw):
        """The product of twist_k^(m_k) over the nonzero entries m_k of tw,
        in k order (tw nonzero), cached under ("twists", tw)."""
        key = ("twists", tw)
        mult = self._pow_cache.get(key)
        if mult is None:
            t_owner = self.ring.coeffs.t_owner
            for k, m in enumerate(tw):
                if m:
                    twist = self._power(("twist", k), self.twists[(t_owner[k], k)], m)
                    mult = twist if mult is None else mult * twist
            self._pow_cache[key] = mult
        return mult

    def _multiplier(self, tw, moved):
        """(rows, element) of the series that the terms X^moved t^mono with
        twisted t-exponents ``tw`` are multiplied by (tw or moved nonzero):
        the twist product times the moved variables' image powers in
        variable order; rows is None when a coefficient has a denominator.
        Cached per endomorphism, for the keys the inputs have used."""
        key = (tw, moved)
        cached = self._mult_cache.get(key)
        if cached is None:
            mult = self._twist_power(tw) if tw else None
            for alpha, e in enumerate(moved):
                if e:
                    power_ = self._var_power(alpha, e)
                    mult = power_ if mult is None else mult * power_
            alg = self.ring.coeffs
            rows = mult._rows()
            if rows is not None:
                keys, vecs = rows
                rows = (
                    keys.reshape(len(keys), self.ring.nvars + alg.total_d),
                    vecs.reshape(len(keys), alg.N),
                )
            cached = self._mult_cache[key] = (rows, mult)
        return cached

    def _frobenius(self, vecs):
        """The finite-part Frobenius x -> x^(p^e_alpha) on every factor; on
        GF(p^n) it has order n, so e_alpha counts mod n."""
        alg = self.ring.coeffs
        for alpha, e in enumerate(self.frob_exps):
            for _ in range(e % alg.degrees[alpha]):
                vecs = vecs @ alg.frob_matrices[alpha].T % alg.p
        return vecs

    def _term_meta(self, cmeta, exps):
        """The metadata of the image of one term c X^exps, where c's image
        has metadata ``cmeta``: the product rule folded over the variable
        powers in variable order, as the products would make it."""
        key = (cmeta, exps)
        meta = self._meta_cache.get(key)
        if meta is None:
            ring = self.ring
            meta = cmeta
            for alpha, e in enumerate(exps):
                if not e:
                    continue
                k = self._fixed[alpha]
                if k:  # X_alpha^(k e), in closed form
                    vmeta = (
                        (INF,) * ring.nvars,
                        max(0, -k * e),
                        frozenset((alpha,)) if e < 0 else frozenset(),
                    )
                else:
                    vmeta = self._var_power(alpha, e).meta()
                meta = product_meta(ring, meta, vmeta)
            self._meta_cache[key] = meta
        return meta

    # -- application ---------------------------------------------------

    def apply_coeff(self, c: CoeffElement) -> LaurentElement:
        """Image of a coefficient-ring element (a series, via the twists)."""
        ring = self.ring
        alg = ring.coeffs
        zero = (0,) * ring.nvars
        exact = (INF,) * ring.nvars
        out = self._substitute([(zero, CoeffElement(alg, c.num, ()))], exact)
        for beta, poly in c.den:
            num = {mono: (alg.fd_one() * coeff) % alg.p for mono, coeff in poly}
            img = self._substitute([(zero, CoeffElement(alg, num, ()))], exact)
            inv = img.try_invert()
            if inv is None:
                raise UndecidedError(
                    f"denominator image is {img.unit_verdict()}; "
                    "cannot apply endomorphism"
                )
            out = out * inv
        return out

    def apply(self, a: LaurentElement) -> LaurentElement:
        if not self.ring.same_as(a.ring):
            raise ValueError("endomorphism and element live in different rings")
        # precision: substitution maps the unknown tail of a into terms of
        # valuation >= window + 1 in each variable (images preserve the
        # filtration), so a's window survives pessimistically
        return self._substitute(a.support.items(), a.window)

    def _substitute(self, terms, window):
        """The image of the sum of ``terms`` ((exponents, coefficient)
        pairs), truncated to ``window``: at most one ``combine_rows`` call
        for the rows, the metadata folded as the module docstring says.  A
        coefficient with a denominator, in a term or in a multiplier, has
        no rows: its images are made by series products, as a sum of
        fractions needs, and added into the support."""
        ring = self.ring
        alg = ring.coeffs
        nv = ring.nvars
        constant = ((INF,) * nv, 0, frozenset())
        metas = [(tuple(window), 0, frozenset())]
        rows = []  # (key-mapped X-exponents, image t-monomial, vector, multiplier)
        fractions = []
        twisted = [(alg.t_owner[k], k) in self.twists for k in range(alg.total_d)]
        scaled = alg.total_d and any(self.frob_exps)
        stretched = any(k > 1 for k in self._fixed)
        for exps, c in terms:
            if c.den:
                term = self.apply_coeff(c)
                for alpha, e in enumerate(exps):
                    if e:
                        term = term * self._var_power(alpha, e)
                metas.append(term.meta())
                fractions.append(term.support)
                continue
            moved = tuple(0 if k else e for e, k in zip(exps, self._fixed))
            shift = tuple(k * e for e, k in zip(exps, self._fixed))
            if stretched:
                check_keys([shift])
            moves = any(moved)
            cmetas = []  # of the twisted rows: the others' is the sum's identity
            for mono, vec in c.num.items():
                tw = ()
                if self.twists:
                    tw = tuple(m if t else 0 for m, t in zip(mono, twisted))
                    if any(tw):
                        cmetas.append(self._twist_power(tw).meta())
                    else:
                        tw = ()
                mult = None  # the multiplier 1; else (its rows, the series)
                if tw or moves:
                    mult = self._multiplier(tw, moved)
                    if mult[0] is None:  # a multiplier coefficient with a denominator
                        fractions.append(_row_times(
                            ring, mult[1].support, shift, self._image_mono(mono),
                            self._frobenius(vec[None, :])[0], (INF,) * nv,
                        ))
                        continue
                rows.append((shift, self._image_mono(mono) if scaled else mono, vec, mult))
            cmeta = constant if not cmetas else (
                cmetas[0] if len(cmetas) == 1 else sum_meta(ring, cmetas)
            )
            metas.append(self._term_meta(cmeta, tuple(exps)))
        out_window, pole_bound, pole_set = sum_meta(ring, metas)
        support = {}
        if all(mult is None for *_, mult in rows):
            support = self._own_images(rows, out_window)
        elif len(rows) == 1:
            ((shift, mono, vec, (_, mult)),) = rows
            support = _row_times(
                ring, mult.support, shift, mono, self._frobenius(vec[None, :])[0],
                out_window,
            )
        else:
            kc = np.array([shift + mono for shift, mono, _, _ in rows], dtype=np.int64)
            vc = self._frobenius(np.array([vec for _, _, vec, _ in rows]))
            one = (
                np.zeros((1, nv + alg.total_d), dtype=np.int64), alg.fd_one()[None, :]
            )
            blocks = [one if mult is None else mult[0] for *_, mult in rows]
            km = np.concatenate([k for k, _ in blocks])
            vm = np.concatenate([v for _, v in blocks])
            owner = np.repeat(np.arange(len(blocks)), [len(k) for k, _ in blocks])
            limit = None
            if any(w != INF for w in out_window):
                limit = np.array(out_window + (INF,) * alg.total_d)
            keys, vecs = alg.combine_rows(kc, vc, km, vm, owner, limit)
            support = _support_from_rows(ring, keys, vecs)
        finite = [(i, w) for i, w in enumerate(out_window) if w != INF]
        for part in fractions:
            for e, c in part.items():
                if any(e[i] > w for i, w in finite):
                    continue
                cur = support.get(e)
                s = c if cur is None else cur + c
                if s.is_zero():
                    support.pop(e, None)
                else:
                    support[e] = s
        return LaurentElement._trusted(
            ring, support, pole_bound, out_window, pole_set, clipped=True
        )

    def _own_images(self, rows, window):
        """The support of rows that have no multiplier, cut to ``window``:
        each row is its own image.  Such a row's term has exponents only in
        key-mapped variables, and e -> k e is injective for k >= 1, so rows
        of distinct terms have distinct keys and nothing is summed."""
        alg = self.ring.coeffs
        finite = [(i, w) for i, w in enumerate(window) if w != INF]
        kept = [row for row in rows if not any(row[0][i] > w for i, w in finite)]
        vecs = [vec for _, _, vec, _ in kept]
        if kept and any(e % n for e, n in zip(self.frob_exps, alg.degrees)):
            vecs = [v.copy() for v in self._frobenius(np.array(vecs))]
        nums = {}
        for (shift, mono, _, _), vec in zip(kept, vecs):
            num = nums.get(shift)
            if num is None:
                nums[shift] = num = {}
            num[mono] = vec
        return {e: CoeffElement(alg, num, ()) for e, num in nums.items()}

    # -- composition ---------------------------------------------------

    def compose(self, other: "RingEndo") -> "RingEndo":
        """self after other:  apply(compose(s,t), a) = apply(s, apply(t, a))."""
        ring = self.ring
        alg = ring.coeffs
        p = alg.p
        # where other sends X_beta to X_beta itself, the image is self's own
        var_images = tuple(
            own if k == 1 else self.apply(img)
            for img, k, own in zip(other.var_images, other._fixed, self.var_images)
        )
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


def _monomial_exponent(img, alpha):
    """k when ``img`` is exactly X_alpha^k (coefficient 1, exact, no
    poles), else 0."""
    if len(img.support) != 1 or img.pole_bound:
        return 0
    ((exps, c),) = img.support.items()
    if any(exps[:alpha]) or any(exps[alpha + 1:]) or c.den or len(c.num) != 1:
        return 0
    ((mono, vec),) = c.num.items()
    one = vec.tolist()
    if any(mono) or one[0] != 1 or any(one[1:]) or any(w != INF for w in img.window):
        return 0
    return exps[alpha]


# ---------------------------------------------------------------------------
# generators


def identity_endo(ring: SeriesRingSpec) -> RingEndo:
    return RingEndo(
        ring,
        tuple(ring.var(i) for i in range(ring.nvars)),
        (0,) * ring.nvars,
    )


def _x_power(ring, alpha, k):
    """The monomial X_alpha^k, built directly rather than as a power."""
    return ring.monomial(tuple(k if i == alpha else 0 for i in range(ring.nvars)))


def _resolve_alpha(ring, alpha):
    if isinstance(alpha, str):
        if alpha in ring.var_index:
            return ring.var_index[alpha]
        return ring.coeffs.label_index(alpha)
    return alpha


def make_phi(ring: SeriesRingSpec, alpha, k=1) -> RingEndo:
    """phi_alpha^k in closed form: X_alpha -> X_alpha^(p^k), and the
    Frobenius k times on factor alpha."""
    alpha = _resolve_alpha(ring, alpha)
    p = ring.coeffs.p
    if p ** min(k, 63) > EXP_BOUND:  # p^63 >= 2^63, and p^k grows with k
        raise ValueError(f"exponent out of range: {EXP_BOUND_TEXT}")
    images = [_x_power(ring, i, p**k if i == alpha else 1) for i in range(ring.nvars)]
    exps = tuple(k if i == alpha else 0 for i in range(ring.nvars))
    return RingEndo(ring, images, exps)


def make_phi_s(ring: SeriesRingSpec) -> RingEndo:
    p = ring.coeffs.p
    return RingEndo(
        ring,
        tuple(_x_power(ring, i, p) for i in range(ring.nvars)),
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
        if not self.factors:
            return identity_endo(ring)
        return functools.reduce(
            RingEndo.compose, (_factor_endo(ring, f) for f in self.factors)
        )

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
        return make_phi(ring, alpha, k)
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
