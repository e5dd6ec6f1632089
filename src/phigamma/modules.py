"""Free modules with commuting semilinear operator actions over the Laurent ring.

A module of rank r is described by one r x r matrix per operator generator:
the partial Frobenii phi_alpha (required, etale), plus finitely many group
generators gamma_alpha(c) and delta_{alpha,b}.  The semilinear convention is
fixed once and for all:

    T_g(sum c_j e_j) = sum sigma_g(c_j) T_g(e_j),  T_g(e_j) = sum_i A[i][j] e_i,

so coordinates transform as  v -> A_g . sigma_g(v)  and compositions satisfy
Mat(T_g o T_h) = A_g . sigma_g(A_h).

Determinants and adjugates are cofactor expansions, and every inverse is
the adjugate times det^-1 (``_det_and_inverse``).

Lattices are finitely generated submodules over the power-series subring;
membership is decided by solving against an invertible generator matrix and
certifying nonnegative exponents, reporting "undecided" near the window
boundary rather than guessing.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .coeff import NotInvertibleError
from .endos import RingEndo, make_delta, make_gamma, make_phi
from .fields import power
from .series import (
    PAdicUnitApprox,
    PrecisionError,
    SeriesRingSpec,
    laurent_from_json,
    laurent_to_json,
)


class RelationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrices over the Laurent ring


def mat_identity(ring, r):
    return [
        [ring.one() if i == j else ring.zero() for j in range(r)] for i in range(r)
    ]


def _sum(terms):
    """The sum of a nonempty iterable of series, starting at its first term."""
    return functools.reduce(operator.add, terms)


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[_sum(map(operator.mul, row, col)) for col in cols] for row in A]


def mat_vec(A, v):
    return [_sum(map(operator.mul, row, v)) for row in A]


def mat_apply(endo: RingEndo, A):
    return [[endo.apply(x) for x in row] for row in A]


def mat_eq_window(A, B):
    return all(
        a.eq_window(b) for row_a, row_b in zip(A, B) for a, b in zip(row_a, row_b)
    )


def _cofactor(A, i, j):
    """(-1)^(i+j) times the determinant of A without row i and column j."""
    minor = mat_det([row[:j] + row[j + 1:] for k, row in enumerate(A) if k != i])
    return minor if (i + j) % 2 == 0 else -minor


def mat_det(A):
    """The determinant, by cofactor expansion along the first row."""
    if len(A) == 1:
        return A[0][0]
    return _sum(a * _cofactor(A, 0, j) for j, a in enumerate(A[0]))


def mat_adjugate(A):
    """The adjugate: entry (j, i) is the (i, j) cofactor."""
    r = len(A)
    if r == 1:
        return [[A[0][0].ring.one()]]
    return [[_cofactor(A, i, j) for i in range(r)] for j in range(r)]


def _det_and_inverse(A):
    """(det A, A^-1), with A^-1 None when det A is not a certified unit."""
    det = mat_det(A)
    dinv = det.try_invert()
    if dinv is None:
        return det, None
    return det, [[x * dinv for x in row] for row in mat_adjugate(A)]


def mat_inverse(A):
    """Inverse over the Laurent ring; raises when the determinant is not
    a certified unit."""
    det, inv = _det_and_inverse(A)
    if inv is None:
        raise NotInvertibleError(f"element is {det.unit_verdict()}")
    return inv


# ---------------------------------------------------------------------------
# modules


class PhiGammaModule:
    def __init__(self, ring: SeriesRingSpec, rank, phi_matrices,
                 gamma_generators=(), delta_generators=()):
        self.ring = ring
        self.rank = rank
        self.phi_matrices = dict(phi_matrices)  # alpha -> matrix
        if set(self.phi_matrices) != set(range(ring.nvars)):
            raise ValueError("one phi matrix per variable required")
        self.gamma_generators = list(gamma_generators)  # (alpha, c, matrix)
        self.delta_generators = list(delta_generators)  # (alpha, b-tuple, matrix)
        self._endos = {}

    # -- generator bookkeeping -----------------------------------------

    def generator_keys(self):
        keys = [("phi", alpha) for alpha in sorted(self.phi_matrices)]
        keys += [("gamma", i) for i in range(len(self.gamma_generators))]
        keys += [("delta", i) for i in range(len(self.delta_generators))]
        return keys

    def matrix(self, key):
        kind, i = key
        if kind == "phi":
            return self.phi_matrices[i]
        if kind == "gamma":
            return self.gamma_generators[i][2]
        return self.delta_generators[i][2]

    def endo(self, key) -> RingEndo:
        if key not in self._endos:
            kind, i = key
            if kind == "phi":
                e = make_phi(self.ring, i)
            elif kind == "gamma":
                alpha, c, _ = self.gamma_generators[i]
                e = make_gamma(self.ring, alpha, c)
            else:
                alpha, b, _ = self.delta_generators[i]
                e = make_delta(self.ring, alpha, b)
            self._endos[key] = e
        return self._endos[key]

    def key_alpha(self, key):
        kind, i = key
        if kind == "phi":
            return i
        if kind == "gamma":
            return self.gamma_generators[i][0]
        return self.delta_generators[i][0]

    def act(self, key, v):
        """Coordinates of T_g(v):  A_g . sigma_g(v)."""
        endo = self.endo(key)
        return mat_vec(self.matrix(key), [endo.apply(x) for x in v])

    def act_phi_s(self, v):
        for alpha in sorted(self.phi_matrices):
            v = self.act(("phi", alpha), v)
        return v

    def is_trivial(self):
        ring = self.ring
        ident = mat_identity(ring, self.rank)
        if not all(
            mat_eq_window(self.phi_matrices[a], ident) for a in self.phi_matrices
        ):
            return False
        return all(
            mat_eq_window(g[2], ident)
            for g in self.gamma_generators + self.delta_generators
        )


def check_etale(D: PhiGammaModule):
    """Per-alpha certificate that A_{phi_alpha} is invertible over the
    Laurent ring."""
    report = {}
    for alpha, A in sorted(D.phi_matrices.items()):
        det, inv = _det_and_inverse(A)
        verdict = "unit" if inv is not None else det.unit_verdict()
        entry = {"alpha": D.ring.coeffs.labels[alpha], "det_verdict": verdict}
        if inv is not None:
            ok = mat_eq_window(mat_mul(A, inv), mat_identity(D.ring, D.rank))
            entry["etale"] = bool(ok)
            entry["inverse"] = inv
        elif verdict == "nonunit":
            entry["etale"] = False
        else:
            entry["etale"] = "undecided at this precision"
        report[alpha] = entry
    report["pass"] = all(v["etale"] is True for k, v in report.items() if k != "pass")
    return report


def _word_matrix(D, g, h):
    """Matrix of T_g o T_h by the cocycle rule A_g . sigma_g(A_h)."""
    return mat_mul(D.matrix(g), mat_apply(D.endo(g), D.matrix(h)))


def _inverse_gamma_matrix(D, i):
    """A_{gamma^{-1}} = gamma^{-1}(A_gamma^{-1})."""
    alpha, c, A = D.gamma_generators[i]
    return mat_apply(make_gamma(D.ring, alpha, c.inverse()), mat_inverse(A))


def _delta_power_matrix(D, i, c: PAdicUnitApprox):
    """A_{delta^c} for the integer representative of c.

    By the cocycle rule, the pairs (A_{delta^m}, m) multiply as
    (A_{delta^m}, m)(A_{delta^n}, n) = (A_{delta^m} . delta^m(A_{delta^n}), m + n),
    and delta_{alpha,b}^m = delta_{alpha,m*b}; square-and-multiply then takes
    O(log c) products.
    """
    alpha, b, A = D.delta_generators[i]

    def mul(x, y):
        (Am, m), (An, n) = x, y
        bm = tuple(
            m * v if isinstance(v, int) else PAdicUnitApprox(v.p, m * v.residue, v.M)
            for v in b
        )
        return mat_mul(Am, mat_apply(make_delta(D.ring, alpha, bm), An)), m + n

    return power((A, 1), c.residue, (mat_identity(D.ring, D.rank), 0), mul)[0]


def _congruent_identity_mod_xdelta(D, A):
    ident = mat_identity(D.ring, D.rank)
    for i in range(D.rank):
        for j in range(D.rank):
            diff = A[i][j] - ident[i][j]
            # every term must be divisible by X_Delta
            for e in diff.support:
                if min(e) < 1:
                    return False
    return True


def check_relations(D: PhiGammaModule):
    """Verify all matrix cocycle identities up to the certified window."""
    results = []

    def record(name, lhs, rhs, note=None):
        ok = mat_eq_window(lhs, rhs)
        entry = {"relation": name, "status": "pass" if ok else "fail"}
        if note:
            entry["note"] = note
        if not ok:
            for i in range(D.rank):
                for j in range(D.rank):
                    if not lhs[i][j].eq_window(rhs[i][j]):
                        entry["first_discrepancy"] = {
                            "entry": [i, j],
                            "lhs": repr(lhs[i][j]),
                            "rhs": repr(rhs[i][j]),
                        }
                        break
                if "first_discrepancy" in entry:
                    break
        results.append(entry)

    labels = D.ring.coeffs.labels
    phis = sorted(D.phi_matrices)
    for a, b in itertools.combinations(phis, 2):
        record(
            f"phi_{labels[a]} phi_{labels[b]} = phi_{labels[b]} phi_{labels[a]}",
            _word_matrix(D, ("phi", a), ("phi", b)),
            _word_matrix(D, ("phi", b), ("phi", a)),
        )
    group_keys = [("gamma", i) for i in range(len(D.gamma_generators))]
    group_keys += [("delta", i) for i in range(len(D.delta_generators))]
    for a in phis:
        for key in group_keys:
            record(
                f"phi_{labels[a]} commutes with {key[0]}#{key[1]}",
                _word_matrix(D, ("phi", a), key),
                _word_matrix(D, key, ("phi", a)),
            )
    for k1, k2 in itertools.combinations(group_keys, 2):
        a1, a2 = D.key_alpha(k1), D.key_alpha(k2)
        same_delta = k1[0] == k2[0] == "delta" and a1 == a2
        same_gamma = k1[0] == k2[0] == "gamma" and a1 == a2
        if a1 != a2 or same_delta or same_gamma:
            record(
                f"{k1[0]}#{k1[1]} commutes with {k2[0]}#{k2[1]}",
                _word_matrix(D, k1, k2),
                _word_matrix(D, k2, k1),
            )
    for gi, (ga, c, _) in enumerate(D.gamma_generators):
        for di, (da, b, Ad) in enumerate(D.delta_generators):
            if ga != da:
                continue
            gkey, dkey = ("gamma", gi), ("delta", di)
            Aginv = _inverse_gamma_matrix(D, gi)
            # lhs: gamma o delta o gamma^{-1}
            lhs = mat_mul(
                D.matrix(gkey),
                mat_apply(
                    D.endo(gkey),
                    mat_mul(Ad, mat_apply(D.endo(dkey), Aginv)),
                ),
            )
            rhs = _delta_power_matrix(D, di, c)
            note = (
                None
                if _congruent_identity_mod_xdelta(D, Ad)
                else f"checked at digit precision M={c.M}"
            )
            record(
                f"gamma#{gi} delta#{di} gamma#{gi}^-1 = delta#{di}^chi",
                lhs,
                rhs,
                note,
            )
    return {"pass": all(r["status"] == "pass" for r in results), "checks": results}


# ---------------------------------------------------------------------------
# rank-1 constructions


def rank_one_from_units(ring: SeriesRingSpec, a_alpha, gamma_units=(),
                        delta_units=()):
    """The rank-1 module with phi_alpha acting by the unit a_alpha and each
    group generator g by the unit a_g.

    ``a_alpha``: dict alpha -> LaurentElement; ``gamma_units``: iterable of
    (alpha, c, unit); ``delta_units``: iterable of (alpha, b, unit).  Scalars
    that break a relation of ``check_relations`` raise ``RelationError``.
    """
    for alpha, u in a_alpha.items():
        if u.unit_verdict() != "unit":
            raise NotInvertibleError(
                f"phi scalar for {ring.coeffs.labels[alpha]} is not a certified unit"
            )
    for _, _, u in list(gamma_units) + list(delta_units):
        if u.unit_verdict() != "unit":
            raise NotInvertibleError("group scalar is not a certified unit")
    D = PhiGammaModule(
        ring,
        1,
        {alpha: [[u]] for alpha, u in a_alpha.items()},
        [(alpha, c, [[u]]) for alpha, c, u in gamma_units],
        [(alpha, tuple(b), [[u]]) for alpha, b, u in delta_units],
    )
    rel = check_relations(D)
    if not rel["pass"]:
        bad = [r for r in rel["checks"] if r["status"] != "pass"]
        raise RelationError(f"incompatible rank-1 scalars: {bad}")
    return D


def verify_val_zero(D: PhiGammaModule, alpha, key):
    """For a rank-1 module: the scalar of a generator over beta != alpha has
    X_alpha-valuation 0, and the compatibility identity enforces it."""
    if D.rank != 1:
        raise ValueError("rank-1 modules only")
    beta = D.key_alpha(key)
    if beta == alpha:
        raise ValueError("generator must come from a factor other than alpha")
    a_g = D.matrix(key)[0][0]
    a_a = D.phi_matrices[alpha][0][0]
    v = a_g.val(alpha)
    # compatibility: phi_alpha(a_g) a_alpha = g(a_alpha) a_g, so
    # p*val(a_g) + val(a_alpha) = val(a_alpha) + val(a_g), forcing val = 0
    lhs = D.endo(("phi", alpha)).apply(a_g) * a_a
    rhs = D.endo(key).apply(a_a) * a_g
    residual = lhs - rhs
    p = D.ring.coeffs.p
    return {
        "val": v,
        "val_zero": v == 0,
        "identity_holds": not residual.support,
        "bookkeeping": {
            "p*val(a_g) + val(a_alpha)": p * v + a_a.val(alpha),
            "val(a_alpha) + val(a_g)": a_a.val(alpha) + v,
        },
    }


# ---------------------------------------------------------------------------
# lattices


class Lattice:
    """A finitely generated submodule over the power-series subring, given by
    a square invertible generator matrix (columns are the generators)."""

    def __init__(self, module: PhiGammaModule, generators):
        self.module = module
        gens = list(generators)
        if len(gens) != module.rank:
            raise ValueError(
                "lattice requires exactly rank many generators (square case)"
            )
        for g in gens:
            for x in g:
                if x.support and min(min(e) for e in x.support) < 0:
                    raise ValueError("lattice generators must be pole-free")
        self.generators = gens
        self.gmatrix = [[gens[j][i] for j in range(len(gens))]
                        for i in range(module.rank)]
        _, self.ginv = _det_and_inverse(self.gmatrix)
        if self.ginv is None:
            raise ValueError(
                "generator matrix must be invertible over the Laurent ring "
                "(lattice must span the module after inverting X_Delta)"
            )
        self._certificate = None  # (D, dplusplus_certified_lattice(D, self))

    def scaled(self, k):
        """The lattice X_Delta^k . M (k >= 0)."""
        xk = self.module.ring.x_delta(k)
        return Lattice(self.module, [[x * xk for x in g] for g in self.generators])

    def membership(self, x):
        """('yes'|'no'|'undecided', coordinates).

        Solves G c = x and inspects the exponents of c: any certified
        negative exponent is a certified 'no'; all-exact nonnegative
        coordinates are a certified 'yes'; otherwise the window decides what
        can be asserted.
        """
        c = mat_vec(self.ginv, x)
        negative = any(
            ci.support and min(min(e) for e in ci.support) < 0 for ci in c
        )
        if negative:
            return "no", c
        if all(ci.is_exact() or ci.pole_bound == 0 for ci in c):
            return "yes", c
        return "undecided", c


def phi_s_denominator(D: PhiGammaModule, M: Lattice):
    """The least r >= 0 with phi_s(M) contained in X_Delta^{-r} M, searched
    up to p times the largest precision."""
    ring = D.ring
    r_max = max(ring.precision) * ring.coeffs.p
    images = [D.act_phi_s(g) for g in M.generators]
    for r in range(r_max + 1):
        xr = ring.x_delta(r)
        ok = True
        for img in images:
            verdict, _ = M.membership([x * xr for x in img])
            if verdict == "undecided":
                raise PrecisionError("lattice membership undecided at this window")
            if verdict == "no":
                ok = False
                break
        if ok:
            return r
    raise PrecisionError(f"no denominator exponent found up to {r_max}")


def dplusplus_certified_lattice(D: PhiGammaModule, M: Lattice):
    """k = floor((r+1)/(p-1)) + 1 and the lattice X_Delta^k M, with the
    direct containment phi_s(X_Delta^k M) in X_Delta^{k+1} M re-verified.

    The certificate is kept on M for the D it was computed with."""
    if M._certificate is not None and M._certificate[0] is D:
        return M._certificate[1]
    p = D.ring.coeffs.p
    r = phi_s_denominator(D, M)
    k = (r + 1) // (p - 1) + 1
    Mk = M.scaled(k)
    Mk1 = M.scaled(k + 1)
    for g in Mk.generators:
        img = D.act_phi_s(g)
        verdict, _ = Mk1.membership(img)
        if verdict != "yes":
            raise PrecisionError(
                f"direct containment check returned {verdict} for k={k}"
            )
    cert = {"r": r, "k": k, "lattice": Mk, "contained": True}
    M._certificate = (D, cert)
    return cert


ORBIT_STEPS = 6  # phi_s steps tried before a membership reads "unknown"


def in_dplusplus(D: PhiGammaModule, M: Lattice, x):
    """Does the phi_s-orbit of x tend to 0?  Three-valued."""
    return _orbit_membership(D, M, x, plusplus=True)


def in_dplus(D: PhiGammaModule, M: Lattice, x):
    """Is the phi_s-orbit of x bounded?  Three-valued."""
    return _orbit_membership(D, M, x, plusplus=False)


def _orbit_membership(D, M, x, plusplus):
    ring = D.ring
    if D.is_trivial() and D.rank == 1:
        # exact criterion: valuations scale by p under phi_s
        el = x[0]
        bound = 1 if plusplus else 0
        try:
            vals = [el.val(alpha) for alpha in range(ring.nvars)]
        except PrecisionError:
            return "unknown"
        if all(v >= bound for v in vals):
            return "yes_certified"
        return "no_certified"
    cert = dplusplus_certified_lattice(D, M)
    target = cert["lattice"] if plusplus else M
    y = list(x)
    for _ in range(ORBIT_STEPS + 1):
        verdict, _ = target.membership(y)
        if verdict == "yes":
            return "yes_certified"
        y = D.act_phi_s(y)
    return "unknown"


def torsion_free_check(D, M, x, n1, n2, alpha, plusplus=False):
    """Lemma-style torsion-freeness: if X_alpha^{n1} x and
    X_{Delta minus alpha}^{n2} x both lie in D+ (or D++), then so does x."""
    ring = D.ring
    member = in_dplusplus if plusplus else in_dplus
    xa = ring.monomial(tuple(n1 if i == alpha else 0 for i in range(ring.nvars)))
    xrest = ring.monomial(tuple(0 if i == alpha else n2 for i in range(ring.nvars)))
    p1 = member(D, M, [v * xa for v in x])
    p2 = member(D, M, [v * xrest for v in x])
    if "unknown" in (p1, p2):
        raise PrecisionError("premise membership undecided")
    if p1 != "yes_certified" or p2 != "yes_certified":
        return {"premises": (p1, p2), "vacuous": True, "holds": True}
    concl = member(D, M, x)
    if concl == "unknown":
        raise PrecisionError("conclusion membership undecided")
    return {
        "premises": (p1, p2),
        "vacuous": False,
        "holds": concl == "yes_certified",
    }


# ---------------------------------------------------------------------------
# base change


def base_change(D: PhiGammaModule, P):
    """Change of basis:  A'_g = P^{-1} . A_g . sigma_g(P)."""
    Pinv = mat_inverse(P)

    def xform(key, A):
        return mat_mul(Pinv, mat_mul(A, mat_apply(D.endo(key), P)))

    return PhiGammaModule(
        D.ring,
        D.rank,
        {a: xform(("phi", a), A) for a, A in D.phi_matrices.items()},
        [
            (alpha, c, xform(("gamma", i), A))
            for i, (alpha, c, A) in enumerate(D.gamma_generators)
        ],
        [
            (alpha, b, xform(("delta", i), A))
            for i, (alpha, b, A) in enumerate(D.delta_generators)
        ],
    )


# ---------------------------------------------------------------------------
# JSON (schema "pg_module")

MAX_DIGITS = 64  # p-adic digits of a gamma or delta parameter (p**digits is formed)


def _mat_to_json(A):
    return [laurent_to_json(x) for row in A for x in row]


def _mat_from_json(ring, data, r):
    flat = [laurent_from_json(ring, d) for d in data]
    if len(flat) != r * r:
        raise ValueError("matrix entry count does not match rank")
    return [flat[i * r : (i + 1) * r] for i in range(r)]


def module_to_json(D: PhiGammaModule) -> dict:
    labels = D.ring.coeffs.labels
    return {
        "rank": D.rank,
        "phi": {labels[a]: _mat_to_json(A) for a, A in sorted(D.phi_matrices.items())},
        "gamma": [
            {
                "alpha": labels[alpha],
                "chi": c.residue,
                "digits": c.M,
                "matrix": _mat_to_json(A),
            }
            for alpha, c, A in D.gamma_generators
        ],
        "delta": [
            {
                "alpha": labels[alpha],
                "index": 0,
                "b": [x.residue if hasattr(x, "residue") else int(x) for x in b],
                "digits": max((x.M for x in b if hasattr(x, "M")), default=1),
                "matrix": _mat_to_json(A),
            }
            for alpha, b, A in D.delta_generators
        ],
    }


def _digits_from_json(g):
    M = int(g.get("digits", 8))
    if not 1 <= M <= MAX_DIGITS:
        raise ValueError(f"digits must lie in 1..{MAX_DIGITS}, got {M}")
    return M


def module_from_json(ring: SeriesRingSpec, data: dict) -> PhiGammaModule:
    alg = ring.coeffs
    r = int(data["rank"])
    p = alg.p
    phi = {
        alg.label_index(a): _mat_from_json(ring, m, r) for a, m in data["phi"].items()
    }
    gamma = []
    for g in data.get("gamma", []):
        M = _digits_from_json(g)
        gamma.append(
            (
                alg.label_index(g["alpha"]),
                PAdicUnitApprox(p, int(g["chi"]), M),
                _mat_from_json(ring, g["matrix"], r),
            )
        )
    delta = []
    for g in data.get("delta", []):
        alpha = alg.label_index(g["alpha"])
        M = _digits_from_json(g)
        d_alpha = sum(1 for k in range(alg.total_d) if alg.t_owner[k] == alpha)
        if "b" in g:
            b = tuple(PAdicUnitApprox(p, int(x), M) for x in g["b"])
        else:
            idx = int(g.get("index", 0))
            b = tuple(
                PAdicUnitApprox(p, 1 if k == idx else 0, M) for k in range(d_alpha)
            )
        delta.append((alpha, b, _mat_from_json(ring, g["matrix"], r)))
    return PhiGammaModule(ring, r, phi, gamma, delta)
