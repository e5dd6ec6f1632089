"""Acceptance gate: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (see conftest.py) and enforces
both the mathematical property and its runtime budget.  All comparisons are
exact over F_p on certified windows.
"""

import itertools
import json
import math
import random
import time

import numpy as np

from conftest import DATA, alg_for, ring_for
from phigamma import (
    ExtensionTower,
    FrobFixedSystem,
    Lattice,
    OperatorWord,
    PAdicUnitApprox,
    algebra_from_json,
    build_artin_schreier,
    build_kummer,
    dplusplus_certified_lattice,
    functor_D_rank1,
    in_dplus,
    in_dplusplus,
    make_delta,
    make_gamma,
    make_phi,
    module_from_json,
    phi_orbit_transitivity,
    rank_one_from_units,
    roundtrip_V_of_D,
    solve_fixed_points,
    solve_quotient_fixed_points,
    tensor_idempotents,
    tensor_rank_one,
    torsion_free_check,
    verify_commutation,
    verify_val_zero,
)
from phigamma import gfp
from phigamma.modules import mat_eq_window, mat_identity
from phigamma.oracles import (
    DensePolynomial,
    crt_split,
    dense_mul,
    exhaustive_fixed_points,
)
from phigamma.series import SeriesRingSpec


class budget:
    """Context manager asserting the wall-clock budget of a criterion."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"runtime budget exceeded: {elapsed:.1f}s >= {self.seconds}s"
            )


def load_doc(name):
    data = json.loads((DATA / name).read_text())
    ring = SeriesRingSpec(algebra_from_json(data["algebra"]),
                          tuple(data["precision"]))
    return ring, data


# ---------------------------------------------------------------------------


def test_criterion_01_idempotent_transitivity():
    """One Frobenius orbit on the tensor idempotents, matching the oracle."""
    with budget(10):
        for p in (2, 3, 5):
            degree_sets = list(itertools.product(range(1, 5), repeat=2))
            degree_sets += list(itertools.product(range(1, 5), repeat=3))
            for degs in degree_sets:
                alg = alg_for(p, degs)
                dec = tensor_idempotents(alg)
                orbits, transitive = phi_orbit_transitivity(dec)
                assert transitive and len(orbits) == 1, (p, degs)
                moduli = [list(s.base.modulus) for s in alg.factors]
                oracle = crt_split(p, moduli)
                assert tuple(oracle["component_degrees"]) == tuple(
                    dec.component_degrees
                ), (p, degs)
                assert len(oracle["idempotents"]) == dec.ell
                for mine, theirs in zip(dec.idempotents, oracle["idempotents"]):
                    assert np.array_equal(
                        np.asarray(mine) % p, np.asarray(theirs) % p
                    ), (p, degs)


def test_criterion_02_action_formulas():
    """phi, gamma, delta act by their defining closed formulas."""
    with budget(5):
        # phi: X_alpha -> X_alpha^p, other variables fixed
        for p in (2, 3, 5):
            ring = ring_for(p, [1, 1], prec=8)
            for a in range(2):
                phi = make_phi(ring, a)
                assert phi.apply(ring.var(a)).eq_window(ring.var(a) ** p)
                assert phi.apply(ring.var(1 - a)).eq_window(ring.var(1 - a))
        # gamma: (1+X)^c - 1 against the dense binomial expansion
        rng = random.Random(20260823)
        for p in (2, 3):
            ring = ring_for(p, [1], prec=16)
            for _ in range(50):
                c = rng.randrange(1, 512)
                while c % p == 0:
                    c = rng.randrange(1, 512)
                g = make_gamma(ring, 0, PAdicUnitApprox(p, c, 7))
                expected = ring.zero()
                for k in range(1, 17):
                    coeff = math.comb(c, k) % p
                    if coeff:
                        expected = expected + ring.monomial((k,), coeff)
                assert g.apply(ring.var(0)).eq_window(expected), (p, c)
        # delta: t_{alpha,i} -> (1+X_alpha)^{b_i} t_{alpha,i}
        ring = ring_for(3, [1], ds=[2], prec=8)
        alg = ring.coeffs
        for b in [(1, 0), (0, 2), (2, 3)]:
            d = make_delta(ring, 0, b)
            for i, bi in enumerate(b):
                t = ring.constant(alg.t(alg.tsymbols[i]))
                expected = ((ring.one() + ring.var(0)) ** bi) * t
                assert d.apply(t).eq_window(expected), (b, i)


def test_criterion_03_commutation_suite():
    """Cross-factor commutation and the same-factor semidirect identity."""
    with budget(30):
        probes = 0
        for p in (2, 3):
            ring = ring_for(p, [2, 1], ds=[1, 1], prec=6)
            c = PAdicUnitApprox(p, 1 + p, 5)
            c2 = PAdicUnitApprox(p, 1 + 2 * p, 5)
            gens = {
                "phi_a": OperatorWord([("phi", 0, 1)]),
                "phi_b": OperatorWord([("phi", 1, 1)]),
                "gamma_a": OperatorWord([("gamma", 0, c, 1)]),
                "gamma_b": OperatorWord([("gamma", 1, c2, 1)]),
                "delta_a": OperatorWord([("delta", 0, (PAdicUnitApprox(p, 1, 5),), 1)]),
                "delta_b": OperatorWord([("delta", 1, (PAdicUnitApprox(p, 1, 5),), 1)]),
            }
            names = list(gens)
            for i, n1 in enumerate(names):
                for n2 in names[i + 1:]:
                    same_factor = n1.endswith("_a") == n2.endswith("_a")
                    if same_factor and not (
                        n1.startswith("phi") or n2.startswith("phi")
                    ):
                        continue  # only the semidirect identity holds there
                    rep = verify_commutation(
                        gens[n1] * gens[n2], gens[n2] * gens[n1], ring, trials=4
                    )
                    probes += rep["probes"]
                    assert rep["equal"], (p, n1, n2, rep["failures"][:1])
            # generator images as well
            for a in range(2):
                for nm, w in gens.items():
                    e1 = (w * gens["phi_a"]).to_endo(ring)
                    e2 = (gens["phi_a"] * w).to_endo(ring)
                    if nm.endswith("_a") and nm != "phi_a":
                        continue
                    assert e1.apply(ring.var(a)).eq_window(
                        e2.apply(ring.var(a))
                    ), (p, nm, a)
            # semidirect: gamma delta gamma^-1 = delta^chi(gamma)
            gamma = gens["gamma_a"]
            delta = gens["delta_a"]
            lhs = gamma * delta * gamma.inverse()
            rhs = OperatorWord([("delta", 0, (c,), 1)])
            rep = verify_commutation(lhs, rhs, ring, trials=4)
            probes += rep["probes"]
            assert rep["equal"], (p, "semidirect", rep["failures"][:1])
        assert probes >= 100


def test_criterion_04_unit_multiplier():
    """Every group generator sends X_Delta to unit * X_Delta."""
    with budget(5):
        rng = random.Random(44)
        draws = 0
        while draws < 50:
            p = rng.choice([2, 3, 5])
            nv = rng.choice([1, 2])
            ds = [rng.choice([0, 1]) for _ in range(nv)]
            ring = ring_for(p, [1] * nv, ds=ds, prec=8)
            alpha = rng.randrange(nv)
            if rng.random() < 0.5 or ds[alpha] == 0:
                c = PAdicUnitApprox(p, rng.randrange(1, p**4) * p + 1, 5)
                g = make_gamma(ring, alpha, c)
            else:
                b = tuple(rng.randrange(0, 4) for _ in range(ds[alpha]))
                g = make_delta(ring, alpha, b)
            image = g.apply(ring.x_delta())
            u = image.monomial_shift((-1,) * nv)
            assert u.unit_verdict() == "unit", (p, nv, alpha)
            assert (u * ring.x_delta()).eq_window(image)
            draws += 1


def test_criterion_05_valuation_zero():
    """Cross-factor generator scalars of rank-1 modules have valuation 0."""
    with budget(20):
        # modules from the character functor
        for p, s in [(3, 2), (5, 2)]:
            ring = ring_for(p, [1] * s, prec=8)
            character = {"gamma_values": [
                {"alpha": ring.coeffs.labels[0], "chi_order": 2,
                 "value": p - 1}]}
            D = functor_D_rank1(ring, character)["module"]
            for alpha in range(s):
                for key in D.generator_keys():
                    if D.key_alpha(key) == alpha:
                        continue
                    rep = verify_val_zero(D, alpha, key)
                    assert rep["val_zero"] and rep["identity_holds"], (p, key)
        # random compatible rank-1 modules: each scalar depends only on its
        # own variable, so the cocycle identity is automatic and exact
        rng = random.Random(55)
        done = 0
        while done < 50:
            p = rng.choice([2, 3])
            ring = ring_for(p, [1, 1], prec=8)
            a_alpha = {}
            for a in range(2):
                u = ring.one()
                for k in range(1, 4):
                    if rng.random() < 0.5:
                        u = u + ring.monomial(
                            tuple(k if i == a else 0 for i in range(2))
                        )
                shift = rng.randrange(0, 3)
                a_alpha[a] = u * ring.monomial(
                    tuple(shift if i == a else 0 for i in range(2))
                )
            D = rank_one_from_units(ring, a_alpha)
            for alpha in range(2):
                rep = verify_val_zero(D, alpha, ("phi", 1 - alpha))
                assert rep["val"] == 0 and rep["identity_holds"], (p, done)
            done += 1


def test_criterion_06_lattice_certificate():
    """Denominator exponent, certified k, and the membership battery."""
    with budget(10):
        names = [
            "module_trivial_p2.json",
            "module_cyclotomic_p2.json",
            "module_cyclotomic_p3.json",
            "module_inverse_square_p2.json",
        ]
        for name in names:
            ring, data = load_doc(name)
            D = module_from_json(ring, data["module"])
            p = ring.coeffs.p
            M = Lattice(D, mat_identity(D.ring, D.rank))
            cert = dplusplus_certified_lattice(D, M)
            assert cert["k"] == (cert["r"] + 1) // (p - 1) + 1, name
            assert cert["contained"], name
        ring, data = load_doc("module_trivial_p2.json")
        D = module_from_json(ring, data["module"])
        M = Lattice(D, mat_identity(D.ring, D.rank))
        battery = [ring.x_delta(), ring.one(), ring.var(0), ring.x_delta(-1)]
        assert [in_dplusplus(D, M, [x]) for x in battery] == [
            "yes_certified", "no_certified", "no_certified", "no_certified",
        ]
        assert [in_dplus(D, M, [x]) for x in battery] == [
            "yes_certified", "yes_certified", "yes_certified", "no_certified",
        ]


def test_criterion_07_torsion_freeness():
    """The two-premise implication for all monomials in [-3,3]^Delta."""
    with budget(5):
        ring, data = load_doc("module_trivial_p2.json")
        D = module_from_json(ring, data["module"])
        M = Lattice(D, mat_identity(D.ring, D.rank))
        for exps in itertools.product(range(-3, 4), repeat=2):
            x = [ring.monomial(exps)]
            for plusplus in (False, True):
                rep = torsion_free_check(D, M, x, 2, 2, 0, plusplus=plusplus)
                assert rep["holds"], (exps, plusplus)


def test_criterion_08_simultaneous_fixed_points():
    """Simultaneous Frobenius invariants are exactly the prime field."""
    with budget(60):
        for p in (2, 3):
            for nv in (2, 3):
                for kind in ("prime", "quadratic", "rational_t"):
                    degs = [1] * nv if kind != "quadratic" else [2] * nv
                    ds = [1] * nv if kind == "rational_t" else [0] * nv
                    sub = 4
                    window = max(8, p * sub)
                    ring = ring_for(p, degs, ds=ds, prec=window + 2)
                    for w in (window, window + 2):
                        rep = solve_fixed_points(FrobFixedSystem(
                            ring, window=w, subwindow=sub,
                            t_cap=4 if kind == "rational_t" else 0,
                        ))
                        assert rep["dimension"] == 1, (p, nv, kind, w)
                        basis = rep["basis"][0]
                        assert basis.eq_window(
                            basis.ring.one().scale(basis.support[(0,) * nv])
                        ), (p, nv, kind)
                        assert all(
                            c["fixed_under_all_operators"] for c in rep["checks"]
                        )


def test_criterion_09_quotient_dimensions():
    """Quotient fixed points have dimension r * [k_alpha : F_p]."""
    with budget(30):
        for degs, n in [([1, 1], 1), ([2, 2], 2)]:
            ring = ring_for(2, degs, prec=8)
            for r in (1, 2, 3):
                rep = solve_quotient_fixed_points(ring, 0, r, t_cap=0)
                assert rep["dimension"] == r * n, (degs, r)
                assert all(
                    c["fixed_under_all_operators"] for c in rep["checks"]
                )


def test_criterion_10_galois_invariants():
    """Galois invariants of the shipped extensions equal the base ring."""
    with budget(30):
        # Artin-Schreier at p in {2, 3}
        for p in (2, 3):
            ring = ring_for(p, [1], prec=8)
            for a in [ring.var(0), ring.monomial((-1,))]:
                ext = build_artin_schreier(ring, a, alpha=0)
                assert ext.relation_check()
                rep = ExtensionTower(ring, [ext]).galois_invariants_report()
                assert rep["invariants_equal_base"], (p, "AS")
        # Kummer at p in {3, 5}
        for p, es in [(3, [2]), (5, [2, 4])]:
            ring = ring_for(p, [1], prec=10)
            for e in es:
                for a in [ring.var(0), ring.one() + ring.var(0)]:
                    ext = build_kummer(ring, a, e, alpha=0)
                    assert ext.relation_check()
                    rep = ExtensionTower(ring, [ext]).galois_invariants_report()
                    assert rep["invariants_equal_base"], (p, e)


def test_criterion_11_character_roundtrip():
    """V(D(eta)) recovers eta for the whole configured character family."""
    with budget(120):
        for p in (3, 5):
            for s in (1, 2):
                ring = ring_for(p, [1] * s, prec=8 if p == 3 else 10)
                labels = ring.coeffs.labels
                values = list(range(1, p))
                for combo in itertools.product(values, repeat=s):
                    character = {"gamma_values": [
                        {"alpha": labels[i], "value": v}
                        for i, v in enumerate(combo) if v != 1
                    ]}
                    rep = roundtrip_V_of_D(ring, character)
                    assert rep["pass"], (p, combo, rep["checks"])
                    recovered = tuple(
                        rep["recovered_values"].get(labels[i], 1)
                        for i in range(s)
                    )
                    assert recovered == combo, (p, combo)
        # tensor compatibility on one product pair
        ring = ring_for(5, [1], prec=10)
        c1 = {"gamma_values": [{"alpha": "a", "value": 2}]}
        c2 = {"gamma_values": [{"alpha": "a", "value": 3}]}
        cprod = {"gamma_values": [{"alpha": "a", "value": 1}]}
        D12 = tensor_rank_one(
            functor_D_rank1(ring, c1)["module"],
            functor_D_rank1(ring, c2)["module"],
        )
        Dp = functor_D_rank1(ring, cprod)["module"]
        for key in Dp.generator_keys():
            assert mat_eq_window(D12.matrix(key), Dp.matrix(key))


def test_criterion_12_oracle_agreement():
    """Optimized and naive paths agree on 1000 randomized draws per pair."""
    with budget(60):
        rng = random.Random(0xACCE)
        # sparse vs dense multiplication
        for _ in range(1000):
            p = rng.choice([2, 3])
            ring = ring_for(p, [1, 1], prec=4)
            shape = (4, 4)
            terms = []
            for _ in range(2):
                terms.append({
                    (rng.randrange(2), rng.randrange(2)): rng.randrange(1, p)
                    for _ in range(3)
                })
            da, db = (DensePolynomial.from_terms(p, shape, t) for t in terms)
            sa, sb = (
                sum((ring.monomial(e, c) for e, c in t.items()), ring.zero())
                for t in terms
            )
            sparse = {
                e: int(c.constant_fd()[0]) for e, c in (sa * sb).support.items()
            }
            assert dense_mul(da, db).terms() == {
                e: v for e, v in sparse.items() if v
            }
        # nullspace vs exhaustive fixed-point enumeration
        for _ in range(1000):
            p = rng.choice([2, 3])
            n = rng.randrange(1, 5)
            M = np.array(
                [[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                dtype=np.int64,
            )
            dim = len(gfp.nullspace(
                (M - np.eye(n, dtype=np.int64)) % p, p
            ))
            fixed = exhaustive_fixed_points(p, n, [lambda v: (M @ v) % p])
            assert len(fixed) == p**dim
        # idempotent splitting vs the CRT oracle
        for _ in range(1000):
            p = rng.choice([2, 3, 5])
            degs = [rng.randrange(1, 4) for _ in range(rng.choice([1, 2]))]
            alg = alg_for(p, degs)
            dec = tensor_idempotents(alg)
            oracle = crt_split(p, [list(s.base.modulus) for s in alg.factors])
            assert tuple(oracle["component_degrees"]) == tuple(
                dec.component_degrees
            )
            for mine, theirs in zip(dec.idempotents, oracle["idempotents"]):
                assert np.array_equal(
                    np.asarray(mine) % p, np.asarray(theirs) % p
                )
