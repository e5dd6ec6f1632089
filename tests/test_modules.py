import json
import random

import pytest

from conftest import DATA, ring_for
from phigamma import (
    Lattice,
    NotInvertibleError,
    PAdicUnitApprox,
    RelationError,
    algebra_from_json,
    check_etale,
    check_relations,
    dplusplus_certified_lattice,
    in_dplus,
    in_dplusplus,
    module_from_json,
    module_to_json,
    rank_one_from_units,
    torsion_free_check,
    verify_val_zero,
)
from phigamma.endos import identity_endo
from phigamma.modules import (
    PhiGammaModule,
    _delta_power_matrix,
    base_change,
    mat_apply,
    mat_det,
    mat_eq_window,
    mat_identity,
    mat_inverse,
    mat_mul,
    phi_s_denominator,
)
from phigamma.series import SeriesRingSpec, digits_for_window


def load_module(name):
    data = json.loads((DATA / name).read_text())
    ring = SeriesRingSpec(algebra_from_json(data["algebra"]),
                          tuple(data["precision"]))
    return ring, module_from_json(ring, data["module"])


@pytest.mark.parametrize(
    "name",
    [
        "module_trivial_p2.json",
        "module_cyclotomic_p2.json",
        "module_cyclotomic_p3.json",
        "module_inverse_square_p2.json",
    ],
)
def test_shipped_modules_are_etale_and_consistent(name):
    _, D = load_module(name)
    assert check_etale(D)["pass"]
    assert check_relations(D)["pass"]


def test_corrupted_module_fails_relations():
    _, D = load_module("module_corrupted_p2.json")
    assert check_etale(D)["pass"]  # still etale...
    rep = check_relations(D)
    assert not rep["pass"]  # ...but the cocycle identity breaks
    bad = [r for r in rep["checks"] if r["status"] == "fail"]
    assert bad and "first_discrepancy" in bad[0]


def test_rank_one_validation_raises():
    ring = ring_for(2, [1], prec=8)
    chi = PAdicUnitApprox(2, 3, 5)
    with pytest.raises(RelationError):
        rank_one_from_units(
            ring,
            {0: ring.var(0)},
            gamma_units=[(0, chi, ring.one() + ring.var(0))],
        )
    with pytest.raises(NotInvertibleError):
        rank_one_from_units(ring, {0: ring.zero()})


def test_base_change_preserves_relations_and_etale():
    ring, D = load_module("module_cyclotomic_p3.json")
    # conjugate by the unit 1 + X_a (a 1x1 change of basis)
    P = [[ring.one() + ring.var(0)]]
    D2 = base_change(D, P)
    assert check_etale(D2)["pass"]
    assert check_relations(D2)["pass"]
    # the conjugated module is genuinely different as matrices
    assert not mat_eq_window(D2.phi_matrices[0], D.phi_matrices[0])


def test_verify_val_zero_on_two_variable_rank_one():
    ring = ring_for(2, [1, 1], prec=8)
    # phi_a acts by X_a^(p-1) = X_a, phi_b by 1: the phi_b scalar must have
    # X_a-valuation 0, and it does
    D = rank_one_from_units(
        ring, {0: ring.var(0), 1: ring.one() + ring.var(1)}
    )
    rep = verify_val_zero(D, 0, ("phi", 1))
    assert rep["val"] == 0 and rep["val_zero"] and rep["identity_holds"]
    with pytest.raises(ValueError):
        verify_val_zero(D, 0, ("phi", 0))


def test_phi_s_denominator_values():
    ring = ring_for(2, [1], prec=8)
    for a, expected in [
        (ring.one(), 0),
        (ring.monomial((-2,)), 2),
        (ring.var(0), 0),
    ]:
        D = rank_one_from_units(ring, {0: a}) if a.unit_verdict() == "unit" \
            else None
        assert D is not None
        M = Lattice(D, mat_identity(D.ring, D.rank))
        assert phi_s_denominator(D, M) == expected


def test_dplusplus_certificate_exponent():
    ring, D = load_module("module_inverse_square_p2.json")
    M = Lattice(D, mat_identity(D.ring, D.rank))
    cert = dplusplus_certified_lattice(D, M)
    # r = 2, p = 2 so k = floor(3/1) + 1 = 4
    assert cert["r"] == 2
    assert cert["k"] == 4
    assert cert["contained"]


def test_membership_battery_trivial_module():
    ring, D = load_module("module_trivial_p2.json")
    M = Lattice(D, mat_identity(D.ring, D.rank))
    battery = [
        (ring.x_delta(), "yes_certified", "yes_certified"),
        (ring.one(), "no_certified", "yes_certified"),
        (ring.var(0), "no_certified", "yes_certified"),
        (ring.x_delta(-1), "no_certified", "no_certified"),
    ]
    for x, pp, plus in battery:
        assert in_dplusplus(D, M, [x]) == pp
        assert in_dplus(D, M, [x]) == plus


def test_membership_nontrivial_module():
    ring, D = load_module("module_cyclotomic_p2.json")
    M = Lattice(D, mat_identity(D.ring, D.rank))
    # X_Delta^k M certificate holds; X^k for large k certainly lies in it
    cert = dplusplus_certified_lattice(D, M)
    k = cert["k"]
    assert in_dplusplus(D, M, [ring.x_delta(k)]) == "yes_certified"
    assert in_dplus(D, M, [ring.one()]) == "yes_certified"


def test_torsion_free_check_trivial():
    ring, D = load_module("module_trivial_p2.json")
    M = Lattice(D, mat_identity(D.ring, D.rank))
    rng = random.Random(13)
    for _ in range(10):
        exps = tuple(rng.randrange(-2, 3) for _ in range(2))
        x = [ring.monomial(exps)]
        rep = torsion_free_check(D, M, x, 2, 2, 0)
        assert rep["holds"]


def test_lattice_rejects_bad_generators():
    ring, D = load_module("module_trivial_p2.json")
    with pytest.raises(ValueError):
        Lattice(D, [[ring.x_delta(-1)]])  # poles not allowed
    with pytest.raises(ValueError):
        Lattice(D, [[ring.var(0) + ring.var(1)]])  # not Laurent-invertible


def test_module_json_roundtrip():
    for name in ["module_cyclotomic_p3.json", "module_trivial_p2.json"]:
        ring, D = load_module(name)
        back = module_from_json(ring, module_to_json(D))
        assert back.rank == D.rank
        for key in D.generator_keys():
            assert mat_eq_window(back.matrix(key), D.matrix(key))


def test_module_with_delta_generator_roundtrip():
    ring = ring_for(2, [1], ds=[1], prec=8)
    chi = PAdicUnitApprox(2, 1, 5)
    D = rank_one_from_units(
        ring, {0: ring.one()}, delta_units=[(0, (chi,), ring.one())]
    )
    assert check_relations(D)["pass"]
    back = module_from_json(ring, module_to_json(D))
    assert back.delta_generators[0][1][0].residue == 1
    assert check_relations(back)["pass"]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("rank", [1, 2])
def test_delta_power_matrix_is_the_cocycle_product(p, rank):
    # A_{delta^c} against the c-fold product A . delta(A) . delta^2(A) ...,
    # with delta^k composed one factor at a time
    ring = ring_for(p, [1], ds=[1], prec=6)
    alg = ring.coeffs
    X, t = ring.var(0), ring.constant(alg.t(alg.tsymbols[0]))
    entries = [ring.one() + X * t, X * t, X * X + t, ring.one() + X]
    A = [entries[:1]] if rank == 1 else [entries[:2], entries[2:]]
    M = digits_for_window(p, 6) + 1
    ident = mat_identity(ring, rank)
    D = PhiGammaModule(ring, rank, {0: ident},
                       delta_generators=[(0, (PAdicUnitApprox(p, 1 + p, M),), A)])
    delta = D.endo(("delta", 0))
    expected, endo = ident, identity_endo(ring)
    for c in range(8):
        got = _delta_power_matrix(D, 0, PAdicUnitApprox(p, c, M))
        for row_g, row_e in zip(got, expected):
            for g, e in zip(row_g, row_e):
                assert g.window == e.window and g.pole_bound == e.pole_bound
                assert g.eq_window(e)
        expected = mat_mul(expected, mat_apply(endo, A))
        endo = endo.compose(delta)


def test_dplusplus_certificate_is_kept_per_module():
    ring, D = load_module("module_cyclotomic_p2.json")
    M = Lattice(D, mat_identity(ring, D.rank))
    cert = dplusplus_certified_lattice(D, M)
    assert dplusplus_certified_lattice(D, M) is cert
    in_dplus(D, M, [ring.one()])
    assert dplusplus_certified_lattice(D, M) is cert
    other = module_from_json(ring, module_to_json(D))
    assert dplusplus_certified_lattice(other, M) is not cert


# ---------------------------------------------------------------------------
# rank >= 2: cofactor determinants, adjugate inverses, checks and lattices


def square_matrices(ring):
    """Invertible 2 x 2 and 3 x 3 matrices, one with a pole, and a second
    matrix of each size for the product rule."""
    one, xa, xb = ring.one(), ring.var(0), ring.var(1)
    xa_inv = ring.monomial((-1, 0))
    rank2 = [
        [[one + xa, xb], [xa * xb, one + xb]],
        [[xa_inv, one], [xb, one + xa]],
    ]
    rank3 = [
        [[one + xa, xb, xa], [xb, one, xa * xb], [xa * xa, xb, one + xb]],
        [[xa_inv, one, ring.zero()], [xb, one + xa, one], [ring.zero(), xa, one + xb]],
    ]
    return rank2, rank3


@pytest.mark.parametrize("p", [2, 3])
def test_inverse_at_ranks_two_and_three(p):
    ring = ring_for(p, [1, 1], prec=6)
    for mats in square_matrices(ring):
        for A in mats:
            inv = mat_inverse(A)
            ident = mat_identity(ring, len(A))
            assert mat_eq_window(mat_mul(A, inv), ident)
            assert mat_eq_window(mat_mul(inv, A), ident)


@pytest.mark.parametrize("p", [2, 3])
def test_determinant_is_multiplicative_at_ranks_two_and_three(p):
    ring = ring_for(p, [1, 1], prec=6)
    for A, B in square_matrices(ring):
        assert mat_det(mat_mul(A, B)).eq_window(mat_det(A) * mat_det(B))
    # a nonunit determinant: X_a + X_b on the diagonal
    one, xa, xb = ring.one(), ring.var(0), ring.var(1)
    assert mat_det([[xa + xb, xa], [ring.zero(), one]]).unit_verdict() == "nonunit"
    with pytest.raises(NotInvertibleError):
        mat_inverse([[xa + xb, xa], [ring.zero(), one]])


def diagonal_module(ring):
    """The sum of two rank-1 modules: phi_a = diag(1 + X_a, 1) and
    phi_b = diag(1, 1 + X_b)."""
    one, zero = ring.one(), ring.zero()
    return PhiGammaModule(ring, 2, {
        0: [[one + ring.var(0), zero], [zero, one]],
        1: [[one, zero], [zero, one + ring.var(1)]],
    })


def test_rank_two_base_change_is_etale_and_consistent():
    ring = ring_for(3, [1, 1], prec=6)
    D = diagonal_module(ring)
    P = [[ring.one(), ring.var(0)], [ring.zero(), ring.one()]]
    D2 = base_change(D, P)
    assert not D2.phi_matrices[0][0][1].eq_window(ring.zero())
    rep = check_etale(D2)
    assert rep["pass"] and rep[0]["det_verdict"] == rep[1]["det_verdict"] == "unit"
    assert check_relations(D2)["pass"]
    D2.phi_matrices[0][0][1] = D2.phi_matrices[0][0][1] + ring.var(1)
    rel = check_relations(D2)
    assert not rel["pass"]
    assert "first_discrepancy" in rel["checks"][0]


def test_check_etale_reads_nonunit_and_undecided_at_rank_two():
    ring = ring_for(3, [1, 1], prec=6)
    one, zero = ring.one(), ring.zero()
    ident = [[one, zero], [zero, one]]
    D = PhiGammaModule(ring, 2, {
        0: [[ring.var(0) + ring.var(1), zero], [zero, one]],
        1: [[zero.truncated(3), zero], [zero, one]],
    })
    rep = check_etale(D)
    assert rep[0] == {"alpha": "a", "det_verdict": "nonunit", "etale": False}
    assert rep[1] == {
        "alpha": "b", "det_verdict": "undecided",
        "etale": "undecided at this precision",
    }
    assert not rep["pass"]
    D.phi_matrices = {0: ident, 1: ident}
    assert check_etale(D)["pass"]


def test_rank_two_lattice_membership():
    ring = ring_for(3, [1, 1], prec=6)
    D = diagonal_module(ring)
    one, zero, xa, xb = ring.one(), ring.zero(), ring.var(0), ring.var(1)
    # generators (1, X_a) and (0, 1): G = [[1, 0], [X_a, 1]], G^-1 = [[1, 0], [-X_a, 1]]
    M = Lattice(D, [[one, xa], [zero, one]])
    assert mat_eq_window(mat_mul(M.gmatrix, M.ginv), mat_identity(ring, 2))
    verdict, c = M.membership([one, zero])
    assert verdict == "yes"
    assert c[0].eq_window(one) and c[1].eq_window(-xa)
    assert M.membership([zero, xb])[0] == "yes"
    assert M.membership([ring.monomial((-1, 0)), zero])[0] == "no"
    assert M.membership([one, ring.monomial((-1, 0))])[0] == "no"
    Mk = M.scaled(1)
    assert Mk.membership([one, zero])[0] == "no"
    assert Mk.membership([ring.x_delta(1), ring.x_delta(1) * xa])[0] == "yes"
    with pytest.raises(ValueError):
        Lattice(D, [[xa + xb, zero], [zero, one]])
