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
from phigamma.modules import base_change, mat_eq_window, mat_identity, phi_s_denominator
from phigamma.series import SeriesRingSpec


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
