import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA, ring_for
from phigamma import (
    BudgetExceededError,
    ExtensionTower,
    FiniteExtension,
    FrobFixedSystem,
    SubwindowError,
    algebra_from_json,
    build_artin_schreier,
    build_kummer,
    functor_D_rank1,
    make_phi,
    parse_character,
    rank_one_from_units,
    roundtrip_V_of_D,
    solve_fixed_points,
    solve_quotient_fixed_points,
    tensor_rank_one,
)
from phigamma.descent import _eth_root
from phigamma.series import LaurentElement, SeriesRingSpec


# ---------------------------------------------------------------------------
# solver vs exhaustive enumeration


def all_box_elements(ring, box):
    """Every exact element with monomial support in the closed box [0, box]^n
    and constant coefficients enumerated over the full finite algebra."""
    alg = ring.coeffs
    monos = list(itertools.product(*(range(b + 1) for b in box)))
    coeff_choices = [
        alg.from_fdelta(list(vec))
        for vec in itertools.product(range(alg.p), repeat=alg.N)
    ]
    for combo in itertools.product(coeff_choices, repeat=len(monos)):
        el = ring.zero()
        for mono, c in zip(monos, combo):
            if not c.is_zero():
                el = el + ring.monomial(mono, c)
        yield el


def brute_fixed_count(ring, box, operators):
    endos = [make_phi(ring, a) for a in operators]
    count = 0
    for el in all_box_elements(ring, box):
        if all(e.apply(el) == el for e in endos):
            count += 1
    return count


def test_solver_matches_enumeration_single_variable():
    ring = ring_for(2, [2], prec=4)
    sys = FrobFixedSystem(ring, operators=(0,), window=4, subwindow=2, t_cap=0)
    rep = solve_fixed_points(sys)
    assert not rep["unconfirmed"]
    assert all(c["fixed_under_all_operators"] for c in rep["checks"])
    count = brute_fixed_count(ring, (2,), (0,))
    assert count == 2 ** rep["dimension"]


def test_solver_matches_enumeration_two_variables():
    ring = ring_for(2, [1, 1], prec=4)
    sys = FrobFixedSystem(ring, window=4, subwindow=2, t_cap=0)
    rep = solve_fixed_points(sys)
    assert not rep["unconfirmed"]
    count = brute_fixed_count(ring, (2, 2), (0, 1))
    assert count == 2 ** rep["dimension"]


def test_solver_partial_operator_set_brackets_enumeration():
    # with only phi_a, anything constant in X_a but free in X_b is fixed;
    # the X_b-boundary slots are reported as unconfirmed, so the certified
    # dimension brackets the exhaustive count
    ring = ring_for(2, [1, 1], prec=4)
    sys = FrobFixedSystem(ring, operators=(0,), window=4, subwindow=2, t_cap=0)
    rep = solve_fixed_points(sys)
    count = brute_fixed_count(ring, (2, 2), (0,))
    lo = rep["dimension"]
    hi = lo + len(rep["unconfirmed"])
    assert 2**lo <= count <= 2**hi
    assert count == 2**3  # constants in X_a times {1, X_b, X_b^2}


@pytest.mark.parametrize("p,degs,shift,c,dim", [
    (2, [1, 1], (-1, 0), 1, 1),  # phi_a: x -> 2x - 1 fixes the slot X_a
    (3, [1], (-2,), 1, 1),  # x -> 3x - 2 fixes the slot X_a
    (3, [1], (-2,), 2, 0),  # X_a is fixed, but 2v = v has no solution v != 0
    (3, [1], (-1,), 1, 0),  # x -> 3x - 1 fixes no slot
])
def test_solver_matches_enumeration_on_shifting_modules(p, degs, shift, c, dim):
    # rank 1, phi_a acting by c X_a^shift and every other phi_b by 1
    ring = ring_for(p, degs, prec=8)
    scalars = {a: ring.one() for a in range(ring.nvars)}
    scalars[0] = ring.monomial(shift, c)
    D = rank_one_from_units(ring, scalars)
    rep = solve_fixed_points(FrobFixedSystem(D, window=8, subwindow=2, t_cap=0))
    assert rep["dimension"] == dim and not rep["unconfirmed"]
    assert all(chk["fixed_under_all_operators"] for chk in rep["checks"])
    count = sum(
        all(D.act(("phi", a), [el]) == [el] for a in range(ring.nvars))
        for el in all_box_elements(ring, (2,) * ring.nvars)
    )
    assert count == p**dim


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_solver_brackets_box_enumeration(data):
    # the ring or a rank-1 module with phi_alpha = c X_alpha^s, c a unit of
    # F_p or the generator of factor alpha's finite field, optionally
    # modulo X_a^r, under a random set of operators: the elements of the
    # box that they all fix, counted one by one, lie between p^dimension
    # and p^(dimension + unconfirmed)
    p, degs = data.draw(st.sampled_from([(2, [1, 1]), (3, [1, 1]), (2, [2, 1])]))
    ring = ring_for(p, degs, prec=p + 1)
    quotient = data.draw(st.sampled_from([None, (0, 1), (0, 2)]))
    D = None
    if data.draw(st.booleans()):
        # the other phi fixes c X_alpha^s, so the phi relations hold
        alpha, s = data.draw(st.integers(0, 1)), data.draw(st.integers(-1, 1))
        units = [ring.coeffs.from_int(c) for c in range(1, p)]
        if degs[alpha] > 1:
            units.append(ring.coeffs.gen(alpha))
        scalars = {a: ring.one() for a in range(2)}
        scalars[alpha] = ring.monomial(
            tuple(s if v == alpha else 0 for v in range(2)),
            data.draw(st.sampled_from(units)))
        D = rank_one_from_units(ring, scalars)
    allowed = [v for v in range(2) if not (quotient and v == quotient[0])]
    operators = tuple(data.draw(st.lists(st.sampled_from(allowed), unique=True)))
    # W' = 1 and W = p + 1 leave room for a shift of +1
    rep = solve_fixed_points(FrobFixedSystem(
        D or ring, operators, p + 1, 1, 0, quotient))
    assert all(chk["fixed_under_all_operators"] for chk in rep["checks"])

    def clip(x):
        if quotient is None:
            return x
        qa, r = quotient
        return sum((ring.monomial(e, c) for e, c in x.support.items() if e[qa] < r),
                   ring.zero())

    def phi(a, el):
        return D.act(("phi", a), [el])[0] if D else make_phi(ring, a).apply(el)

    box = tuple(quotient[1] - 1 if quotient and v == quotient[0] else 1
                for v in range(2))
    count = sum(
        all(clip(phi(a, el)) == clip(el) for a in operators)
        for el in all_box_elements(ring, box)
    )
    lo = rep["dimension"]
    hi = lo + len(rep["unconfirmed"])
    assert p**lo <= count <= p**hi


def box_fixed_count(tower, D, box, operators):
    """How many elements of the box (tower powers, X-exponents in [0, box]
    and every finite-part vector, in the one coordinate of the rank-1 D)
    every real phi_alpha fixes: the tower's phi_alpha, then D's phi scalar.
    phi_alpha - 1 is read off the box's basis as a matrix over the slots of
    its images, and every vector of the box is tried at once."""
    ring = tower.ring
    alg = ring.coeffs
    p = alg.p
    basis = [
        (tpow, xexp, k)
        for tpow in itertools.product(*(range(d) for d in tower.degrees))
        for xexp in itertools.product(*(range(b + 1) for b in box))
        for k in range(alg.N)
    ]
    vecs = np.indices((p,) * len(basis), dtype=np.int32).reshape(len(basis), -1)
    fixed = np.ones(vecs.shape[1], dtype=bool)
    for alpha in operators:
        diff = {}  # (tower powers, X-exponents, t-exponents) -> block
        for col, (tpow, xexp, k) in enumerate(basis):
            unit = alg.from_fdelta([int(i == k) for i in range(alg.N)])
            el = {tpow: ring.monomial(xexp, unit)}
            img = tower.scale(tower.apply_phi(alpha, el), D.phi_matrices[alpha][0][0])
            for t, x in tower.add(img, {tpow: -ring.monomial(xexp, unit)}).items():
                for e, c in x.support.items():
                    assert not c.den
                    for m, v in c.num.items():
                        block = diff.setdefault(
                            (t, e, m), np.zeros((alg.N, len(basis)), dtype=np.int32))
                        block[:, col] = v
        for block in diff.values():
            fixed &= ~(block @ vecs % p).any(axis=0)
    return int(fixed.sum())


@pytest.mark.parametrize("p,degs,e,sub", [
    (5, [2], 2, (0,)), (5, [2], 4, (0,)), (3, [2, 1], 2, (1, 0)),
])
@pytest.mark.parametrize("scalar", ["1", "X_a^-k", "a^-k"])
def test_solver_reads_non_monic_kummer_continuations(p, degs, e, sub, scalar):
    # a = g X_a with g the generator of the finite part: phi_a(y) = a^k y
    # with k = (p-1)/e, so on the class y^1 the coefficient map is a
    # product by g^k after the Frobenius.  A phi_a scalar X_a^-k makes the
    # slot y X_a^0 fixed on exponents, where g^k v^p = v decides; a^-k
    # cancels g^k as well, and v^p = v decides
    ring = ring_for(p, degs, prec=2 * p)
    a = ring.constant(ring.coeffs.gen(0)) * ring.var(0)
    tower = ExtensionTower(ring, [build_kummer(ring, a, e, alpha=0)])
    k = (p - 1) // e
    scalars = {v: ring.one() for v in range(ring.nvars)}
    scalars[0] = {"1": ring.one(), "X_a^-k": ring.var(0) ** -k, "a^-k": a**-k}[scalar]
    D = rank_one_from_units(ring, scalars)
    rep = solve_fixed_points(FrobFixedSystem((tower, D), subwindow=sub, t_cap=0))
    assert all(chk["fixed_under_all_operators"] for chk in rep["checks"])
    count = box_fixed_count(tower, D, sub, range(ring.nvars))
    lo = rep["dimension"]
    assert p**lo <= count <= p ** (lo + len(rep["unconfirmed"]))


def test_solver_refuses_a_continuation_of_several_slots():
    # y^2 = 1 + X_b in direction a: phi_b(y) = y (1 + 2 X_b + X_b^2), not
    # one slot, and the solver must not take it for y
    ring = ring_for(5, [1, 1], prec=6)
    tower = ExtensionTower(
        ring, [build_kummer(ring, ring.one() + ring.var(1), 2, alpha=0)])
    D = rank_one_from_units(ring, {v: ring.one() for v in range(2)})
    with pytest.raises(NotImplementedError, match="one slot"):
        solve_fixed_points(
            FrobFixedSystem((tower, D), operators=(1,), subwindow=(1, 1)))


def test_solver_refuses_a_layer_without_continuation():
    ring = ring_for(5, [1, 1], prec=6)
    layer = build_kummer(ring, ring.var(0), 2, alpha=0)
    layer.phi_images[1] = None
    layer.phi_notes[1] = "frobenius continuation unavailable: test"
    D = rank_one_from_units(ring, {v: ring.one() for v in range(2)})
    with pytest.raises(BudgetExceededError, match="unavailable: test"):
        solve_fixed_points(FrobFixedSystem(
            (ExtensionTower(ring, [layer]), D), operators=(1,), subwindow=(1, 1)))


def test_solver_takes_an_artin_schreier_layer_that_an_operator_fixes():
    # y^2 - y = 1 in direction a at p = 2: u_b = 0, so phi_b(y) = y is
    # stored as one slot, and the box X^0 has the fixed elements 1 and y
    ring = ring_for(2, [1, 1], prec=8)
    ext = build_artin_schreier(ring, ring.one(), alpha=0)
    assert ext.phi_images[1].keys() == {1}
    D = rank_one_from_units(ring, {v: ring.one() for v in range(2)})
    rep = solve_fixed_points(FrobFixedSystem(
        (ExtensionTower(ring, [ext]), D), operators=(1,), subwindow=(0, 0)))
    assert rep["dimension"] == 2 and not rep["unconfirmed"]
    assert all(chk["fixed_under_all_operators"] for chk in rep["checks"])

def test_solver_refuses_negative_and_oversized_boxes():
    ring = ring_for(2, [1, 1], ds=[1, 1], prec=8)
    for kwargs in ({"t_cap": -1}, {"window": -1}, {"subwindow": (2, -1)},
                   {"window": 8.0}, {"subwindow": True}, {"window": (8,)}):
        with pytest.raises(ValueError):
            FrobFixedSystem(ring, **kwargs)
    with pytest.raises(ValueError, match="slots"):
        solve_fixed_points(FrobFixedSystem(ring, window=600, subwindow=300))


def test_empty_operator_set_gives_full_subwindow():
    ring = ring_for(2, [1], prec=4)
    sys = FrobFixedSystem(ring, operators=(), window=4, subwindow=2, t_cap=0)
    rep = solve_fixed_points(sys)
    # slots X^0, X^1 confirmed; the boundary slot X^2 is unconfirmed
    assert rep["dimension"] == 2
    assert len(rep["unconfirmed"]) == 1


def test_subwindow_validation():
    ring = ring_for(2, [1], prec=4)
    with pytest.raises(SubwindowError):
        FrobFixedSystem(ring, operators=(0,), window=4, subwindow=3)


@pytest.mark.parametrize("degs,n", [([1, 1], 1), ([2, 2], 2)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_quotient_dimensions(degs, n, r):
    ring = ring_for(2, degs, prec=8)
    rep = solve_quotient_fixed_points(ring, 0, r, t_cap=0)
    assert rep["dimension"] == r * n
    assert all(c["fixed_under_all_operators"] for c in rep["checks"])


def test_quotient_matches_enumeration():
    # brute force in the quotient k[X_a]/(X_a^2) tensor F_2[[X_b]] box
    ring = ring_for(2, [1, 1], prec=8)
    r = 2
    rep = solve_quotient_fixed_points(ring, 0, r, t_cap=0)
    count = 0
    for el in all_box_elements(ring, (r - 1, ring.precision[1] // 2)):
        img = make_phi(ring, 1).apply(el)
        def clip(x):
            return sum(
                (ring.monomial(e, c) for e, c in x.support.items() if e[0] < r),
                ring.zero(),
            )
        if clip(img) == clip(el):
            count += 1
    # every solver solution is a genuine quotient fixed point; boundary
    # freedom in X_b makes the enumeration count at least as large
    assert count >= 2 ** rep["dimension"]
    assert rep["dimension"] == r


# ---------------------------------------------------------------------------
# extension builders


@pytest.mark.parametrize("p", [2, 3])
def test_artin_schreier_continuation_satisfies_relation(p):
    ring = ring_for(p, [1, 1], prec=8)
    ext = build_artin_schreier(ring, ring.var(0), alpha=0)
    assert ext.relation_check()
    tower = ExtensionTower(ring, [ext])
    y = {(1,): ring.one()}
    for v in range(ring.nvars):
        assert ext.phi_notes[v] == "ok"
        img = tower.apply_phi(v, y)
        lhs = tower.add(tower.pow(img, p), {t: -c for t, c in img.items()})
        rhs = tower.from_base(make_phi(ring, v).apply(ring.var(0)))
        assert tower.eq_window(lhs, rhs)


# Every layer that the tests and the character towers build with all its
# continuations, and the data that the Artin-Schreier continuation used to
# miss (a = 1 at p = 2 and 3, a = 1 + X_a at p = 3, and y_a, 1 and 1 + X_b
# over GF(p^2) (x) GF(p^2)): (kind, p, degrees, precision, a, e, the
# layer's direction alpha), with a read by ``layer_datum``.
LAYERS_BUILT = [
    ("artin_schreier", 2, [1, 1], 8, "X_a", None, 0),
    ("artin_schreier", 3, [1, 1], 8, "X_a", None, 0),
    ("artin_schreier", 2, [1], 8, "X_a", None, 0),
    ("artin_schreier", 3, [1], 8, "X_a", None, 0),
    ("artin_schreier", 2, [1], 8, "X_a^-1", None, 0),
    ("artin_schreier", 3, [1], 8, "X_a^-1", None, 0),
    ("artin_schreier", 3, [1, 1], 8, "X_a^-1", None, 0),
    ("artin_schreier", 2, [1, 1], 8, "1", None, 0),
    ("artin_schreier", 3, [1, 1], 8, "1", None, 0),
    ("artin_schreier", 3, [1, 1], 8, "1+X_a", None, 0),
    ("artin_schreier", 2, [2, 2], 8, "y_a", None, 0),
    ("artin_schreier", 2, [2, 2], 8, "1", None, 0),
    ("artin_schreier", 3, [2, 2], 8, "1+X_b", None, 0),
    ("kummer", 3, [1], 10, "1+X_a", 2, 0),
    ("kummer", 3, [1], 10, "X_a", 2, 0),
    ("kummer", 5, [1], 10, "X_a", 4, 0),
    ("kummer", 5, [1], 10, "X_a", 2, 0),
    ("kummer", 5, [1], 10, "1+X_a", 2, 0),
    ("kummer", 5, [1], 10, "1+X_a", 4, 0),
    ("kummer", 3, [1], 9, "X_a", 2, 0),
    ("kummer", 5, [1, 1], 6, "1+X_b", 2, 0),
    ("kummer", 5, [2, 2], 6, "1+X_b", 2, 0),
    ("kummer", 5, [2, 2], 10, "X_a", 4, 0),
    ("kummer", 7, [2, 2], 14, "X_a", 3, 0),
    ("kummer", 5, [2, 2], 6, "1+X_b", 4, 0),
    ("kummer", 5, [1, 1], 8, "X_b", 2, 0),
    ("kummer", 3, [1, 1], 9, "X_a", 2, 0),
    ("kummer", 3, [1, 1], 8, "X_a", 2, 0),
    ("kummer", 3, [1, 1], 8, "X_b", 2, 1),
    ("kummer", 5, [3, 3], 6, "1+X_b", 2, 0),
    ("kummer", 5, [1, 1], 10, "X_b", 4, 1),
    ("kummer", 5, [1, 1], 10, "X_a", 2, 0),
    ("artin_schreier", 3, [1, 1], 8, "1+X_b", None, 1),
    ("artin_schreier", 2, [2, 2], 8, "1", None, 1),
    # a = g_b X_a, g_b generating factor b: the roots w_v alone gave
    # zeta * y^p with zeta^e = 1, zeta = -1 at p = 5, e = 2, and the
    # non-scalar zeta = e1 + e2 + 4 e3 at p = 5, e = 4, degrees (2, 2)
    ("kummer", 5, [1, 2], 8, "y_b*X_a", 2, 0),
    ("kummer", 5, [1, 2], 8, "y_b*X_a", 4, 0),
    ("kummer", 7, [1, 2], 8, "y_b*X_a", 3, 0),
    ("kummer", 7, [1, 2], 8, "y_b*X_a", 6, 0),
    ("kummer", 3, [1, 2], 8, "y_b*X_a", 2, 0),
    ("kummer", 5, [2, 2], 8, "y_b*X_a", 4, 0),
]


def layer_datum(ring, text):
    if text == "y_b*X_a":  # read only on rings with a factor b
        return ring.constant(ring.coeffs.gen(1)) * ring.var(0)
    return {
        "1": ring.one(), "X_a": ring.var(0), "X_b": ring.var(1),
        "X_a^-1": ring.monomial((-1,) + (0,) * (ring.nvars - 1)),
        "1+X_a": ring.one() + ring.var(0),
        "1+X_b": ring.one() + ring.var(ring.nvars - 1),
        "y_a": ring.constant(ring.coeffs.gen(0)),
    }[text]


@pytest.mark.parametrize("kind,p,degs,prec,a,e,alpha", LAYERS_BUILT)
def test_composite_of_the_frobenii_is_the_pth_power(kind, p, degs, prec, a, e, alpha):
    # phi_s = the product of the phi_v, in every order, sends y to y^p:
    # y + a on an Artin-Schreier layer, a^(p div e) y^(p mod e) on a Kummer one
    ring = ring_for(p, degs, prec=prec)
    datum = layer_datum(ring, a)
    if kind == "artin_schreier":
        ext = build_artin_schreier(ring, datum, alpha=alpha)
    else:
        ext = build_kummer(ring, datum, e, alpha=alpha)
    assert set(ext.phi_notes.values()) == {"ok"}
    tower = ExtensionTower(ring, [ext])
    y = {(1,): ring.one()}
    for order in itertools.permutations(range(ring.nvars)):
        image = y
        for v in order:
            image = tower.apply_phi(v, image)
        assert tower.eq_window(image, tower.pow(y, p)), order


def test_artin_schreier_with_pole():
    ring = ring_for(2, [1], prec=8)
    a = ring.monomial((-1,))
    ext = build_artin_schreier(ring, a, alpha=0)
    assert ext.phi_notes[0] == "ok"
    tower = ExtensionTower(ring, [ext])
    y = {(1,): ring.one()}
    img = tower.apply_phi(0, y)
    lhs = tower.add(tower.pow(img, 2), {t: -c for t, c in img.items()})
    rhs = tower.from_base(make_phi(ring, 0).apply(a))
    assert tower.eq_window(lhs, rhs)


@pytest.mark.parametrize("p,e,mk", [
    (3, 2, lambda r: r.one() + r.var(0)),
    (3, 2, lambda r: r.var(0)),
    (5, 4, lambda r: r.var(0)),
])
def test_kummer_continuation_satisfies_relation(p, e, mk):
    ring = ring_for(p, [1], prec=10)
    a = mk(ring)
    ext = build_kummer(ring, a, e, alpha=0)
    assert ext.relation_check()
    tower = ExtensionTower(ring, [ext])
    y = {(1,): ring.one()}
    img = tower.apply_phi(0, y)
    # phi(y)^e = phi(a)
    assert tower.eq_window(
        tower.pow(img, e), tower.from_base(make_phi(ring, 0).apply(a))
    )


@pytest.mark.parametrize("degs", [(1, 1), (2, 2), (3, 3)])
def test_kummer_root_enumeration_cap_is_not_a_verdict(degs):
    # a = 1 + X_b: every phi_v(a)/a^k has constant term 1, whose root is 1
    # with no search, so even the p^N = 5^9 candidates at degrees (3, 3)
    # are never enumerated
    ring = ring_for(5, list(degs), prec=6)
    ext = build_kummer(ring, ring.one() + ring.var(1), 2, alpha=0)
    assert all(note == "ok" for note in ext.phi_notes.values())
    if degs == (3, 3):
        # a = y_b + X_b: the constant terms y_b^(1-p) and y_b^(p-1) need
        # the search, and past the cap that must read as a cap
        a = ring.constant(ring.coeffs.gen(1)) + ring.var(1)
        for note in build_kummer(ring, a, 2, alpha=0).phi_notes.values():
            assert note.startswith("frobenius continuation unavailable: enumeration cap")


@pytest.mark.parametrize("p,e", [(5, 4), (7, 3)])
def test_kummer_frobenii_are_pth_powers_and_commute(p, e):
    # phi_a(X_a)/X_a^p = 1, so phi_a(y) = y^p with no root of unity chosen;
    # a non-scalar root of 1 in the finite part would break phi_a phi_b =
    # phi_b phi_a on y
    ring = ring_for(p, [2, 2], prec=2 * p)
    tower = ExtensionTower(ring, [build_kummer(ring, ring.var(0), e)])
    y = {(1,): ring.one()}
    phi_a_y = tower.apply_phi(0, y)
    assert tower.eq_window(phi_a_y, tower.pow(y, p))
    assert tower.eq_window(tower.apply_phi(0, tower.apply_phi(1, y)),
                           tower.apply_phi(1, phi_a_y))


def test_kummer_root_of_a_principal_unit_has_constant_term_one():
    # a = 1 + X_b at p = 5, degrees (2, 2), e = 4: phi_v(a)/a^k has
    # constant term 1, and so has its root, not another 4th root of 1 in
    # the finite part
    ring = ring_for(5, [2, 2], prec=6)
    a = ring.one() + ring.var(1)
    tower = ExtensionTower(ring, [build_kummer(ring, a, 4)])
    y = {(1,): ring.one()}
    for v in range(2):
        img = tower.apply_phi(v, y)
        assert img[(1,)].support[(0, 0)].constant_fd().tolist() == [1, 0, 0, 0]
        assert tower.eq_window(tower.pow(img, 4),
                               tower.from_base(make_phi(ring, v).apply(a)))
    assert tower.eq_window(tower.apply_phi(0, tower.apply_phi(1, y)),
                           tower.apply_phi(1, tower.apply_phi(0, y)))


def test_kummer_principal_root_is_one_power(monkeypatch):
    # q = phi_b(1 + X_b)/(1 + X_b), e = 4, at p = 5, degrees (2, 2): the
    # root of 1 + h is (1 + h)^n with 4n = 1 mod 25 by square-and-multiply,
    # then w^4 is checked; the binomial series took 22 products
    ring = ring_for(5, [2, 2], prec=8)
    a = ring.one() + ring.var(1)
    q = make_phi(ring, 1).apply(a) * a.invert()
    calls = []
    times = LaurentElement._times
    monkeypatch.setattr(
        LaurentElement, "_times", lambda x, y: calls.append(1) or times(x, y)
    )
    w, note = _eth_root(ring, q, 4)
    monkeypatch.undo()
    assert note is None and len(calls) <= 12
    assert (w**4).eq_window(q)
    assert w.support[(0, 0)].constant_fd().tolist() == [1, 0, 0, 0]

def test_kummer_root_of_a_monomial_quotient():
    # a = X_b at p = 5, degrees (1, 1), e = 2: phi_b(a)/a = X_b^4 and
    # phi_a(a)/a^5 = X_b^-4 have no constant term; their least monomials
    # come out as X_b^2 and X_b^-2
    p, e = 5, 2
    ring = ring_for(p, [1, 1], prec=8)
    a = ring.var(1)
    ext = build_kummer(ring, a, e, alpha=0)
    assert ext.phi_notes == {0: "ok", 1: "ok"}
    tower = ExtensionTower(ring, [ext])
    y = {(1,): ring.one()}
    for v, k in ((0, p), (1, 1)):
        # phi_v(y) = y^k w with w^e = phi_v(a) a^-k
        ((j, c),) = ext.power(k).items()
        assert ext.phi_images[v].keys() == {j}
        w = ext.phi_images[v][j] * c.invert()
        assert (w**e).eq_window(make_phi(ring, v).apply(a) * a.invert() ** k)
        assert tower.eq_window(tower.pow(tower.apply_phi(v, y), e),
                               tower.from_base(make_phi(ring, v).apply(a)))
    assert tower.eq_window(tower.apply_phi(0, tower.apply_phi(1, y)),
                           tower.apply_phi(1, tower.apply_phi(0, y)))


def stepped_powers(ext, k):
    """y^k by stepping y^n -> y^(n+1) from y^1, reducing by y^e = a or
    y^p = y + a: the reference for ``FiniteExtension.power``."""
    base = ext.base
    powers = [{0: base.one()}, {1: base.one()}]
    for n in range(2, k + 1):
        if ext.kind == "kummer":
            q, rem = divmod(n, ext.degree)
            powers.append({rem: ext.a**q})
            continue
        nxt = {}
        for j, c in powers[n - 1].items():
            if j + 1 < ext.degree:
                nxt[j + 1] = nxt.get(j + 1, base.zero()) + c
            else:
                nxt[1] = nxt.get(1, base.zero()) + c
                nxt[0] = nxt.get(0, base.zero()) + c * ext.a
        powers.append(nxt)
    return powers[k]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_powers_match_stepping(p):
    ring = ring_for(p, [1, 1], prec=8)
    a = ring.one() + ring.var(0) + ring.monomial((-1, 2))
    layers = [FiniteExtension(ring, "artin_schreier", 0, p, a)]
    layers += [FiniteExtension(ring, "kummer", 0, e, a)
               for e in range(1, p) if (p - 1) % e == 0]
    for ext in layers:
        for k in sorted(set(range(2 * ext.degree - 1)) | {p}):
            got, want = ext.power(k), stepped_powers(ext, k)
            assert sorted(got) == sorted(want), (ext.kind, ext.degree, k)
            for j in want:
                assert got[j].eq_window(want[j]), (ext.kind, ext.degree, k, j)
                assert got[j].window == want[j].window
                assert got[j].pole_bound == want[j].pole_bound
    with pytest.raises(ValueError):
        layers[0].power(2 * p - 1)


def test_kummer_cross_variable_continuation():
    ring = ring_for(3, [1, 1], prec=9)
    ext = build_kummer(ring, ring.var(0), 2, alpha=0)
    tower = ExtensionTower(ring, [ext])
    y = {(1,): ring.one()}
    # phi_b fixes X_a so it must fix y as well
    assert ext.phi_notes[1] == "ok"
    assert tower.eq_window(tower.apply_phi(1, y), y)


def test_tower_galois_invariants():
    ring = ring_for(3, [1], prec=9)
    ext = build_kummer(ring, ring.var(0), 2, alpha=0)
    tower = ExtensionTower(ring, [ext])
    rep = tower.galois_invariants_report()
    assert rep["invariants_equal_base"]
    # direct check: constants are invariant, y is negated
    c = tower.from_base(ring.one() + ring.var(0))
    assert tower.eq_window(tower.apply_galois(0, c), c)
    y = {(1,): ring.one()}
    gy = tower.apply_galois(0, y)
    assert tower.eq_window(gy, {(1,): ring.constant(2)})


def test_tower_arithmetic_respects_relation():
    ring = ring_for(2, [1], prec=8)
    ext = build_artin_schreier(ring, ring.var(0), alpha=0)
    tower = ExtensionTower(ring, [ext])
    y = {(1,): ring.one()}
    # y^2 = y + X  (characteristic 2)
    ysq = tower.mul(y, y)
    expect = tower.add(y, tower.from_base(ring.var(0)))
    assert tower.eq_window(ysq, expect)


# ---------------------------------------------------------------------------
# characters and roundtrips


def load_character(name):
    data = json.loads((DATA / name).read_text())
    ring = SeriesRingSpec(algebra_from_json(data["algebra"]),
                          tuple(data["precision"]))
    return ring, data["character"]


def test_parse_character_validation():
    ring = ring_for(3, [1], prec=9)
    with pytest.raises(ValueError):
        parse_character(ring, {"gamma_values": [
            {"alpha": "a", "chi_order": 2, "value": 0}]})
    with pytest.raises(ValueError):
        parse_character(ring, {"gamma_values": [
            {"alpha": "a", "chi_order": 3, "value": 2}]})
    with pytest.raises(BudgetExceededError):
        parse_character(ring, {"delta_values": [
            {"alpha": "a", "index": 0, "value": 2}]})


@pytest.mark.parametrize("name,values", [
    ("character_trivial_p3.json", {}),
    ("character_p3_order2.json", {"a": 2}),
    ("character_p5_order4.json", {"a": 2}),
    ("character_p3_pair.json", {"a": 2, "b": 2}),
])
def test_roundtrip_recovers_character(name, values):
    ring, character = load_character(name)
    rep = roundtrip_V_of_D(ring, character)
    assert rep["pass"], rep["checks"]
    assert rep["dimension"] == 1
    recovered = {a: v for a, v in rep["recovered_values"].items() if v != 1}
    assert recovered == values


def test_roundtrip_past_the_root_enumeration_cap():
    # 13^6 candidate roots exceed the enumeration cap, but the quotients
    # phi_v(X_a)/X_a^k are 1 and need no root search
    ring = ring_for(13, [2, 3], prec=13)
    rep = roundtrip_V_of_D(ring, {"gamma_values": [
        {"alpha": "a", "chi_order": 4, "value": 5}]})
    assert rep["pass"], rep["checks"]
    assert rep["dimension"] == 1
    assert rep["recovered_values"] == {"a": 5, "b": 1}


def test_delta_character_out_of_budget():
    ring, character = load_character("character_p3_delta_unsupported.json")
    with pytest.raises(BudgetExceededError):
        roundtrip_V_of_D(ring, character)


def test_tensor_of_rank_one_functors():
    ring = ring_for(5, [1], prec=10)
    c1 = {"gamma_values": [{"alpha": "a", "chi_order": 4, "value": 2}]}
    c2 = {"gamma_values": [{"alpha": "a", "chi_order": 4, "value": 3}]}
    cprod = {"gamma_values": [{"alpha": "a", "chi_order": 4, "value": 6 % 5}]}
    D1 = functor_D_rank1(ring, c1)["module"]
    D2 = functor_D_rank1(ring, c2)["module"]
    D12 = tensor_rank_one(D1, D2)
    Dp = functor_D_rank1(ring, cprod)["module"]
    from phigamma.modules import mat_eq_window
    for key in Dp.generator_keys():
        assert mat_eq_window(D12.matrix(key), Dp.matrix(key))
