import random

import pytest

from conftest import ring_for
from phigamma import (
    INF,
    LaurentElement,
    OperatorWord,
    PAdicUnitApprox,
    PrecisionError,
    RingEndo,
    gamma_inverse,
    identity_endo,
    make_delta,
    make_gamma,
    make_phi,
    make_phi_s,
    parse_word,
    verify_commutation,
)
from phigamma.oracles import DensePolynomial, dense_substitute


def chi(p, r, M=5):
    return PAdicUnitApprox(p, r, M)


@pytest.mark.parametrize("p,degs", [(2, [1, 1]), (3, [2, 1])])
def test_phi_action_formula(p, degs):
    ring = ring_for(p, degs, prec=8)
    phi = make_phi(ring, 0)
    assert phi.apply(ring.var(0)).eq_window(ring.var(0) ** p)
    assert phi.apply(ring.var(1)).eq_window(ring.var(1))
    g0 = ring.constant(ring.coeffs.gen(0))
    assert phi.apply(g0).eq_window(ring.constant(ring.coeffs.gen(0) ** p))


def test_gamma_action_formula():
    ring = ring_for(3, [1], prec=9)
    c = chi(3, 4)  # chi(gamma) = 1 + 3
    g = make_gamma(ring, 0, c)
    x = ring.var(0)
    one = ring.one()
    expected = (one + x) ** 4 - one
    assert g.apply(x).eq_window(expected)


def test_delta_action_formula():
    ring = ring_for(2, [1], ds=[2], prec=8)
    d = make_delta(ring, 0, (1, 0))
    alg = ring.coeffs
    t1 = ring.constant(alg.t(alg.tsymbols[0]))
    t2 = ring.constant(alg.t(alg.tsymbols[1]))
    assert d.apply(t1).eq_window((ring.one() + ring.var(0)) * t1)
    assert d.apply(t2).eq_window(t2)


@pytest.mark.parametrize("p", [2, 3])
def test_cross_factor_commutation(p):
    ring = ring_for(p, [2, 2], ds=[1, 1], prec=6)
    c = chi(p, 1 + p)
    words = {
        "phi_a": OperatorWord([("phi", 0, 1)]),
        "phi_b": OperatorWord([("phi", 1, 1)]),
        "gamma_a": OperatorWord([("gamma", 0, c, 1)]),
        "gamma_b": OperatorWord([("gamma", 1, c, 1)]),
        "delta_a": OperatorWord([("delta", 0, (chi(p, 1),), 1)]),
        "delta_b": OperatorWord([("delta", 1, (chi(p, 1),), 1)]),
    }
    names = list(words)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            if n1[-1] == n2[-1] and n1[-2:] == n2[-2:]:
                continue
            w12 = words[n1] * words[n2]
            w21 = words[n2] * words[n1]
            rep = verify_commutation(w12, w21, ring, trials=3)
            assert rep["equal"], (n1, n2, rep["failures"][:1])


def test_same_factor_semidirect_relation():
    # gamma delta gamma^-1 = delta^chi(gamma)
    p = 2
    ring = ring_for(p, [1], ds=[1], prec=8)
    c = chi(p, 3, M=4)
    gamma = OperatorWord([("gamma", 0, c, 1)])
    delta = OperatorWord([("delta", 0, (chi(p, 1, 4),), 1)])
    lhs = gamma * delta * gamma.inverse()
    rhs = OperatorWord([("delta", 0, (c,), 1)])
    rep = verify_commutation(lhs, rhs, ring, trials=5)
    assert rep["equal"], rep["failures"][:2]


def test_gamma_inverse_composes_to_identity():
    ring = ring_for(3, [1], prec=9)
    c = chi(3, 5)
    g = make_gamma(ring, 0, c)
    ginv = gamma_inverse(ring, 0, c)
    comp = g.compose(ginv)
    x = ring.var(0)
    assert comp.apply(x).eq_window(x)


def test_phi_s_is_total_frobenius():
    ring = ring_for(2, [2, 2], ds=[1, 0], prec=6)
    phis = make_phi_s(ring)
    rng = random.Random(1)
    for _ in range(5):
        exps = tuple(rng.randrange(0, 2) for _ in range(2))
        a = ring.monomial(exps, ring.coeffs.random_element(rng, tdeg=1, terms=2))
        assert phis.apply(a).eq_window(a * a)


def test_compose_matches_sequential_application():
    ring = ring_for(3, [1, 1], prec=9)
    c = chi(3, 2)
    e1 = make_phi(ring, 0)
    e2 = make_gamma(ring, 1, c)
    comp = e1.compose(e2)
    rng = random.Random(3)
    for _ in range(5):
        a = ring.monomial(
            (rng.randrange(3), rng.randrange(3)),
            ring.coeffs.random_element(rng, tdeg=0, terms=1),
        )
        assert comp.apply(a).eq_window(e1.apply(e2.apply(a)))


def test_parse_word_and_apply():
    ring = ring_for(2, [1, 1], ds=[0, 2], prec=8)
    word = parse_word("phi(a)^2 * gamma(a; 1+p) * delta(b; 0,1)", ring)
    endo = word.to_endo(ring)
    x = ring.var(0)
    # delta(b) and gamma(a) fix X_a; phi(a)^2 then gamma(a; 3): gamma acts
    # first (right-to-left), so X_a -> (1+X_a)^3 - 1 -> 4th powers
    manual = make_phi(ring, 0).compose(make_phi(ring, 0)).compose(
        make_gamma(ring, 0, chi(2, 3))
    )
    assert endo.apply(x).eq_window(manual.apply(x))
    alg = ring.coeffs
    t2 = ring.constant(alg.t(alg.tsymbols[1]))
    assert endo.apply(t2).eq_window((ring.one() + ring.var(1)) * t2)


def test_parse_word_rejects_malformed():
    ring = ring_for(2, [1], prec=4)
    for bad in ["phi(zz)", "rho(a)", "phi(a)^", "gamma(a; import os)"]:
        with pytest.raises((ValueError, KeyError)):
            parse_word(bad, ring)


def test_gamma_parameter_grammar():
    ring = ring_for(3, [1], prec=8)  # M = 2 + 2 digits: residues mod 81
    (factor,) = parse_word("gamma(a; 1+p^2)", ring).factors
    assert factor[2].residue == 10
    (factor,) = parse_word("gamma(a; (1 + 2*p)^3 - p*(p - 1))", ring).factors
    assert factor[2].residue == (7**3 - 6) % 81
    (factor,) = parse_word("delta(a; -p^3, 1)", ring).factors
    assert [b.residue for b in factor[2]] == [81 - 27, 1]
    too_long = "1+" * 50 + "p"
    for bad in ["9^9^9", "p**2", "__import__('os')", "2^p", "2^-1", "(1+p", too_long]:
        with pytest.raises(ValueError):
            parse_word(f"gamma(a; {bad})", ring)


@pytest.mark.parametrize(
    "text", ["phi(a)^2 * gamma(a; 1+p)", "gamma(a; 1+p) * phi(a)^2"]
)
def test_word_mapping_a_variable_past_the_window(text):
    # over p = 3 at precision 8 both words send X_a to a series of valuation
    # 9, which has no term on the window: the image is accepted, and the
    # result matches substitution on the dense box [0, 8]^2
    p = 3
    ring = ring_for(p, [1, 1], prec=8)
    endo = parse_word(text, ring).to_endo(ring)
    x, y = ring.var(0), ring.var(1)
    a = ring.one() + x + x * y + y**2 + x**3 * y**8
    out = endo.apply(a)
    assert out.window == (8, INF)

    def dense(el):
        return DensePolynomial.from_terms(
            p, (9, 9), {e: int(c.constant_fd()[0]) for e, c in el.support.items()}
        )

    X9 = DensePolynomial.zero(p, (9, 9))  # X_a^9 is past the box
    Y = DensePolynomial.from_terms(p, (9, 9), {(0, 1): 1})
    # (1 + X)^4 - 1 = X + X^3 + X^4 mod 3; the right factor acts first
    gamma_x = DensePolynomial.from_terms(p, (9, 9), {(1, 0): 1, (3, 0): 1, (4, 0): 1})
    if text.startswith("phi"):
        image = dense_substitute(gamma_x, [X9, Y])
    else:
        image = dense_substitute(X9, [gamma_x, Y])
    assert dense(out) == dense_substitute(dense(a), [image, Y])
    assert set(out.support) == {(0, 0), (0, 2)}


def test_ring_endo_refuses_images_of_valuation_zero():
    ring = ring_for(2, [1], prec=8)
    with pytest.raises(ValueError, match="valuation >= 1"):
        RingEndo(ring, [ring.one() + ring.var(0)], (0,))
    # no term on a window finite in X_b too: a term such as X_b^9 may lie
    # past it with X_a-exponent 0, so the valuation is not certified
    ring = ring_for(2, [1, 1], prec=8)
    hidden = LaurentElement(ring, {}, 0, (8, 8))
    with pytest.raises(PrecisionError):
        RingEndo(ring, [hidden, ring.var(1)], (0, 0))
    past = LaurentElement(ring, {}, 0, (8, INF))
    RingEndo(ring, [past, ring.var(1)], (0, 0))


def test_identity_endo_is_neutral():
    ring = ring_for(2, [2], ds=[1], prec=6)
    ident = identity_endo(ring)
    phi = make_phi(ring, 0)
    rng = random.Random(7)
    a = ring.monomial((1,), ring.coeffs.random_element(rng))
    assert ident.compose(phi).apply(a).eq_window(phi.apply(a))
    assert phi.compose(ident).apply(a).eq_window(phi.apply(a))
