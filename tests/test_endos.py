import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ring_for
from phigamma import (
    INF,
    CoeffElement,
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
from phigamma.endos import _factor_endo
from phigamma.oracles import DensePolynomial, dense_substitute
from phigamma.series import laurent_to_json


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


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("k", range(8))
def test_phi_power_word_is_the_k_fold_composite(p, k):
    # phi(a)^k is taken by square-and-multiply; it must agree with the left
    # fold ((1 o phi) o phi) o ... on windows, pole bounds, pole sets and values
    ring = ring_for(p, [1, 1], ds=[1, 0], prec=8)
    alg = ring.coeffs
    phi = make_phi(ring, 0)
    folded = identity_endo(ring)
    for _ in range(k):
        folded = folded.compose(phi)
    word = parse_word(f"phi(a)^{k}", ring).to_endo(ring)
    x, y, t = ring.var(0), ring.var(1), ring.constant(alg.t(alg.tsymbols[0]))
    for a in (x, y, t, ring.monomial((-1, 0)) + y,
              (ring.one() + x * t + x * y).truncated(5)):
        got, expected = word.apply(a), folded.apply(a)
        assert got.window == expected.window
        assert got.pole_bound == expected.pole_bound
        assert got.pole_set == expected.pole_set
        assert got.eq_window(expected)


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


# ---------------------------------------------------------------------------
# the substitution kernel against the term-by-term loop it replaces


def reference_apply(endo, a):
    """``endo`` applied to ``a`` one term at a time: the image of each
    coefficient is a sum of series, multiplied by each variable's image
    power in turn and added into the result."""
    ring = endo.ring
    alg = ring.coeffs
    p = alg.p

    def image_of_num_term(mono, vec):
        v = vec
        for alpha, e in enumerate(endo.frob_exps):
            for _ in range(e):
                v = alg.fd_frob(v, alpha)
        new_mono = list(mono)
        mult = None
        for k, m in enumerate(mono):
            if m == 0:
                continue
            alpha = alg.t_owner[k]
            new_mono[k] = m * p ** endo.frob_exps[alpha]
            u = endo.twists.get((alpha, k))
            if u is not None:
                mult = u**m if mult is None else mult * u**m
        base = CoeffElement(alg, {tuple(new_mono): v}, ())
        return ring.constant(base) if mult is None else mult.scale(base)

    def apply_coeff(c):
        out = None
        for mono, vec in c.num.items():
            img = image_of_num_term(mono, vec)
            out = img if out is None else out + img
        if out is None:
            out = ring.zero()
        for _, poly in c.den:
            img = ring.zero()
            for mono, coeff in poly:
                img = img + image_of_num_term(mono, alg.fd_one() * coeff % p)
            out = out * img.invert()
        return out

    out = ring.zero()
    for exps, c in a.support.items():
        term = apply_coeff(c)
        for alpha, e in enumerate(exps):
            if e:
                term = term * endo.var_images[alpha] ** e
        out = out + term
    return out.truncated(tuple(min(wo, wa) for wo, wa in zip(out.window, a.window)))


SCALED = "X_a -> (1 + t) X_a"
TRUNCATED = "X_a -> X_a + X_a^2 X_b, X_b -> X_b + X_a X_b^2"
CUBED = "X_a -> X_a^3"
CUBED_TWICE = "X_a -> 2 X_a^3"
PHI_S = "phi_s"
# (p, degrees, transcendentals per factor, precision, words)
KERNEL_CASES = (
    (2, (1, 1), (1, 0), 6, (
        "phi(a)", "gamma(b; 3)", "delta(a; 1)", "phi(a) * delta(a; 1)", SCALED, TRUNCATED,
        "delta(a; 1) * gamma(a; 1+p) * phi(b)", "gamma(a; 3) * delta(a; 1)^2",
    )),
    (3, (2, 1), (0, 2), 5, (
        "phi(b)", "phi(a)", "delta(b; 2, 1)", "gamma(a; 4) * delta(b; 1, 0)",
        "phi(b) * delta(b; 0, 1) * phi(a)", CUBED, CUBED_TWICE, PHI_S,
    )),
    (3, (1,), (1,), 8, ("phi(a)^2", "delta(a; 1) * phi(a)", "gamma(a; 2) * delta(a; 2)")),
)
WORDS = [(case, word) for case in range(len(KERNEL_CASES)) for word in KERNEL_CASES[case][4]]


def kernel_endo(ring, word):
    """The endomorphism of ``word``; SCALED names X_a -> (1 + t) X_a, whose
    negative powers have coefficients with a denominator, and TRUNCATED
    X_a -> X_a + X_a^2 X_b and X_b -> X_b + X_a X_b^2, known only to
    windows 3 and 4, below the precision, so that the images' own windows
    and not only the caps decide the product rule.  CUBED names
    X_a -> X_a^3, a key map e -> 3e, CUBED_TWICE X_a -> 2 X_a^3, which has
    multipliers, and PHI_S the absolute Frobenius (every variable key-mapped
    by p, the finite part and the transcendentals p-th powered)."""
    if word == PHI_S:
        return make_phi_s(ring)
    if word in (CUBED, CUBED_TWICE):
        image = ring.monomial((3,) + (0,) * (ring.nvars - 1), 2 if word == CUBED_TWICE else 1)
        images = [image] + [ring.var(i) for i in range(1, ring.nvars)]
        return RingEndo(ring, images, (0,) * ring.nvars)
    if word not in (SCALED, TRUNCATED):
        return parse_word(word, ring).to_endo(ring)
    alg = ring.coeffs
    x, y = ring.var(0), ring.var(1)
    if word == TRUNCATED:
        images = [(x + x * x * y).truncated((3, 3)), (y + x * y * y).truncated((4, 4))]
        return RingEndo(ring, images, (0, 0))
    t = ring.constant(alg.t(alg.tsymbols[0]))
    images = [(ring.one() + t) * x] + [ring.var(i) for i in range(1, ring.nvars)]
    return RingEndo(ring, images, (0,) * ring.nvars)


@functools.lru_cache(maxsize=None)
def kernel_ring(case):
    p, degs, ds, prec, _ = KERNEL_CASES[case]
    return ring_for(p, list(degs), list(ds), prec=prec)


def random_input(ring, rng, with_fraction, poles=None):
    """Up to five terms, exponents in [-2, 3] with the negative ones in a
    pole set (drawn unless given), coefficients with up to three t-terms, a
    drawn window and pole bound; ``with_fraction`` divides one coefficient
    by 1 + t."""
    alg = ring.coeffs
    if poles is None:
        poles = frozenset(i for i in range(ring.nvars) if rng.random() < 0.5)
    support = {}
    for _ in range(rng.randrange(6)):
        exps = tuple(rng.randrange(-2 if i in poles else 0, 4) for i in range(ring.nvars))
        c = alg.random_element(rng, tdeg=2, terms=rng.randrange(1, 4))
        if not c.is_zero():
            support[exps] = c
    if with_fraction and support and alg.total_d:
        e = next(iter(support))
        support[e] = support[e] * (alg.one() + alg.t(alg.tsymbols[-1])).invert()
    pole_bound = max([0] + [-x for e in support for x in e]) + rng.randrange(2)
    window = tuple(rng.choice([INF, 2, 3, 5]) for _ in range(ring.nvars))
    return LaurentElement(ring, support, pole_bound, window, poles)


def assert_same_image(got, expected):
    """Same window, pole bound, pole set and coefficient values; the same
    JSON unless a coefficient is a fraction, whose numerator and
    denominator (never reduced) depend on the order its parts were added."""
    assert got.window == expected.window
    assert got.pole_bound == expected.pole_bound
    assert got.pole_set == expected.pole_set
    assert got.support.keys() == expected.support.keys()
    assert all(c == expected.support[e] for e, c in got.support.items())
    if not any(c.den for el in (got, expected) for c in el.support.values()):
        assert laurent_to_json(got) == laurent_to_json(expected)


@settings(max_examples=60, deadline=None)
@given(case_word=st.sampled_from(WORDS), seed=st.integers(0, 2**32 - 1),
       with_fraction=st.booleans())
def test_apply_matches_the_term_loop(case_word, seed, with_fraction):
    case, word = case_word
    ring = kernel_ring(case)
    endo = kernel_endo(ring, word)
    rng = random.Random(seed)
    for _ in range(3):  # the caches fill on the first input and serve the rest
        a = random_input(ring, rng, with_fraction)
        assert_same_image(endo.apply(a), reference_apply(endo, a))


@pytest.mark.parametrize("seed", range(12))
def test_apply_with_multipliers_that_carry_a_denominator(seed):
    # X_a^-k maps to ((1 + t) X_a)^-k, whose coefficients are fractions: those
    # rows are made term by term and added into the kernel's support
    ring = kernel_ring(0)
    endo = kernel_endo(ring, SCALED)
    rng = random.Random(seed)
    a = random_input(ring, rng, with_fraction=seed % 2, poles=frozenset({0}))
    a = a + ring.monomial((-1, 1), ring.coeffs.random_element(rng, tdeg=1, terms=2))
    assert_same_image(endo.apply(a), reference_apply(endo, a))


@settings(max_examples=40, deadline=None)
@given(word=st.sampled_from(["phi(a)", "phi(b)", "gamma(a; 1+p)", "gamma(b; 2)",
                             "phi(a) * gamma(b; 2) * phi(b)", "gamma(a; 2) * phi(a)"]),
       seed=st.integers(0, 2**32 - 1))
def test_apply_matches_dense_substitution(word, seed):
    # GF(3) coefficients, no poles: on the box [0, 6]^2 the image is the
    # substitution of the images truncated to the box
    p, W = 3, 6
    ring = ring_for(p, [1, 1], prec=W)
    endo = parse_word(word, ring).to_endo(ring)
    rng = random.Random(seed)
    shape = (W + 1, W + 1)
    support = {}
    for _ in range(rng.randrange(1, 6)):
        support[(rng.randrange(4), rng.randrange(4))] = ring.coeffs.from_int(rng.randrange(1, p))
    window = tuple(rng.choice([INF, 3, W]) for _ in range(2))
    a = LaurentElement(ring, support, 0, window)
    out = endo.apply(a)

    def dense(el):
        return DensePolynomial.from_terms(p, shape, {
            e: int(c.constant_fd()[0]) for e, c in el.support.items()
            if all(x < s for x, s in zip(e, shape))
        })

    images = [dense(img) for img in endo.var_images]
    expected = dense_substitute(dense(a), images).coeffs
    got = dense(out).coeffs
    box = tuple(slice(0, W + 1 if w == INF else w + 1) for w in out.window)
    assert (got[box] == expected[box]).all()


def test_key_mapped_variables_and_their_images():
    # a variable whose image is exactly X_alpha^k maps keys e -> k e; any
    # other image (a coefficient, a second term, a window) multiplies
    ring = kernel_ring(1)
    p = ring.coeffs.p
    assert kernel_endo(ring, CUBED)._fixed == (3, 1)
    assert kernel_endo(ring, CUBED_TWICE)._fixed == (0, 1)
    assert kernel_endo(ring, PHI_S)._fixed == (p, p)
    assert parse_word("phi(a)^2 * phi(b)", ring).to_endo(ring)._fixed == (p * p, p)
    assert parse_word("gamma(a; 4) * delta(b; 1, 0)", ring).to_endo(ring)._fixed == (0, 1)
    x = ring.var(0)
    assert RingEndo(ring, [x.truncated((4, INF)), ring.var(1)], (0, 0))._fixed == (0, 1)
    assert RingEndo(ring, [x * x + x**3, ring.var(1)], (0, 0))._fixed == (0, 1)


@pytest.mark.parametrize("word", ["phi(a)", "phi(b)^2 * phi(a)", PHI_S, CUBED])
def test_key_mapped_endomorphisms_run_no_kernel(monkeypatch, word):
    from phigamma import CoefficientAlgebra

    calls = []
    for name in ("mul_rows", "combine_rows"):
        kernel = getattr(CoefficientAlgebra, name)
        monkeypatch.setattr(
            CoefficientAlgebra, name,
            lambda self, *a, kernel=kernel, **k: calls.append(1) or kernel(self, *a, **k),
        )
    ring = kernel_ring(1)
    endo = kernel_endo(ring, word)
    rng = random.Random(5)
    for _ in range(4):
        a = random_input(ring, rng, with_fraction=False)
        expected = reference_apply(endo, a)
        calls.clear()
        assert_same_image(endo.apply(a), expected)
        assert not calls


def test_key_maps_refuse_exponents_past_the_bound():
    ring = ring_for(2, [1, 1], prec=8)
    endo = RingEndo(ring, [ring.monomial((2**61, 0)), ring.var(1)], (0, 0))
    assert endo._fixed == (2**61, 1)
    image = endo.apply(ring.monomial((2, 0)) + ring.var(1))
    assert set(image.support) == {(2**62, 0), (0, 1)}  # 2^62 itself is kept
    for exps in ((3, 0), (-3, 0)):
        with pytest.raises(ValueError) as exc:
            endo.apply(ring.monomial(exps))
        assert str(exc.value) == "exponent out of range: exponents must lie in [-2^62, 2^62]"


@pytest.mark.parametrize("outer,inner", [
    # phi_a fixes X_b and sends X_a to X_a^3; gamma_b moves X_b
    (lambda r: make_gamma(r, 1, chi(3, 2)), lambda r: make_phi(r, 0)),
    # gamma_a fixes X_b; delta_a twists t_a
    (lambda r: make_delta(r, 0, (1,)), lambda r: make_gamma(r, 0, chi(3, 4))),
    # delta_a fixes every X; phi_s sends each X to X^3
    (make_phi_s, lambda r: make_delta(r, 0, (1,))),
], ids=["gamma_b-phi_a", "delta_a-gamma_a", "phi_s-delta_a"])
def test_compose_over_fixed_variables_matches_sequential_application(outer, inner):
    # where inner sends X_beta to X_beta, the composite takes outer's own
    # image of X_beta: the same image that applying outer would make
    ring = ring_for(3, [1, 2], ds=[1, 0], prec=6)
    s, t = outer(ring), inner(ring)
    comp = s.compose(t)
    assert 1 in t._fixed
    for got, img in zip(comp.var_images, t.var_images):
        assert_same_image(got, reference_apply(s, img))
    rng = random.Random(11)
    for _ in range(6):
        a = random_input(ring, rng, with_fraction=False)
        assert comp.apply(a).eq_window(reference_apply(s, reference_apply(t, a)))


def test_words_of_zero_and_one_factor():
    ring = kernel_ring(0)
    rng = random.Random(13)
    a = random_input(ring, rng, with_fraction=False)
    assert_same_image(OperatorWord([]).to_endo(ring).apply(a), a)
    for text in ("phi(a)^2", "gamma(b; 3)", "delta(a; 1)^-1"):
        (factor,) = parse_word(text, ring).factors
        word = OperatorWord([factor]).to_endo(ring)
        single = _factor_endo(ring, factor)
        assert word.frob_exps == single.frob_exps
        assert word.twists.keys() == single.twists.keys()
        for x, y in zip(word.var_images, single.var_images):
            assert_same_image(x, y)
        for x, y in zip(word.twists.values(), single.twists.values()):
            assert_same_image(x, y)
        assert_same_image(word.apply(a), single.apply(a))
