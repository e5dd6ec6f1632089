import functools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import alg_for, ring_for
from phigamma import (
    INF,
    CoeffElement,
    CoefficientAlgebra,
    LaurentElement,
    PAdicUnitApprox,
    PrecisionError,
    SeriesRingSpec,
    binomial_power,
    laurent_from_json,
    laurent_to_json,
)
from phigamma.oracles import exhaustive_inverse_search


def random_series(ring, rng, nterms=4, maxexp=3, poles=False):
    out = ring.zero()
    for _ in range(nterms):
        exps = tuple(
            rng.randrange(-1 if poles else 0, maxexp + 1)
            for _ in range(ring.nvars)
        )
        out = out + ring.monomial(exps, ring.coeffs.random_element(rng, tdeg=1, terms=2))
    return out


@pytest.mark.parametrize("p,degs", [(2, [2, 2]), (3, [1, 2])])
def test_ring_axioms_on_windows(p, degs):
    ring = ring_for(p, degs, prec=6)
    rng = random.Random(2)
    for _ in range(20):
        a = random_series(ring, rng, poles=True)
        b = random_series(ring, rng)
        c = random_series(ring, rng)
        assert ((a + b) * c).eq_window(a * c + b * c)
        assert ((a * b) * c).eq_window(a * (b * c))
        assert (a * b).eq_window(b * a)
        assert (a - a).eq_window(ring.zero())


def test_truncation_window_rule():
    ring = ring_for(2, [1, 1], prec=8)
    a = ring.var(0).truncated(3)  # known up to X_a^3
    b = ring.one() + ring.var(0)
    prod = a * b
    # multiplying by an exact pole-free unit keeps the window
    assert prod.window[0] == 3
    # a term beyond the window must not appear
    big = a * ring.monomial((2, 0))
    assert all(e[0] <= big.window[0] for e in big.support)


def test_pole_window_interaction():
    ring = ring_for(2, [1, 1], prec=8)
    inv = ring.monomial((-1, 0))
    a = (ring.one() + ring.var(0)).truncated(4)
    prod = a * inv
    # multiplying by X^-1 shifts what is certifiable
    assert prod.window[0] <= 3
    assert prod.pole_bound >= 1


def test_eq_raises_on_window_limited_equality():
    ring = ring_for(2, [1], prec=4)
    a = ring.one().truncated(4)
    b = ring.one()
    with pytest.raises(PrecisionError):
        bool(a == b)
    assert a.eq_window(b)
    # exact equality works
    assert ring.one() == ring.one()


def test_window_comparison_clips_by_the_larger_pole_bound():
    # a - b is certified up to 4 - 2 = 2 in X (cap less the larger pole
    # bound), so a and b agree there although a has X^3 and b has not
    ring = ring_for(2, [1], prec=4)
    one = ring.coeffs.one()
    a = LaurentElement(ring, {(0,): one, (3,): one}, 0, (3,))
    b = LaurentElement(ring, {(0,): one}, 2, (INF,), {0})
    assert a.eq_window(b) and b.eq_window(a)
    with pytest.raises(PrecisionError):
        a == b


def test_monomial_shift_is_exact():
    ring = ring_for(2, [1, 1], prec=6)
    a = (ring.one() + ring.x_delta()).truncated(5)
    shifted = a.monomial_shift((-1, -1))
    back = shifted.monomial_shift((1, 1))
    assert back.eq_window(a)
    assert shifted.window[0] == a.window[0] - 1


@pytest.mark.parametrize("p,degs", [(2, [2, 2]), (3, [2, 1])])
def test_invert_random_units(p, degs):
    ring = ring_for(p, degs, prec=6)
    rng = random.Random(9)
    count = 0
    while count < 10:
        u = ring.one() + random_series(ring, rng, nterms=3, maxexp=2)
        if u.unit_verdict() != "unit":
            continue
        count += 1
        inv = u.invert()
        assert (u * inv).eq_window(ring.one())


def minimal_corners(supp):
    """The exponents of ``supp`` with no other exponent below them."""
    return [
        e for e in supp
        if not any(f != e and all(x <= y for x, y in zip(f, e)) for f in supp)
    ]


def reference_invert(u):
    """The inverse by the term-by-term geometric series: per idempotent
    component b_j, its own unique minimal corner v and corner inverse w,
    then D + 1 steps inv <- b_j - h inv, D the sum of the caps."""
    ring = u.ring
    alg = ring.coeffs
    dec = alg.idempotent_decomposition()
    total = ring.zero()
    for j in range(dec.ell):
        if dec.ell == 1:
            aj, unit_part = u, ring.one()
        else:
            bj = alg.from_fdelta(dec.idempotents[j])
            aj, unit_part = u.scale(bj), ring.constant(bj)
        (v,) = minimal_corners(aj.support)
        c = aj.support[v]
        w = (c if dec.ell == 1 else c + (alg.one() - bj)).invert()
        shifted = aj.monomial_shift(tuple(-x for x in v)).scale(w)
        h = shifted - unit_part
        if not h.support:
            inv = unit_part.truncated(shifted.window)
        else:
            h = h.truncated(ring.precision)
            inv = unit_part
            for _ in range(sum(ring.precision) + 1):
                inv = unit_part - h * inv
        total = total + inv.scale(w).monomial_shift(tuple(-x for x in v))
    return total


def per_component_analysis(u):
    """(verdict, parts) as ``_corner_analysis`` gave them for every element
    before one-row units had a closed form: per idempotent component, its
    unique minimal corner and that coefficient's unit analysis."""
    alg = u.ring.coeffs
    dec = alg.idempotent_decomposition()
    parts = []
    for j in range(dec.ell):
        if dec.ell == 1:
            bj, aj = alg.one(), u
        else:
            bj = alg.from_fdelta(dec.idempotents[j])
            aj = u.scale(bj)
        if not aj._has_terms():
            return ("nonunit" if u.is_exact() else "undecided"), None
        minimal = minimal_corners(aj.support)
        if len(minimal) > 1:
            return "nonunit", None
        (v,) = minimal
        c = aj.support[v]
        if dec.ell > 1:
            c = c + (alg.one() - bj)
        verdict, w = c._unit_analysis()
        if verdict == "zero_divisor_or_zero":
            return "nonunit", None
        if verdict == "undecided":
            return "undecided", None
        parts.append((bj, aj, v, w))
    return "unit", parts


def per_component_invert(u):
    """The inverse as ``invert`` took it for every element before one-row
    units had a closed form: the doubled geometric series per component."""
    verdict, parts = per_component_analysis(u)
    assert verdict == "unit"
    ring = u.ring
    D = sum(ring.precision)
    total = None
    for bj, aj, v, w in parts:
        unit_part = ring.constant(bj)
        shifted = aj.monomial_shift(tuple(-x for x in v)).scale(w)
        g = unit_part - shifted
        if not g._has_terms():
            inv = unit_part.truncated(shifted.window)
        else:
            g = g.truncated(ring.precision)
            inv, pw, reach = unit_part + g, g, 2
            while reach <= D:
                pw = pw * pw
                inv = inv + inv * pw
                reach *= 2
        inv = inv.scale(w).monomial_shift(tuple(-x for x in v))
        total = inv if total is None else total + inv
    return total


# (p, degrees, transcendentals per factor, largest cap): GF(p) for three
# primes, the l = 2 algebra GF(4) (x) GF(4), a t-symbol ring and three variables
INVERT_RINGS = (
    (2, (1, 1), (0, 0), 6), (2, (2, 2), (0, 0), 5), (3, (1, 2), (0, 0), 5),
    (5, (1, 1), (0, 0), 5), (3, (2, 1), (1, 0), 4), (2, (1, 1, 1), (0, 0, 0), 3),
)


@functools.lru_cache(maxsize=None)
def invert_algebra(p, degs, ds):
    return alg_for(p, list(degs), list(ds))


@st.composite
def units(draw):
    """A certified unit: a corner c X^v with v in [-1, 1]^n, up to four
    terms above it, and a drawn window, finite or not in each variable."""
    p, degs, ds, cap = draw(st.sampled_from(INVERT_RINGS))
    alg = invert_algebra(p, degs, ds)
    n = len(degs)
    ring = SeriesRingSpec(alg, tuple(draw(st.integers(1, cap)) for _ in range(n)))

    def coeff():
        num = {}
        monos = draw(st.lists(st.tuples(*[st.integers(0, 1)] * alg.total_d),
                              min_size=1, max_size=min(2, 2**alg.total_d), unique=True))
        for mono in monos:
            vec = draw(st.lists(st.integers(0, p - 1), min_size=alg.N, max_size=alg.N))
            if any(vec):
                num[mono] = np.array(vec, dtype=np.int64)
        return CoeffElement(alg, num, ())

    corner = tuple(draw(st.integers(-1, 1)) for _ in range(n))
    u = ring.monomial(corner, coeff())
    for _ in range(draw(st.integers(0, 4))):
        step = tuple(draw(st.integers(0, 3)) for _ in range(n))
        u = u + ring.monomial(tuple(map(sum, zip(corner, step))), coeff())
    u = u.truncated(tuple(draw(st.sampled_from([INF, 0, 1, 2, 5])) for _ in range(n)))
    assume(u.unit_verdict() == "unit")
    return u


@settings(max_examples=150, deadline=None)
@given(u=units())
def test_invert_matches_the_geometric_series(u):
    got, want = u.invert(), reference_invert(u)
    assert got.window == want.window
    assert got.pole_bound == want.pole_bound
    assert got.pole_set == want.pole_set
    assert got.support.keys() == want.support.keys()
    assert all(c == want.support[e] for e, c in got.support.items())
    if not any(c.den for el in (got, want) for c in el.support.values()):
        assert laurent_to_json(got) == laurent_to_json(want)


@st.composite
def one_row_elements(draw):
    """One term c X^v: c is one row, a finite-part vector (an idempotent
    zero divisor on an l > 1 algebra, or drawn, zero included) times a
    t-monomial; v in [-2, 2]^n; the pole bound and pole set are at least the
    term's; and the window, finite or not, may drop the term."""
    p, degs, ds, cap = draw(st.sampled_from(INVERT_RINGS))
    alg = invert_algebra(p, degs, ds)
    n = len(degs)
    ring = SeriesRingSpec(alg, tuple(draw(st.integers(1, cap)) for _ in range(n)))
    dec = alg.idempotent_decomposition()
    if dec.ell > 1 and draw(st.booleans()):
        vec = dec.idempotents[draw(st.integers(0, dec.ell - 1))]
    else:
        vec = draw(st.lists(st.integers(0, p - 1), min_size=alg.N, max_size=alg.N))
    vec = np.array(vec, dtype=np.int64) % p
    mono = tuple(draw(st.sampled_from([0, 0, 1])) for _ in range(alg.total_d))
    c = CoeffElement(alg, {mono: vec} if vec.any() else {}, ())
    v = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    pole_bound = max(0, -min(v)) + draw(st.integers(0, 2))
    pole_set = {i for i, e in enumerate(v) if e < 0} | draw(st.sets(st.integers(0, n - 1)))
    window = tuple(draw(st.sampled_from([INF, e - 1, e, e + 1, e + 3])) for e in v)
    return LaurentElement(ring, {v: c}, pole_bound, window, pole_set)


@settings(max_examples=200, deadline=None)
@given(u=one_row_elements())
def test_one_row_units_match_the_per_component_path(u):
    verdict, _ = per_component_analysis(u)
    assert u.unit_verdict() == verdict
    got = u.try_invert()
    assert (got is None) == (verdict != "unit")
    if got is None:
        return
    want = per_component_invert(u)
    assert got.meta() == want.meta()
    if want.keys is None:
        assert got.keys is None
        assert got.support.keys() == want.support.keys()
    else:
        assert np.array_equal(got.keys, want.keys)
        assert np.array_equal(got.vecs, want.vecs)
    assert laurent_to_json(got) == laurent_to_json(want)


def test_one_row_units_skip_the_idempotent_split(monkeypatch):
    # GF(4) (x) GF(4) has l = 2 components; a unit c X^v with t-free c is
    # decided and inverted without splitting it, a two-row unit is not
    calls = []
    split = CoefficientAlgebra._compute_idempotents
    monkeypatch.setattr(
        CoefficientAlgebra, "_compute_idempotents",
        lambda alg: calls.append(1) or split(alg),
    )
    ring = ring_for(2, [2, 2], prec=5)
    u = ring.monomial((-1, 2), ring.coeffs.gen(0))
    assert u.unit_verdict() == "unit"
    inv = u.try_invert()
    assert (u * inv).eq_window(ring.one())
    assert not calls
    two_rows = ring.one() + ring.var(0)
    assert two_rows.try_invert() is not None
    assert len(calls) == 1
    assert ring.coeffs.idempotent_decomposition().ell == 2


@pytest.mark.parametrize("caps", [(1, 1), (2, 2), (1, 3), (3, 5), (1, 1, 2)])
def test_invert_keeps_the_top_corner_when_d_is_a_power_of_two(caps):
    # g = -(X_a + X_b + ...): g^D has the term X^caps, of total degree
    # D = 2^k, with the nonzero multinomial coefficient mod 5; the doubling
    # must run while 2^k <= D, not stop at 2^k = D
    ring = ring_for(5, [1] * len(caps), prec=caps)
    u = ring.one()
    for i in range(ring.nvars):
        u = u + ring.var(i)
    inv = u.invert()
    assert caps in inv.support
    assert (u * inv).eq_window(ring.one())


def test_invert_takes_logarithmically_many_products(monkeypatch):
    # D = 18: doubling reaches g^31 in 4 steps of 2 products, and w scales
    # twice; the geometric series took D + 1 = 19 products
    ring = ring_for(3, [1, 1, 1], prec=6)
    u = ring.one()
    for exps in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 2, 1), (2, 0, 1)]:
        u = u + ring.monomial(exps)
    calls = []
    times = LaurentElement._times
    monkeypatch.setattr(
        LaurentElement, "_times", lambda a, b: calls.append(1) or times(a, b)
    )
    inv = u.invert()
    monkeypatch.undo()
    assert len(calls) <= 10
    assert (u * inv).eq_window(ring.one())


def test_invert_with_pole_and_scale():
    ring = ring_for(2, [1, 1], prec=6)
    u = ring.monomial((-1, 2)) + ring.monomial((0, 2))  # X_a^-1 X_b^2 (1 + X_a)
    assert u.unit_verdict() == "unit"
    inv = u.invert()
    assert (u * inv).eq_window(ring.one())


def test_nonunit_detection_matches_exhaustive_search():
    ring = ring_for(2, [1, 1], prec=6)
    xa_plus_xb = ring.var(0) + ring.var(1)
    assert xa_plus_xb.unit_verdict() == "nonunit"
    exists, _ = exhaustive_inverse_search(xa_plus_xb, 5)
    assert not exists
    u = ring.one() + ring.var(0)
    exists, inv = exhaustive_inverse_search(u, 5)
    assert exists
    # the box-solver inverse agrees with the geometric-series inverse on the box
    assert inv.eq_window(u.invert().truncated(5))


def test_zero_divisor_coefficient_blocks_unit():
    ring = ring_for(2, [2, 2], prec=6)
    dec = ring.coeffs.idempotent_decomposition()
    e0 = ring.coeffs.from_fdelta(dec.idempotents[0])
    a = ring.constant(e0)
    assert a.unit_verdict() == "nonunit"


def test_component_patched_units():
    # per-component corners: e0*1 + e1*X is a unit of the Laurent ring (the
    # e1-corner shifts); e0*1 + e1*(X_a + X_b) is not (no unique corner there)
    ring = ring_for(2, [2, 2], prec=6)
    dec = ring.coeffs.idempotent_decomposition()
    e0 = ring.coeffs.from_fdelta(dec.idempotents[0])
    e1 = ring.coeffs.from_fdelta(dec.idempotents[1])
    mixed = ring.constant(e0) + ring.var(0).scale(e1)
    assert mixed.unit_verdict() == "unit"
    assert (mixed * mixed.invert()).eq_window(ring.one())
    bad = ring.constant(e0) + (ring.var(0) + ring.var(1)).scale(e1)
    assert bad.unit_verdict() == "nonunit"
    ok = ring.constant(e0) + (ring.one() + ring.var(0)).scale(e1)
    assert ok.unit_verdict() == "unit"
    assert (ok * ok.invert()).eq_window(ring.one())


def test_invert_analyses_each_corner_once(monkeypatch):
    # GF(4) (x) GF(4) has l = 2 components: one unit analysis per corner
    # coefficient gives both the verdict and the corner inverse w
    ring = ring_for(2, [2, 2], prec=5)
    assert ring.coeffs.idempotent_decomposition().ell == 2
    u = ring.monomial((-1, 0)) + ring.one() + ring.monomial((1, 1))
    calls = []
    analysis = CoeffElement._unit_analysis
    monkeypatch.setattr(
        CoeffElement, "_unit_analysis", lambda c: calls.append(1) or analysis(c)
    )
    inv = u.try_invert()
    monkeypatch.undo()
    assert len(calls) == 2
    assert (u * inv).eq_window(ring.one())
    assert laurent_to_json(inv) == laurent_to_json(u.invert())


def test_try_invert_gives_none_for_a_nonunit():
    ring = ring_for(2, [2, 2], prec=6)
    assert (ring.var(0) + ring.var(1)).try_invert() is None
    assert ring.zero().try_invert() is None
    e0 = ring.coeffs.from_fdelta(ring.coeffs.idempotent_decomposition().idempotents[0])
    assert ring.constant(e0).try_invert() is None

@pytest.mark.parametrize("p", [2, 3])
def test_binomial_power_matches_integer_expansion(p):
    ring = ring_for(p, [1], prec=16)
    rng = random.Random(4)
    for _ in range(25):
        c = rng.randrange(1, 200)
        capprox = PAdicUnitApprox(p, c, 6)
        series = binomial_power(ring, 0, capprox)
        expected = ring.zero()
        for k in range(1, 17):
            coeff = math.comb(c, k) % p
            if coeff:
                expected = expected + ring.monomial((k,), coeff)
        assert series.eq_window(expected)


def test_binomial_power_negative_exponent():
    ring = ring_for(3, [1], prec=9)
    c = PAdicUnitApprox(3, 1, 4)
    cm1 = PAdicUnitApprox(3, pow(2, -1, 81) * 2 % 81, 4)  # residue of 1 again
    g = binomial_power(ring, 0, PAdicUnitApprox(3, 80, 4))  # c = -1 mod 81
    # (1+X)^-1 - 1 multiplied by (1+X) gives -X on the window
    lhs = (ring.one() + g) * (ring.one() + ring.var(0))
    assert lhs.eq_window(ring.one())


def test_val_and_total_val():
    ring = ring_for(2, [1, 1], prec=6)
    a = ring.monomial((2, 1)) + ring.monomial((3, 0))
    assert a.val(0) == 2
    assert a.val(1) == 0
    assert a.val_total() == 3
    assert ring.zero().val(0) == INF
    with pytest.raises(PrecisionError):
        ring.zero().truncated(3).val(0)


def test_json_roundtrip():
    ring = ring_for(3, [2, 1], ds=[1, 0], prec=6)
    rng = random.Random(8)
    for _ in range(10):
        a = random_series(ring, rng, poles=True)
        back = laurent_from_json(ring, laurent_to_json(a))
        assert back.eq_window(a)
        assert back.window == a.window
        assert back.pole_bound == a.pole_bound
