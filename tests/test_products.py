"""The batched product kernel against independent references.

Series products go through ``CoefficientAlgebra.mul_rows`` when no
coefficient has a denominator.  For N = 1 (and t-exponents as extra box
dimensions) the reference is ``oracles.dense_mul``; for N > 1 it is an
explicit pair loop of finite-part products ``fd_mul``.  Denominator-carrying
coefficients keep the pair loop, checked here by clearing the denominator.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ring_for
from phigamma import INF, LaurentElement, PrecisionError
from phigamma.oracles import DensePolynomial, dense_mul

SHAPES = [
    (p, degs, ds)
    for p in (2, 3, 5, 7)
    for degs, ds in (
        ((1,), (0,)), ((1,), (1,)), ((2,), (1,)), ((1, 1), (0, 1)),
        ((2, 1), (1, 0)), ((2, 2), (0, 0)), ((1, 1, 1), (0, 0, 1)),
        ((2, 2, 1), (1, 0, 0)),
    )
]


@functools.lru_cache(maxsize=None)
def cached_ring(p, degs, ds):
    return ring_for(p, list(degs), list(ds), prec=5)


@st.composite
def series(draw, ring):
    """A sum of up to four terms, exponents in [0, 3], coefficients with up
    to two t-terms; optionally truncated in some variables and shifted by
    X^-1 in some (which puts them in the pole set)."""
    alg = ring.coeffs
    el = ring.zero()
    for _ in range(draw(st.integers(0, 4))):
        c = alg.zero()
        for _ in range(draw(st.integers(1, 2))):
            vec = [draw(st.integers(0, alg.p - 1)) for _ in range(alg.N)]
            term = alg.from_fdelta(vec)
            for s in alg.tsymbols:
                if draw(st.booleans()):
                    term = term * alg.t(s)
            c = c + term
        exps = tuple(draw(st.integers(0, 3)) for _ in range(ring.nvars))
        el = el + ring.monomial(exps, c)
    window = tuple(
        draw(st.sampled_from([INF, 1, 2, 4])) for _ in range(ring.nvars)
    )
    el = el.truncated(window)
    shift = tuple(draw(st.sampled_from([0, 0, -1])) for _ in range(ring.nvars))
    return el.monomial_shift(shift) if any(shift) else el


@st.composite
def ring_and_pair(draw):
    ring = cached_ring(*draw(st.sampled_from(SHAPES)))
    a = draw(series(ring))
    b = draw(series(ring))
    if draw(st.booleans()):
        b = b - a  # sums where pair products cancel
    return ring, a, b


def flat(el):
    """{(X-exponents, t-exponents): vector} of a den-free series."""
    out = {}
    for e, c in el.support.items():
        assert not c.den
        for t, v in c.num.items():
            assert v.dtype == np.int64 and v.any()
            assert ((0 <= v) & (v < el.ring.coeffs.p)).all()
            out[(e, t)] = tuple(int(x) for x in v)
    return out


def within(key, window):
    return all(x <= w for x, w in zip(key[0], window))


def pair_loop_reference(a, b, window):
    alg = a.ring.coeffs
    sums = {}
    for e1, c1 in a.support.items():
        for e2, c2 in b.support.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            for t1, v1 in c1.num.items():
                for t2, v2 in c2.num.items():
                    key = (e, tuple(x + y for x, y in zip(t1, t2)))
                    sums[key] = (sums.get(key, 0) + alg.fd_mul(v1, v2)) % alg.p
    return {
        k: tuple(int(x) for x in v)
        for k, v in sums.items()
        if v.any() and within(k, window)
    }


def dense_reference(a, b, window):
    """The product through oracles.dense_mul (N = 1): the t-exponents are
    extra box dimensions, and X-exponents are offset past the poles."""
    ring = a.ring
    nv, dims = ring.nvars, ring.nvars + ring.coeffs.total_d

    def rows(el):
        f = flat(el)
        off = [max([0] + [-e[i] for e, _ in f]) for i in range(nv)]
        off += [0] * (dims - nv)
        return off, {
            tuple(x + o for x, o in zip(e + t, off)): v[0] for (e, t), v in f.items()
        }

    (off_a, ra), (off_b, rb) = rows(a), rows(b)
    shape = tuple(
        max([0] + [k[i] for k in ra]) + max([0] + [k[i] for k in rb]) + 1
        for i in range(dims)
    )
    p = ring.coeffs.p
    prod = dense_mul(
        DensePolynomial.from_terms(p, shape, ra), DensePolynomial.from_terms(p, shape, rb)
    )
    out = {}
    for idx, c in prod.terms().items():
        key = tuple(x - oa - ob for x, oa, ob in zip(idx, off_a, off_b))
        key = (key[:nv], key[nv:])
        if within(key, window):
            out[key] = (c,)
    return out


@settings(max_examples=80, deadline=None)
@given(ring_and_pair())
def test_series_product_matches_references(data):
    ring, a, b = data
    prod = a * b
    assert prod.window == (b * a).window
    got = flat(prod)
    assert all(within(k, prod.window) for k in got)
    if ring.coeffs.N == 1:
        assert got == dense_reference(a, b, prod.window)
    else:
        assert got == pair_loop_reference(a, b, prod.window)
    # scale runs the same kernel: a times each coefficient of b
    for c in b.support.values():
        scaled = a.scale(c)
        assert scaled.window == a.window
        assert flat(scaled) == flat(a * ring.constant(c))


@settings(max_examples=40, deadline=None)
@given(ring_and_pair())
def test_coefficient_products_match_pair_loop(data):
    ring, a, b = data
    alg = ring.coeffs
    for c1 in a.support.values():
        for c2 in b.support.values():
            expected = {}
            for t1, v1 in c1.num.items():
                for t2, v2 in c2.num.items():
                    t = tuple(x + y for x, y in zip(t1, t2))
                    expected[t] = (expected.get(t, 0) + alg.fd_mul(v1, v2)) % alg.p
            got = (c1 * c2).num
            assert {t: tuple(v) for t, v in got.items()} == {
                t: tuple(v) for t, v in expected.items() if v.any()
            }


@settings(max_examples=40, deadline=None)
@given(ring_and_pair())
def test_denominator_products_keep_the_pair_loop(data):
    ring, a, b = data
    alg = ring.coeffs
    if not alg.tsymbols:
        return
    d = alg.one() + alg.t(alg.tsymbols[0])
    u = d.try_invert()
    assert u.den  # 1 / (1 + t) carries a denominator
    bu = b.scale(u)
    prod = a * bu
    assert any(c.den for c in bu.support.values()) or not bu.support
    cleared = prod.scale(d)
    assert cleared.window == (a * b).window
    assert cleared.eq_window(a * b)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_comparisons_match_the_difference(data):
    # eq_window and == compare coefficients directly; they must say what the
    # difference a - b says, fractions with unequal denominators included
    ring, a, b = data.draw(ring_and_pair())
    alg = ring.coeffs
    b = data.draw(st.sampled_from([b, a, a.truncated(2), a + b.truncated(1)]))
    if alg.tsymbols and data.draw(st.booleans()):
        d = alg.one() + alg.t(alg.tsymbols[0])
        a = a.scale(d.try_invert())  # c / (1 + t)
        b = b.scale(d).scale(d.try_invert()).scale(d.try_invert())  # c (1+t) / (1+t)^2
    diff = a - b
    assert a.eq_window(b) == (not diff.support)
    if diff.support:
        assert (a == b) is False
    elif diff.is_exact():
        assert (a == b) is True
    else:
        with pytest.raises(PrecisionError):
            a == b
    for e, c in a.support.items():
        if e in b.support:
            assert (c == b.support[e]) == (c - b.support[e]).is_zero()


def test_zero_divisor_products_cancel():
    ring = ring_for(2, [2, 2], prec=6)
    dec = ring.coeffs.idempotent_decomposition()
    e0, e1 = (ring.coeffs.from_fdelta(e) for e in dec.idempotents[:2])
    a = ring.var(0).scale(e0) + ring.var(1)
    b = ring.var(0).scale(e1)
    prod = a * b  # X_a^2 e0 e1 = 0 leaves X_a X_b e1
    assert set(prod.support) == {(1, 1)}
    assert prod.is_exact()
    assert not (ring.var(0).scale(e0) * b).support
    x, y = ring.var(0), ring.var(1)
    square = (x + y) * (x + y)  # the cross terms cancel in characteristic 2
    assert set(square.support) == {(2, 0), (0, 2)}


def _pole_term():
    ring = ring_for(3, [2, 1], ds=[1, 0], prec=8)
    alg = ring.coeffs
    c = (alg.gen(0) + alg.one()) * alg.t(alg.tsymbols[0])
    x = ring.monomial((-1, 2), c)  # a pole in X_a
    assert x.pole_set == frozenset({0})
    return x


def _windowed_term():
    x = ring_for(2, [1, 1], prec=8).var(0).truncated((3, INF))
    assert len(x.support) == 1 and not x.is_exact()
    return x  # X_a^4 lies past the window: its fourth power knows nothing


@pytest.mark.parametrize("make", [_pole_term, _windowed_term])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_power_equals_repeated_products(make, n):
    x = make()
    expected = x.ring.one()
    for _ in range(n):
        expected = expected * x
    got = x**n
    assert got.window == expected.window
    assert got.pole_bound == expected.pole_bound == n * x.pole_bound
    assert got.pole_set == expected.pole_set
    assert flat(got) == flat(expected)


def test_trusted_results_drop_terms_beyond_the_clipped_window():
    ring = ring_for(2, [1], prec=4)
    pole = ring.monomial((-2,))  # pole bound 2: finite windows clip to 4 - 2
    b = (ring.var(0) + ring.monomial((3,))).truncated(3)
    s = pole + b
    assert s.window == (2,)
    assert set(s.support) == {(-2,), (1,)}  # X_a^3 is past the clipped window
    assert set(b.truncated(2).support) == {(1,)}
    assert not (-b.truncated(0)).support


def test_public_constructor_keeps_its_checks():
    ring = ring_for(2, [1, 1], prec=4)
    one = ring.coeffs.one()
    with pytest.raises(ValueError, match="outside pole set"):
        LaurentElement(ring, {(-1, 0): one}, 1, (INF, INF), frozenset({1}))
    with pytest.raises(ValueError, match="below pole bound"):
        LaurentElement(ring, {(-2, 0): one}, 1, (INF, INF), frozenset({0}))
    kept = LaurentElement(ring, {(3, 0): one, (0, 0): ring.coeffs.zero()}, 0, (2, INF))
    assert kept.support == {}


# ---------------------------------------------------------------------------
# products with a one-row operand: a shift and a scale, no kernel call


@st.composite
def one_row(draw, ring):
    """One term c t^m X^e: c a nonzero vector (for N > 1 optionally a zero
    divisor, one component's part), m drawn per symbol, e in [-1, 3] (a
    negative entry puts the variable in the pole set), optionally
    truncated."""
    alg = ring.coeffs
    c = alg.from_fdelta([draw(st.integers(0, alg.p - 1)) for _ in range(alg.N)])
    dec = alg.idempotent_decomposition()
    if dec.ell > 1 and draw(st.booleans()):
        e = alg.from_fdelta(dec.idempotents[draw(st.integers(0, dec.ell - 1))])
        c = e if c.is_zero() or (c * e).is_zero() else c * e
    elif c.is_zero():
        c = alg.one()
    for s in alg.tsymbols:
        c = c * alg.t(s) ** draw(st.integers(0, 2))
    exps = tuple(draw(st.integers(-1, 3)) for _ in range(ring.nvars))
    row = ring.monomial(exps, c)
    window = tuple(draw(st.sampled_from([INF, INF, 1, 3])) for _ in range(ring.nvars))
    return row.truncated(window)


@st.composite
def ring_and_row_pair(draw):
    """A one-row element and a drawn series, the series for N > 1
    optionally times one component's idempotent, so that the row's
    products with some of its terms vanish; either order."""
    ring = cached_ring(*draw(st.sampled_from(SHAPES)))
    row = draw(one_row(ring))
    other = draw(series(ring))
    dec = ring.coeffs.idempotent_decomposition()
    if dec.ell > 1 and draw(st.booleans()):
        j = draw(st.integers(0, dec.ell - 1))
        other = other + other.scale(ring.coeffs.from_fdelta(dec.idempotents[j]))
    return (ring, row, other) if draw(st.booleans()) else (ring, other, row)


@settings(max_examples=120, deadline=None)
@given(ring_and_row_pair())
def test_one_row_products_match_references(data):
    ring, a, b = data
    prod = a * b
    assert (prod.window, prod.pole_bound, prod.pole_set) == (
        (b * a).window, (b * a).pole_bound, (b * a).pole_set
    )
    got = flat(prod)
    assert all(within(k, prod.window) for k in got)
    if ring.coeffs.N == 1:
        assert got == dense_reference(a, b, prod.window)
    assert got == pair_loop_reference(a, b, prod.window)
    # every stored vector is its own array, not a view of a batch
    assert all(v.base is None for c in prod.support.values() for v in c.num.values())


def test_one_row_products_vanish_on_zero_divisors():
    ring = ring_for(3, [2, 2], ds=[1, 0], prec=6)
    alg = ring.coeffs
    e0, e1 = (alg.from_fdelta(e) for e in alg.idempotent_decomposition().idempotents)
    t = alg.t(alg.tsymbols[0])
    row = ring.monomial((1, 0), e0 * t)
    other = ring.monomial((0, 1), e1) + ring.monomial((2, 2), e0 + e1)
    prod = row * other
    assert set(prod.support) == {(3, 2)}  # the X_b term's product vanishes
    assert prod.support[(3, 2)] == e0 * t
    assert not (row * ring.monomial((0, 1), e1 * t)).support


EXP_TEXT = "exponent out of range: exponents must lie in [-2^62, 2^62]"


def test_one_row_products_refuse_exponents_past_the_bound():
    ring = ring_for(2, [1, 1], ds=[1, 0], prec=4)
    alg = ring.coeffs
    big = ring.monomial((2**62, 0))
    low = ring.monomial((-(2**62), 0))
    t_big = ring.constant(alg.t(alg.tsymbols[0]) ** 2**62)
    for a, b in [
        (big, big), (big, ring.one() + ring.var(0)), (low, ring.monomial((-1, 1))),
        (t_big, t_big + ring.var(1)),
    ]:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError) as exc:
                x * y
            assert str(exc.value) == EXP_TEXT
    # 2^62 itself is kept, and a term past a finite window is dropped first
    kept = big * (ring.one() + ring.var(1))
    assert set(kept.support) == {(2**62, 0), (2**62, 1)}
    assert not (big * ring.var(0).truncated((0, INF))).support


def test_one_row_products_make_no_kernel_call(monkeypatch):
    from phigamma import CoefficientAlgebra

    calls = []
    kernel = CoefficientAlgebra.mul_rows

    def counted(self, *args, **kwargs):
        calls.append(1)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(CoefficientAlgebra, "mul_rows", counted)
    ring = ring_for(3, [2, 1], ds=[1, 0], prec=6)
    alg = ring.coeffs
    c = (alg.gen(0) + alg.one()) * alg.t(alg.tsymbols[0])
    row = ring.monomial((1, -1), c)
    dense = ring.one() + ring.var(0) * ring.constant(alg.gen(0) + alg.t(alg.tsymbols[0]))
    for a, b in [(row, row), (row, dense), (dense, row), (ring.var(0), ring.var(1))]:
        a * b
    dense.scale(alg.gen(0))
    alg.gen(0) * (alg.one() + alg.t(alg.tsymbols[0]))  # a one-term numerator
    assert not calls
    dense * dense
    assert calls
