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


# ---------------------------------------------------------------------------
# the row block of a series and its support view


def _same(x, y):
    """Equal stored terms (rows, or the dict form's JSON) and metadata."""
    from phigamma.series import laurent_to_json

    if x.meta() != y.meta() or laurent_to_json(x) != laurent_to_json(y):
        return False
    if x.keys is None or y.keys is None:
        return x.keys is None and y.keys is None
    return np.array_equal(x.keys, y.keys) and np.array_equal(x.vecs, y.vecs)


def _assert_block_form(x):
    """Unique rows in block order (sorted by key), nonzero reduced vectors,
    X-exponents within the window."""
    ring = x.ring
    rows = x.keys.tolist()
    assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
    assert x.keys.dtype == x.vecs.dtype == np.int64
    assert x.vecs.shape == (len(rows), ring.coeffs.N)
    assert all(v.any() for v in x.vecs)
    assert ((0 <= x.vecs) & (x.vecs < ring.coeffs.p)).all()
    assert all(within((tuple(k[: ring.nvars]), ()), x.window) for k in rows)


@st.composite
def element_and_rebuild(draw):
    """A drawn series (t-rows, poles, finite and infinite windows), for a
    ring with transcendentals optionally times a fraction 1/(1 + t), with
    its rebuild from ``support`` through the public constructor."""
    ring, a, b = draw(ring_and_pair())
    alg = ring.coeffs
    if alg.tsymbols and draw(st.booleans()):
        a = a.scale((alg.one() + alg.t(alg.tsymbols[0])).try_invert())
    rebuilt = LaurentElement(ring, dict(a.support), a.pole_bound, a.window, a.pole_set)
    return ring, a, rebuilt, b


@settings(max_examples=60, deadline=None)
@given(element_and_rebuild())
def test_row_block_matches_its_support_view(data):
    from phigamma import PAdicUnitApprox, make_delta, make_gamma, make_phi

    ring, a, rebuilt, b = data
    alg = ring.coeffs
    fraction = any(c.den for c in a.support.values())
    assert (a.keys is None) == fraction  # only a fraction keeps the dict form
    assert _same(a, rebuilt)
    if not fraction:
        _assert_block_form(a)
        assert a.support is a.support  # built once, on first read
        with pytest.raises(TypeError):
            a.support[(0,) * ring.nvars] = alg.one()  # read-only
    c = next(iter(b.support.values()), alg.one())
    shift = (1,) + (-1,) * (ring.nvars - 1)
    c_digits = PAdicUnitApprox(alg.p, 1 + alg.p, 3)
    endos = [make_phi(ring, 0), make_gamma(ring, ring.nvars - 1, c_digits)]
    if alg.tsymbols:
        endos.append(make_delta(ring, alg.t_owner[0], (1,)))
    for x in (a, rebuilt):
        results = [
            x + b, b + x, x - b, x * b, b * x, x.scale(c), -x,
            x.monomial_shift(shift), x.truncated(2),
        ] + [endo.apply(x) for endo in endos]
        for y in results:
            if y.keys is not None:
                _assert_block_form(y)
        if x is a:
            first = results
        else:
            assert all(_same(y, z) for y, z in zip(first, results))
    assert a.eq_window(rebuilt) and rebuilt.eq_window(a)
    assert a.eq_window(b) == rebuilt.eq_window(b) == (not (a - b)._has_terms())


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(ring_and_pair(), ring_and_row_pair()),
    st.sampled_from(["other", "negated", "doubled", "own row"]),
    st.integers(1, 6),
)
def test_sums_match_a_term_by_term_reference(data, addend, k):
    # the block sums: disjoint blocks, a row inserted or added, cancellation
    # and the general grouping, against per-row sums mod p
    from phigamma import CoeffElement
    from phigamma.series import sum_meta

    ring, a, b = data
    alg = ring.coeffs
    if addend == "negated":
        b = -a
    elif addend == "doubled":
        b = a.scale(2)
    elif addend == "own row" and a.support:
        e, c = next(iter(a.support.items()))
        m, v = next(iter(c.num.items()))
        k = k % alg.p or 1  # k = p - 1 cancels the row
        b = ring.monomial(e, CoeffElement(alg, {m: v * k % alg.p}, ()))
    for s in (a + b, b + a):
        window, pole_bound, pole_set = sum_meta(ring, [a.meta(), b.meta()])
        assert s.meta() == (window, pole_bound, pole_set)
        ref = {}
        for x in (a, b):
            for key, v in flat(x).items():
                old = ref.get(key, (0,) * alg.N)
                ref[key] = tuple((y + z) % alg.p for y, z in zip(old, v))
        assert flat(s) == {
            key: v for key, v in ref.items() if any(v) and within(key, window)
        }
        _assert_block_form(s)


def test_packed_operations_build_no_coefficient_until_read(monkeypatch):
    # a product, a sum, a one-row product and a gamma apply of dense series
    # without fractions read and write row blocks only: no CoeffElement is
    # built until a support is read, and then once per term
    from phigamma import CoeffElement, PAdicUnitApprox, make_gamma

    ring = ring_for(3, [2, 1], ds=[1, 0], prec=6)
    alg = ring.coeffs
    t = alg.t(alg.tsymbols[0])
    dense = [
        sum(
            (ring.monomial((i, j), alg.gen(0) * (k + 1) + t ** ((i + j + k) % 2))
             for i in range(3) for j in range(3)),
            ring.zero(),
        ).truncated((4, 5))
        for k in range(2)
    ]
    built = []
    init = CoeffElement.__init__
    monkeypatch.setattr(
        CoeffElement, "__init__",
        lambda self, *args: built.append(1) or init(self, *args),
    )
    a, b = dense
    gamma = make_gamma(ring, 0, PAdicUnitApprox(3, 4, 3))
    outputs = [a * b, a + b, a - b, a * ring.var(1), gamma.apply(a), gamma.apply(a * b)]
    assert not built
    for out in outputs:
        assert out.keys is not None and len(out.keys) > 1
        support = out.support
        assert len(built) == len(support) and out.support is support
        built.clear()
