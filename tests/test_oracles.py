import random

import numpy as np
import pytest

from conftest import alg_for, ring_for
from phigamma import tensor_idempotents
from phigamma.oracles import (
    DensePolynomial,
    OracleCapError,
    crt_split,
    dense_mul,
    dense_substitute,
    exhaustive_fixed_points,
    exhaustive_inverse_search,
)


def test_caps_raise():
    with pytest.raises(OracleCapError, match="^degree cap exceeded"):
        crt_split(2, [[1] * 20, [1] * 20, [1] * 20])  # 19^3 components
    with pytest.raises(OracleCapError, match="enumeration cap"):
        # y^17 + y^3 + 1 is irreducible over GF(2): 2^17 candidate roots
        crt_split(2, [[1, 0, 0, 1] + [0] * 13 + [1]])
    with pytest.raises(OracleCapError, match="root field cap"):
        # irreducible factors of degrees 5, 7 and 9 over GF(2): deg G = 315
        quintic = [1, 0, 1, 0, 0, 1]
        septic = [1, 1, 0, 0, 0, 0, 0, 1]
        nonic = [1, 0, 0, 0, 1, 0, 0, 0, 0, 1]
        crt_split(2, [list(np.convolve(np.convolve(quintic, septic), nonic) % 2)])
    with pytest.raises(OracleCapError):
        exhaustive_fixed_points(2, 25, [])
    ring = ring_for(2, [2, 2], prec=8)
    with pytest.raises(OracleCapError):
        exhaustive_inverse_search(ring.one(), 32)


@pytest.mark.parametrize("p,degs", [(2, [2, 2]), (3, [2, 2]), (2, [3, 2])])
def test_crt_split_idempotent_axioms(p, degs):
    alg = alg_for(p, degs)
    moduli = [list(s.base.modulus) for s in alg.factors]
    oracle = crt_split(p, moduli)
    es = [alg.from_fdelta(list(e)) for e in oracle["idempotents"]]
    total = alg.zero()
    for i, e in enumerate(es):
        assert (e * e - e).is_zero()
        for j, f in enumerate(es):
            if i != j:
                assert (e * f).is_zero()
        total = total + e
    assert (total - alg.one()).is_zero()
    assert sum(oracle["component_degrees"]) == alg.N
    # and it matches the production splitting
    dec = tensor_idempotents(alg)
    assert tuple(dec.component_degrees) == tuple(oracle["component_degrees"])


def test_dense_mul_matches_sparse():
    ring = ring_for(3, [1, 1], prec=4)
    rng = random.Random(6)
    shape = (4, 4)
    for _ in range(10):
        terms_a = {
            (rng.randrange(2), rng.randrange(2)): rng.randrange(1, 3)
            for _ in range(3)
        }
        terms_b = {
            (rng.randrange(2), rng.randrange(2)): rng.randrange(1, 3)
            for _ in range(3)
        }
        da = DensePolynomial.from_terms(3, shape, terms_a)
        db = DensePolynomial.from_terms(3, shape, terms_b)
        sa = sum((ring.monomial(e, c) for e, c in terms_a.items()), ring.zero())
        sb = sum((ring.monomial(e, c) for e, c in terms_b.items()), ring.zero())
        prod = sa * sb
        dense = dense_mul(da, db)
        sparse_terms = {
            e: int(c.constant_fd()[0]) for e, c in prod.support.items()
        }
        assert dense.terms() == {e: v for e, v in sparse_terms.items() if v}


def test_dense_substitute_frobenius():
    # substituting X -> X^2 matches the dense square map on F_2
    p = 2
    shape = (8,)
    a = DensePolynomial.from_terms(p, shape, {(0,): 1, (1,): 1, (3,): 1})
    img = DensePolynomial.from_terms(p, shape, {(2,): 1})
    sub = dense_substitute(a, [img])
    assert sub.terms() == {(0,): 1, (2,): 1, (6,): 1}


def test_exhaustive_fixed_points_linear():
    p = 3
    M = np.array([[1, 1], [0, 1]], dtype=np.int64)
    fixed = exhaustive_fixed_points(p, 2, [lambda v: (M @ v) % p])
    # (M - I)v = 0 forces v[1] = 0
    assert sorted(tuple(v) for v in fixed) == [(0, 0), (1, 0), (2, 0)]


def test_exhaustive_inverse_agrees_with_invert():
    ring = ring_for(2, [2], prec=6)
    g = ring.constant(ring.coeffs.gen(0))
    u = ring.one() + g * ring.var(0)
    exists, inv = exhaustive_inverse_search(u, 5)
    assert exists
    assert inv.eq_window(u.invert().truncated(5))
    exists, _ = exhaustive_inverse_search(ring.var(0), 5)
    assert not exists
