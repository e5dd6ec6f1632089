import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alg_for, ring_for
from phigamma import (
    CoefficientAlgebra,
    algebra_from_json,
    algebra_to_json,
    element_from_json,
    element_to_json,
    phi_orbit_transitivity,
    tensor_idempotents,
)
from phigamma import gfp
from phigamma.coeff import MAX_FINITE_DIM, frob_trace
from phigamma.fields import find_irreducible
from phigamma.oracles import OracleCapError, crt_split


@pytest.mark.parametrize(
    "p,degs,ell",
    [
        (2, [1, 1], 1),
        (2, [2, 2], 2),
        (3, [2, 2], 2),
        (2, [2, 3], 1),
        (5, [2, 2], 2),
        (2, [2, 2, 2], 4),
    ],
)
def test_idempotent_count_and_transitivity(p, degs, ell):
    dec = tensor_idempotents(alg_for(p, degs))
    assert dec.ell == ell
    orbits, transitive = phi_orbit_transitivity(dec)
    assert transitive
    assert len(orbits) == 1


def _seeded_alg(p, degs, seed):
    """The default moduli for seed None, else irreducibles drawn from seed."""
    if seed is None:
        return alg_for(p, degs)
    rng = random.Random(seed)
    return CoefficientAlgebra(
        p, [{"n": n, "modulus": find_irreducible(p, n, rng)} for n in degs]
    )


@pytest.mark.parametrize(
    "p,degs",
    [
        (2, [2, 2]), (3, [2, 3]), (2, [2, 3, 2]), (5, [4, 2]),
        (7, [1, 1, 1]), (7, [2, 3]),  # one component
        (2, [4, 4, 4]), (3, [4, 4, 4]), (5, [4, 4, 4]),  # sixteen components
    ],
)
def test_idempotents_match_oracle(p, degs):
    for seed in (None, 1):
        alg = _seeded_alg(p, degs, seed)
        dec = tensor_idempotents(alg)
        oracle = crt_split(p, [list(s.base.modulus) for s in alg.factors])
        assert dec.component_degrees == tuple(oracle["component_degrees"])
        assert dec.frobenius_permutations == oracle["frobenius_permutations"]
        assert len(oracle["idempotents"]) == dec.ell
        for mine, theirs in zip(dec.idempotents, oracle["idempotents"]):
            assert mine.dtype == np.int64
            assert np.array_equal(mine, np.asarray(theirs) % p)


# the oracle enumerates p^n candidate roots per factor, up to 2^16
ORACLE_DEGREES = {2: 16, 3: 10, 5: 6, 7: 5}


@st.composite
def oracle_algebras(draw):
    """p, one to four degrees with N <= 64 and each p^n within the oracle's
    root cap, and a seed for the irreducible moduli."""
    p = draw(st.sampled_from(sorted(ORACLE_DEGREES)))
    degs = []
    for _ in range(draw(st.integers(1, 4))):
        room = 64 // math.prod(degs)
        degs.append(draw(st.integers(1, min(room, ORACLE_DEGREES[p]))))
    return p, degs, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(oracle_algebras())
def test_idempotents_match_oracle_fuzz(case):
    p, degs, seed = case
    alg = _seeded_alg(p, degs, seed)
    dec = tensor_idempotents(alg)
    oracle = crt_split(p, [list(s.base.modulus) for s in alg.factors])
    assert dec.component_degrees == tuple(oracle["component_degrees"])
    assert dec.frobenius_permutations == oracle["frobenius_permutations"]
    assert len(dec.idempotents) == len(oracle["idempotents"])
    for mine, theirs in zip(dec.idempotents, oracle["idempotents"]):
        assert np.array_equal(mine, np.asarray(theirs) % p)


@pytest.mark.parametrize(
    "p,degs",
    [(3, [2, 4, 8]), (3, [8, 4, 2]), (2, [4, 6, 10]), (5, [3, 6, 4]), (7, [2, 1, 2]),
     (2, [5]), (3, [2, 2, 2, 2])],
)
def test_frob_trace_is_the_sum_of_frobenius_powers(p, degs):
    # the CRT-grouped fold against sum_{k<L} Frob_s^k by repeated products,
    # and its image against A = ker(Frob_s - 1) from a nullspace
    alg = _seeded_alg(p, degs, 6)
    F, N = alg.frob_s_matrix, alg.N
    total, power_k = np.zeros((N, N), dtype=np.int64), np.eye(N, dtype=np.int64)
    for _ in range(math.lcm(*degs)):
        total = (total + power_k) % p
        power_k = F @ power_k % p
    assert np.array_equal(power_k, np.eye(N, dtype=np.int64))  # Frob_s^L = 1
    trace = frob_trace(p, alg._frobs)
    assert trace.dtype == np.int64 and np.array_equal(trace, total)
    R, pivots = gfp.rref(trace.T, p)
    fixed = gfp.nullspace((F - np.eye(N, dtype=np.int64)) % p, p)
    R_fixed, pivots_fixed = gfp.rref(fixed, p)
    assert pivots == pivots_fixed and np.array_equal(R[: len(pivots)], R_fixed)


def test_split_reads_only_the_factor_tables():
    # no N x N^2 product map and no N x N Frobenius matrix on the split
    # path; a series kernel builds the map on first use
    lazy = {"_mul_map", "frob_matrices", "frob_s_matrix"}
    alg = alg_for(2, [4, 4, 4, 4])
    assert tensor_idempotents(alg).ell == 64
    assert not lazy & set(vars(alg))
    assert all(T.shape == (4, 4, 4) for T in alg._tables)
    alg = alg_for(3, [2, 3])
    x = alg.fd_gen(0)
    assert np.array_equal(alg.fd_mul(x, alg.fd_one()), x)
    assert alg._mul_map.shape == (6, 36) and "_mul_map" in vars(alg)


@pytest.mark.parametrize("degs", [[4] * 5, [257], [2, 129], [16, 16, 2]])
def test_finite_part_size_is_bounded(degs):
    assert math.prod(degs) > MAX_FINITE_DIM
    with pytest.raises(ValueError, match=f"exceeds {MAX_FINITE_DIM}"):
        alg_for(2, degs)


def _schoolbook_frob(alg, x, alpha):
    """The partial Frobenius y_alpha -> y_alpha^p, by univariate reduction."""
    p, degs = alg.p, alg.degrees
    n, mod = degs[alpha], alg.factors[alpha].base.modulus
    power = [1] + [0] * (n - 1)  # y^(p k) mod the modulus, for k = 0, 1, ...
    images = []
    for _ in range(n):
        images.append(list(power))
        for _ in range(p):  # multiply by y and reduce
            top = power[-1]
            power = [0] + power[:-1]
            power = [(c - top * m) % p for c, m in zip(power, mod)]
    out = np.zeros(alg.N, dtype=np.int64)
    for e in itertools.product(*(range(d) for d in degs)):
        c = int(x[np.ravel_multi_index(e, degs)])
        for j, a in enumerate(images[e[alpha]]):
            idx = np.ravel_multi_index(e[:alpha] + (j,) + e[alpha + 1 :], degs)
            out[idx] = (out[idx] + c * a) % p
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_idempotents_248_beyond_oracle_caps(p):
    # crt_split refuses these (p^8 > 2^16 candidate roots); the split is
    # checked with products and Frobenius images computed by nested loops.
    # F is GF(p^8)^8, so 8 nonzero orthogonal idempotents summing to 1 are
    # necessarily its primitive ones.
    alg = _seeded_alg(p, [2, 4, 8], 3)
    dec = tensor_idempotents(alg)
    assert dec.ell == 8 and dec.component_degrees == (8,) * 8
    _assert_primitive_split(alg, dec, lambda x, alpha: _schoolbook_frob(alg, x, alpha))
    keys = [tuple(e.tolist()) for e in dec.idempotents]
    assert keys == sorted(keys)


def _assert_primitive_split(alg, dec, frob):
    """Nonzero orthogonal idempotents summing to 1, by schoolbook products,
    that ``frob(x, alpha)`` permutes as the decomposition says."""
    es, p = dec.idempotents, alg.p
    assert not np.any(sum(es) % p - alg.fd_one())
    for i, e in enumerate(es):
        assert np.any(e)
        assert np.array_equal(_schoolbook_mul(alg, e, e), e)
        for f in es[i + 1 :]:
            assert not np.any(_schoolbook_mul(alg, e, f))
        for alpha, perm in enumerate(dec.frobenius_permutations):
            assert np.array_equal(frob(e, alpha), es[perm[i]])


@pytest.mark.parametrize(
    "p,degs", [(2, [2, 2, 2]), (3, [2, 2, 4]), (5, [4, 2]), (7, [2, 3]), (2, [2, 4, 8])]
)
def test_degrees_per_orbit_match_rank_per_idempotent(p, degs):
    # the degrees are read off the Frobenius orbit; the rank of
    # multiplication by each idempotent is the reference
    alg = _seeded_alg(p, degs, 4)
    dec = tensor_idempotents(alg)
    assert dec.ell == alg.N // math.lcm(*degs)
    assert dec.component_degrees == tuple(
        gfp.rank(alg.fd_mul_matrix(e), p) for e in dec.idempotents
    )


def _frob_by_substitution(alg, alpha):
    """The matrix of the partial Frobenius as the substitution
    y_alpha -> y_alpha^p on monomials, with y_alpha^p from fd_pow."""
    gens = [alg.fd_gen(beta) for beta in range(alg.nvars)]
    gens[alpha] = alg.fd_pow(gens[alpha], alg.p)
    cols = []
    for e in itertools.product(*(range(n) for n in alg.degrees)):
        col = alg.fd_one()
        for g, k in zip(gens, e):
            col = alg.fd_mul(col, alg.fd_pow(g, k))
        cols.append(col)
    return np.array(cols).T


@pytest.mark.parametrize("p,degs", [(8191, [4, 4, 2]), (1000003, [2, 2])])
def test_idempotents_at_large_p(p, degs):
    alg = alg_for(p, degs)
    with pytest.raises(OracleCapError):
        crt_split(p, [list(s.base.modulus) for s in alg.factors])
    dec = tensor_idempotents(alg)
    L = math.lcm(*degs)
    assert dec.ell == alg.N // L and dec.component_degrees == (L,) * dec.ell
    frobs = [_frob_by_substitution(alg, alpha) for alpha in range(alg.nvars)]
    _assert_primitive_split(alg, dec, lambda x, alpha: frobs[alpha] @ x % p)


def test_split_cost_does_not_grow_with_p(monkeypatch):
    # no loop over GF(p): the split makes the same gfp calls for every p
    calls = []
    for name in ("rref", "nullspace", "solve", "inv_matrix", "rank"):
        f = getattr(gfp, name)
        monkeypatch.setattr(gfp, name, lambda *a, f=f: calls.append(f) or f(*a))
    counts = []
    for p in (7, 8191, 1000003):
        alg = alg_for(p, [2, 2])
        calls.clear()
        tensor_idempotents(alg)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


def test_idempotents_orthogonal_and_complete():
    alg = alg_for(2, [2, 2])
    dec = tensor_idempotents(alg)
    es = [alg.from_fdelta(e) for e in dec.idempotents]
    total = alg.zero()
    for i, e in enumerate(es):
        assert (e * e - e).is_zero()
        for j, f in enumerate(es):
            if i != j:
                assert (e * f).is_zero()
        total = total + e
    assert (total - alg.one()).is_zero()


def _schoolbook_mul(alg, x, y):
    """x * y in GF(p)[y_1..y_s]/(moduli) by nested loops over Python ints."""
    degs = alg.degrees
    full = {}
    for a in itertools.product(*(range(n) for n in degs)):
        for b in itertools.product(*(range(n) for n in degs)):
            e = tuple(i + j for i, j in zip(a, b))
            xa = int(x[np.ravel_multi_index(a, degs)])
            yb = int(y[np.ravel_multi_index(b, degs)])
            full[e] = full.get(e, 0) + xa * yb
    for i, (n, spec) in enumerate(zip(degs, alg.factors)):
        for k in range(2 * n - 2, n - 1, -1):  # y_i^k = -sum_j m_j y_i^(k-n+j)
            for e in [e for e in full if e[i] == k]:
                c = full.pop(e)
                for j, m in enumerate(spec.base.modulus[:-1]):
                    low = e[:i] + (k - n + j,) + e[i + 1 :]
                    full[low] = full.get(low, 0) - c * m
    out = np.zeros(alg.N, dtype=np.int64)
    for e, c in full.items():
        out[np.ravel_multi_index(e, degs)] = c % alg.p
    return out


@pytest.mark.parametrize(
    "p,degs",
    [(7, [1]), (3, [2, 3]), (5, [4, 4, 4]), (8191, [4, 4, 2]), (94906249, [1]),
     (1000003, [2, 2, 2, 2])],
)
def test_fd_mul_matches_schoolbook(p, degs):
    # 94906249 is the largest prime with N * (p-1)^2 < 2^53 at N = 1; at
    # 1000003 a product of four table entries passes 2^63 unless the
    # tensor product of the factor tables is reduced between factors
    alg = alg_for(p, degs)
    rng = random.Random(17)
    for _ in range(4):
        x, y = alg.fd_random(rng), alg.fd_random(rng)
        prod = alg.fd_mul(x, y)
        assert prod.dtype == np.int64
        assert np.array_equal(prod, _schoolbook_mul(alg, x, y))
        assert np.array_equal(alg.fd_mul_matrix(x) @ y % p, prod)


@pytest.mark.parametrize("p", [2, 3, 7, 8191])
@pytest.mark.parametrize("degs", [[1, 2, 1], [3, 2], [2, 4, 8]])
def test_frobenius_tables_match_schoolbook(p, degs):
    alg = _seeded_alg(p, degs, 5)
    rng = random.Random(23)  # every coordinate nonzero, so every column counts
    x = np.array([rng.randrange(1, p) for _ in range(alg.N)], dtype=np.int64)
    product = np.eye(alg.N, dtype=np.int64)
    for alpha, frob in enumerate(alg.frob_matrices):
        assert frob.dtype == np.int64
        assert np.array_equal(frob @ x % p, _schoolbook_frob(alg, x, alpha))
        product = frob @ product % p
    assert np.array_equal(alg.frob_s_matrix, product)


@pytest.mark.parametrize(
    "p,degs", [(1000003, [2, 2]), (1000003, [2, 2, 2, 2]), (94906249, [1])]
)
def test_absolute_frobenius_is_the_pth_power(p, degs):
    # the tables take y^p by square-and-multiply, where p is far too large
    # to step through y^k
    alg = alg_for(p, degs)
    rng = random.Random(29)
    for _ in range(3):
        x = alg.fd_random(rng)
        assert np.array_equal(alg.frob_s_matrix @ x % p, alg.fd_pow(x, p))


def test_fd_mul_refuses_inexact_sizes():
    with pytest.raises(ValueError, match="2\\^53"):
        alg_for(94906297, [1])  # the next prime: (p-1)^2 > 2^53


@pytest.mark.parametrize("p,degs,ds", [(2, [2, 2], [1, 0]), (3, [1, 2], [1, 1])])
def test_ring_axioms_random(p, degs, ds):
    alg = alg_for(p, degs, ds)
    rng = random.Random(3)
    for _ in range(25):
        a = alg.random_element(rng, tdeg=2, terms=3)
        b = alg.random_element(rng, tdeg=2, terms=3)
        c = alg.random_element(rng, tdeg=2, terms=3)
        assert ((a + b) * c - (a * c + b * c)).is_zero()
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * b - b * a).is_zero()
        assert (a + (-a)).is_zero()


@pytest.mark.parametrize("p,degs,ds", [(2, [2, 2], [1, 0]), (3, [2, 1], [0, 1])])
def test_partial_frobenii_commute_and_compose(p, degs, ds):
    alg = alg_for(p, degs, ds)
    rng = random.Random(5)
    for _ in range(10):
        a = alg.random_element(rng, tdeg=2, terms=3)
        f01 = a.frobenius(0).frobenius(1)
        f10 = a.frobenius(1).frobenius(0)
        assert (f01 - f10).is_zero()
        assert (a.frobenius_s() - a**p).is_zero()


def test_frobenius_moves_t_and_finite_part():
    alg = alg_for(2, [2, 1], [0, 1])
    t = alg.t(alg.tsymbols[0])  # owned by the second factor
    assert (t.frobenius(1) - t * t).is_zero()
    assert (t.frobenius(0) - t).is_zero()
    g = alg.gen(0)
    assert (g.frobenius(0) - g * g).is_zero()
    assert (g.frobenius(1) - g).is_zero()


def test_unit_verdicts():
    alg = alg_for(2, [2, 2], [1, 0])
    t = alg.t(alg.tsymbols[0])
    assert t.unit_verdict() == "unit"
    assert (t.invert() * t - alg.one()).is_zero()
    g = alg.gen(1)
    mixed = t + g * t * t
    assert mixed.unit_verdict() == "unit"
    assert (mixed.invert() * mixed - alg.one()).is_zero()
    assert alg.zero().unit_verdict() == "zero_divisor_or_zero"
    dec = alg.idempotent_decomposition()
    e0 = alg.from_fdelta(dec.idempotents[0])
    assert e0.unit_verdict() == "zero_divisor_or_zero"


def test_json_roundtrip():
    alg = alg_for(3, [2, 1], [1, 1])
    restored = algebra_from_json(algebra_to_json(alg))
    assert restored.same_as(alg)
    rng = random.Random(11)
    for _ in range(10):
        a = alg.random_element(rng, tdeg=2, terms=3)
        b = a * alg.t(alg.tsymbols[0]).invert()
        for x in (a, b):
            back = element_from_json(restored, element_to_json(x))
            assert (back - x).is_zero()


def test_ring_and_series_spec_helpers():
    ring = ring_for(2, [2, 2], prec=6)
    assert ring.coeffs.N == 4
    assert ring.precision == (6, 6)


def test_label_index():
    alg = alg_for(2, [2, 2])
    assert alg.label_index("b") == 1
    with pytest.raises(ValueError, match="^unknown label 'z'; labels are a, b$"):
        alg.label_index("z")
    data = element_to_json(alg.one())
    data["denominator"] = [{"alpha": "z", "poly": [{"coeff": 1, "monomial": {}}]}]
    with pytest.raises(ValueError, match="^unknown label 'z'"):
        element_from_json(alg, data)
