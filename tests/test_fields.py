import random

import pytest

from phigamma.coeff import FiniteFieldSpec
from phigamma.fields import (
    factor_squarefree,
    find_irreducible,
    is_irreducible,
    multiplicative_order,
    poly_gcd,
    poly_mul,
    power,
)

# FiniteFieldSpec.default(p, n).modulus for n = 1..8, as first recorded; a
# change to the search or to its random draws shows here
DEFAULT_MODULI = {
    2: [
        (0, 1), (1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0, 1), (1, 1, 0, 1, 1, 1),
        (1, 1, 0, 0, 0, 0, 1), (1, 0, 1, 1, 1, 0, 0, 1),
        (1, 1, 0, 0, 0, 1, 1, 0, 1),
    ],
    3: [
        (0, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 0, 1), (2, 1, 2, 1, 1, 1),
        (1, 2, 2, 1, 0, 0, 1), (1, 1, 1, 2, 0, 2, 2, 1),
        (2, 0, 1, 0, 1, 0, 2, 0, 1),
    ],
    5: [
        (0, 1), (3, 3, 1), (2, 1, 3, 1), (1, 4, 4, 1, 1), (1, 1, 0, 4, 1, 1),
        (3, 4, 0, 3, 4, 4, 1), (1, 1, 0, 2, 3, 2, 1, 1),
        (4, 1, 1, 3, 1, 1, 3, 2, 1),
    ],
    7: [
        (0, 1), (5, 4, 1), (1, 4, 0, 1), (4, 3, 4, 3, 1), (1, 6, 6, 3, 5, 1),
        (4, 6, 4, 0, 5, 0, 1), (2, 0, 1, 1, 1, 3, 6, 1),
        (3, 1, 3, 0, 6, 3, 6, 0, 1),
    ],
}


@pytest.mark.parametrize("p", sorted(DEFAULT_MODULI))
def test_default_moduli_are_pinned(p):
    got = [FiniteFieldSpec.default(p, n).modulus for n in range(1, 9)]
    assert got == DEFAULT_MODULI[p]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4)])
def test_find_irreducible_is_irreducible(p, n):
    mod = find_irreducible(p, n, random.Random(1))
    assert len(mod) == n + 1
    assert is_irreducible(p, mod)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_squarefree_recombines(p):
    rng = random.Random(7)
    checked = 0
    while checked < 12:
        deg = rng.randrange(2, 6)
        poly = [rng.randrange(p) for _ in range(deg)] + [1]
        if poly[0] == 0:
            poly[0] = 1
        # only squarefree inputs are in scope: gcd(f, f') must be constant
        deriv = [i * c for i, c in enumerate(poly)][1:]
        if len(poly_gcd(p, poly, deriv)) != 1:
            continue
        checked += 1
        factors = factor_squarefree(p, poly)
        assert sum(len(f) - 1 for f in factors) == deg
        assert all(is_irreducible(p, f) for f in factors)
        # multiplying the factors back recovers the input
        prod = (1,)
        for f in factors:
            prod = poly_mul(p, prod, f)
        assert prod == tuple(poly)


def test_power_and_multiplicative_order():
    assert power(3, 0, 1, lambda a, b: a * b) == 1
    assert [power(3, n, 1, lambda a, b: a * b % 101) for n in range(40)] == [
        pow(3, n, 101) for n in range(40)
    ]
    for p in (2, 3, 7, 13):
        for a in range(1, p):
            k = multiplicative_order(a, p)
            assert pow(a, k, p) == 1
            assert all(pow(a, j, p) != 1 for j in range(1, k))
    with pytest.raises(ValueError):
        multiplicative_order(13, 13)
