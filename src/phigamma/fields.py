"""Arithmetic over the prime field GF(p): univariate polynomials, their
irreducibility and factorization, and the square-and-multiply and
multiplicative-order helpers the other modules share.

The library tests and picks its irreducible moduli here, and the
CRT-splitting oracle factors its moduli over GF(p) here and takes the
prime-power-degree irreducibles behind its root field from the same search.
All of this is desk scale: degrees of a handful, dense tuple-based
polynomials.

A polynomial is a tuple of ints in [0, p), low degree first, with no
trailing zeros (the zero polynomial is the empty tuple).
"""

from __future__ import annotations

import random


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def power(x, n: int, one, mul):
    """x^n for n >= 0 by square-and-multiply: ``one`` is the unit and
    ``mul`` the product of whatever ring x lives in."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


def multiplicative_order(a: int, p: int) -> int:
    """The order of a nonzero a in GF(p)^*."""
    if a % p == 0:
        raise ValueError("0 has no multiplicative order")
    order, x = 1, a % p
    while x != 1:
        x = x * a % p
        order += 1
    return order


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p)


def poly_normalize(p, f):
    f = [c % p for c in f]
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def poly_add(p, f, g):
    n = max(len(f), len(g))
    return poly_normalize(
        p, [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]
    )


def poly_sub(p, f, g):
    return poly_add(p, f, tuple(-x for x in g))


def poly_mul(p, f, g):
    f = poly_normalize(p, f)
    g = poly_normalize(p, g)
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly_normalize(p, out)


def poly_scale(p, c, f):
    return poly_normalize(p, [c * x for x in f])


def poly_divmod(p, f, g):
    f = list(poly_normalize(p, f))
    g = poly_normalize(p, g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - len(g) + 1)
    while len(f) >= len(g):
        c = f[-1] * lead_inv % p
        d = len(f) - len(g)
        q[d] = c
        for i, gc in enumerate(g):
            f[d + i] = (f[d + i] - c * gc) % p
        while f and not f[-1]:
            f.pop()
    return poly_normalize(p, q), tuple(f)


def poly_gcd(p, f, g):
    """The monic gcd (the empty tuple when both are zero)."""
    f = poly_normalize(p, f)
    g = poly_normalize(p, g)
    while g:
        _, r = poly_divmod(p, f, g)
        f, g = g, r
    if f:
        f = poly_scale(p, pow(f[-1], -1, p), f)
    return f


def poly_xgcd(p, f, g):
    """Extended gcd: returns (d, s, t) with s f + t g = d."""
    r0, r1 = poly_normalize(p, f), poly_normalize(p, g)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = poly_divmod(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(p, s0, poly_mul(p, q, s1))
        t0, t1 = t1, poly_sub(p, t0, poly_mul(p, q, t1))
    return r0, s0, t0


def poly_pow_mod(p, f, n: int, m):
    """f^n mod m."""
    return power(
        poly_divmod(p, f, m)[1], n, (1,),
        lambda a, b: poly_divmod(p, poly_mul(p, a, b), m)[1],
    )


def poly_eval(p, f, x):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def is_irreducible(p, f) -> bool:
    """Rabin irreducibility test for a monic polynomial over GF(p)."""
    f = poly_normalize(p, f)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = (0, 1)
    # x^(p^n) == x mod f, and x^(p^(n/l)) != x for all prime divisors l of n
    xq = poly_pow_mod(p, x, p**n, f)
    if poly_sub(p, xq, x):
        return False
    for ell in {d for d in range(2, n + 1) if n % d == 0 and is_prime(d)}:
        xq = poly_pow_mod(p, x, p ** (n // ell), f)
        g = poly_gcd(p, poly_sub(p, xq, x), f)
        if len(g) != 1:
            return False
    return True


def find_irreducible(p, degree: int, rng: random.Random | None = None):
    """A monic irreducible polynomial of the given degree over GF(p)."""
    if not is_prime(p):
        # over Z/p the search may fail on a non-unit or, for p < 2, never end
        raise ValueError(f"p = {p} is not prime")
    if degree == 1:
        return (0, 1)
    rng = rng or random.Random(0)
    while True:
        f = tuple(rng.randrange(p) for _ in range(degree)) + (1,)
        if is_irreducible(p, f):
            return f


# ---------------------------------------------------------------------------
# factorization (squarefree inputs; used on separable moduli only)


def distinct_degree_factor(p, f):
    """Partition a squarefree monic f into products of equal-degree parts.

    Returns a list of (d, g) with g the product of irreducible factors of
    degree d.
    """
    out = []
    f = poly_normalize(p, f)
    f = poly_scale(p, pow(f[-1], -1, p), f)
    x = (0, 1)
    h = x
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            out.append((len(f) - 1, f))
            break
        h = poly_pow_mod(p, h, p, f)
        g = poly_gcd(p, poly_sub(p, h, x), f)
        if len(g) > 1:
            out.append((d, g))
            f, _ = poly_divmod(p, f, g)
    return out


def equal_degree_factor(p, f, d, rng: random.Random):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    f = poly_normalize(p, f)
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = poly_normalize(p, [rng.randrange(p) for _ in range(n)])
        if len(a) <= 1:
            continue
        g = poly_gcd(p, a, f)
        if 1 < len(g) < len(f):
            break
        if p == 2:
            # trace map: a + a^2 + a^4 + ... over GF(2^d)
            b = a
            t = a
            for _ in range(d - 1):
                b = poly_pow_mod(p, b, 2, f)
                t = poly_add(p, t, b)
            g = poly_gcd(p, t, f)
        else:
            b = poly_pow_mod(p, a, (p**d - 1) // 2, f)
            g = poly_gcd(p, poly_sub(p, b, (1,)), f)
        if 1 < len(g) < len(f):
            break
    rest, _ = poly_divmod(p, f, g)
    return equal_degree_factor(p, g, d, rng) + equal_degree_factor(p, rest, d, rng)


def factor_squarefree(p, f, rng: random.Random | None = None):
    """All monic irreducible factors of a squarefree monic polynomial."""
    rng = rng or random.Random(12345)
    f = poly_normalize(p, f)
    deriv = [i * c for i, c in enumerate(f)][1:]
    if len(poly_gcd(p, f, deriv)) != 1:
        raise ValueError("polynomial is not squarefree")
    out = []
    for d, g in distinct_degree_factor(p, f):
        out.extend(equal_degree_factor(p, g, d, rng))
    out.sort(key=lambda h: (len(h), h))
    return out
