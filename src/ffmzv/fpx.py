"""Dense polynomials over a prime field F_p: the one kernel behind the
extension-field tables (`fields`) and the modular probe (`tmodule`).

A polynomial is a list or tuple of ints in range(p), constant term
first.  Moduli are monic.
"""
from __future__ import annotations


def _strip(a):
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return list(a[:n])


def mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return out


def mod(a, m, p):
    """a mod m for monic m, as a list of length deg(m)."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return (a + [0] * dm)[:dm]


def gcd(a, b, p):
    """Monic gcd (the empty list when both are zero)."""
    a, b = _strip(a), _strip(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        a = _strip(mod(a, [(c * inv) % p for c in b], p))
        a, b = b, a
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def xpow_pk(k, m, p):
    """x^(p^k) mod m, by k successive p-th powers."""
    cur = mod([0, 1], m, p)
    for _ in range(k):
        acc = mod([1], m, p)
        base = cur
        e = p
        while e:
            if e & 1:
                acc = mod(mul(acc, base, p), m, p)
            base = mod(mul(base, base, p), m, p)
            e >>= 1
        cur = acc
    return cur


def is_irreducible(m, p) -> bool:
    """Rabin's test for monic m of degree n: x^(p^n) = x mod m, and
    gcd(x^(p^(n/r)) - x, m) = 1 for every r > 1 dividing n (the prime
    r suffice; the others repeat a subfield already excluded)."""
    n = len(m) - 1
    if n < 1:
        return False
    x = mod([0, 1], m, p)

    def minus_x(f):
        return [(c - xc) % p for c, xc in zip(f, x)]

    if any(minus_x(xpow_pk(n, m, p))):
        return False
    return all(
        len(gcd(minus_x(xpow_pk(n // r, m, p)), m, p)) == 1
        for r in range(2, n + 1)
        if n % r == 0
    )


def reduction_table(m, p):
    """red[j] = x^(deg+j) mod m for j = 0..deg-2, the table `mul_reduce`
    folds high product coefficients with."""
    deg = len(m) - 1
    return tuple(
        tuple(mod([0] * (deg + j) + [1], m, p)) for j in range(deg - 1)
    )


def mul_reduce(a, b, red, p, deg):
    """Product of two degree-<deg tuples, reduced by `reduction_table`.
    The modular probe's hot path: one fused pass, no generic `mod`."""
    n = len(a) + len(b) - 1
    prod = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for j in range(n - 1, deg - 1, -1):
        c = prod[j]
        if c:
            row = red[j - deg]
            for k in range(deg):
                prod[k] = (prod[k] + c * row[k]) % p
        prod[j] = 0
    return tuple(prod[:deg])
