"""Dense polynomials over a prime field F_p: the one kernel behind the
extension-field tables (`fields`) and the modular probe (`tmodule`).

A polynomial is a list or tuple of ints in range(p), constant term
first.  Moduli are monic.  `PackedQuotient` is the probe's quotient
ring F_p[x]/(m) on byte digits: a product is one big-int product, and
the Frobenius a precomputed F_p-linear map.
"""
from __future__ import annotations

import operator


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


def _pth_power(f, m, p):
    """f^p mod m, by square and multiply."""
    acc = mod([1], m, p)
    e = p
    while e:
        if e & 1:
            acc = mod(mul(acc, f, p), m, p)
        f = mod(mul(f, f, p), m, p)
        e >>= 1
    return acc


def xpow_pk(k, m, p):
    """x^(p^k) mod m, by k successive p-th powers."""
    cur = mod([0, 1], m, p)
    for _ in range(k):
        cur = _pth_power(cur, m, p)
    return cur


def is_irreducible(m, p) -> bool:
    """Ben-Or's test for monic m of degree n >= 1: gcd(x^(p^i) - x, m) = 1
    for i = 1, ..., n // 2 (Ben-Or, "Probabilistic algorithms in finite
    fields", FOCS 1981).  A reducible m has an irreducible factor of
    some degree i <= n/2, and that factor divides x^(p^i) - x, so the
    test is exact.  It stops at the first common factor, so a random
    reducible candidate, which most likely has a small one, is rejected
    after a few p-th powers (Gao–Panario, "Tests and constructions of
    irreducible polynomials over finite fields", 1997)."""
    n = len(m) - 1
    if n < 1:
        return False
    x = mod([0, 1], m, p)
    h = x
    for _ in range(n // 2):
        h = _pth_power(h, m, p)
        if len(gcd([(c - xc) % p for c, xc in zip(h, x)], m, p)) != 1:
            return False
    return True


class PackedQuotient:
    """F_p[x]/(m) on packed digits: the modular probe's arithmetic.

    An element is a `bytes` of length deg = deg(m), digit j the
    coefficient of x^j, so p < 256.  Arithmetic runs on the integers
    those digits spell in base 256^slot (Kronecker substitution): one
    big-int product is the polynomial product, as long as no slot
    exceeds 256^slot - 1.  The widest sum ever packed is a reduced
    low half plus deg - 1 folded high digits, at most
    deg·(p-1)^2 + (p-1), which sets `slot`: one byte for p <= 3 at
    degree 21.  A product by x alone (`shift_add`) needs no big-int
    product: it is a one-slot shift and one folded digit, at most
    3(p-1) per slot.  Digits are brought back to range(p) per slot, by
    one `bytes.translate` when a slot is one byte.
    """

    def __init__(self, m, p):
        if p > 255:
            raise ValueError("packed digits need p < 256")
        self.modulus = tuple(m)
        self.p = p
        self.deg = deg = len(m) - 1
        top = deg * (p - 1) ** 2 + (p - 1)
        self.slot = (top.bit_length() + 7) // 8
        self.zero = bytes(deg)
        self._mod_p = bytes(i % p for i in range(256))
        self._neg = bytes(-i % p for i in range(256))
        # x^(deg+j) mod m, j = 0..deg-2: the weights of the high digits
        # of a product
        self._red = tuple(
            self.pack(self.element([0] * (deg + j) + [1]))
            for j in range(deg - 1)
        )
        # c·x^deg mod m for c in range(p): where `shift_add` folds the
        # digit that a shift by x carries out of the top slot
        self._shift_fold = tuple(
            self.pack(self.element([0] * deg + [c])) for c in range(p)
        )
        self._slot_bits = 8 * self.slot
        self._frob = {}

    def element(self, coeffs):
        """The residue of a coefficient list (constant term first)."""
        return bytes(mod(coeffs, self.modulus, self.p))

    def pack(self, x) -> int:
        """The integer the digits of x spell in base 256^slot."""
        if self.slot == 1:
            return int.from_bytes(x, "little")
        buf = bytearray(self.slot * len(x))
        buf[::self.slot] = x
        return int.from_bytes(buf, "little")

    def digits(self, n: int, k: int) -> bytes:
        """The k slots of a packed n, each reduced mod p."""
        raw = n.to_bytes(k * self.slot, "little")
        if self.slot == 1:
            return raw.translate(self._mod_p)
        w = self.slot
        return bytes(
            int.from_bytes(raw[i:i + w], "little") % self.p
            for i in range(0, len(raw), w)
        )

    def add(self, a, b):
        return self.digits(self.pack(a) + self.pack(b), self.deg)

    def neg(self, x):
        return x.translate(self._neg)

    def shift_add(self, a, b):
        """x·a + b: the digits of a moved up one slot, the digit carried
        out of the top folded back as a precomputed multiple of
        x^deg mod m, and b added, all in one packed sum and one `digits`
        call.  Each slot then holds at most 3(p-1), which a slot wide
        enough for a product always holds.  With one-byte slots, the
        common case, `pack` and `digits` are written out in place."""
        if self.slot == 1:
            return (
                (int.from_bytes(a[:-1], "little") << 8)
                + self._shift_fold[a[-1]]
                + int.from_bytes(b, "little")
            ).to_bytes(self.deg, "little").translate(self._mod_p)
        return self.digits(
            (self.pack(a[:-1]) << self._slot_bits)
            + self._shift_fold[a[-1]]
            + self.pack(b),
            self.deg,
        )

    def mul(self, a, b):
        """One big-int product, then the high digits folded back with
        the packed x^(deg+j) mod m."""
        deg = self.deg
        d = self.digits(self.pack(a) * self.pack(b), 2 * deg - 1)
        folded = sum(map(operator.mul, d[deg:], self._red), self.pack(d[:deg]))
        return self.digits(folded, deg)

    def frob(self, x, n: int):
        """x^(p^n).  The map is F_p-linear, so with ξ the class of the
        variable it is Σ x_i·ξ^(i·p^n): one packed sum, once the images
        ξ^(i·p^n) are known.  They are found on the first call for each
        n, ξ^(p^n) by square and multiply (von zur Gathen–Shoup,
        "Computing Frobenius maps and factoring polynomials", 1992)."""
        if not n:
            return x
        images = self._frob.get(n)
        if images is None:
            y = self.element(xpow_pk(n, self.modulus, self.p))
            powers = [self.element([1])]
            for _ in range(self.deg - 1):
                powers.append(self.mul(powers[-1], y))
            images = self._frob[n] = tuple(map(self.pack, powers))
        return self.digits(sum(map(operator.mul, x, images)), self.deg)
