"""Finite fields F_q, q = p^e, with table-driven arithmetic.

Elements of F_q are plain ints in range(q) encoding the base-p digit
vector of a residue polynomial modulo the field's irreducible modulus.
For e = 1 the encoding is the usual residue mod p.  All arithmetic is
precomputed into q × q tables at construction time, so q is capped at
`MAX_Q` = 1024, at most 2^20 entries a table: a larger q raises
`FieldError` before any modulus or prime search.  The tables of an
extension field are products in `fpx.PackedQuotient`, each element
times all q at once.  `FieldSpec.packed` says
where polynomials over F_q run on the packed byte digits of `fpx`
instead: prime q < 256.  `composition` checks the entries of a
composition, in one place that both the decision engine and the
independent `oracle` import.
"""
from __future__ import annotations

import operator
from functools import lru_cache

from . import fpx


class FieldError(ValueError):
    pass


# the largest q with arithmetic tables: q × q = 2^20 entries each
MAX_Q = 1024


def _check_size(q: int, name):
    if q > MAX_Q:
        raise FieldError(f"q = {name} exceeds MAX_Q = {MAX_Q}, the table limit")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def composition(s) -> tuple:
    """s as a tuple of positive ints.  An entry must be an integer in
    the sense of `operator.index`: 2.5, 2.0 or "2" is an error, never
    read as 2."""
    try:
        s = tuple(map(operator.index, s))
    except TypeError:
        raise ValueError("composition entries must be positive integers") from None
    if not s or any(x < 1 for x in s):
        raise ValueError("composition entries must be positive integers")
    return s


def default_modulus(p: int, e: int):
    """Smallest lexicographic monic irreducible of degree e over F_p.

    Lexicographic in the constant-first coefficient tuple (c0, ..., c_{e-1}, 1).
    """
    if e == 1:
        return (0, 1)
    for code in range(p ** e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        m = coeffs + [1]
        if fpx.is_irreducible(m, p):
            return tuple(m)
    raise FieldError(f"no irreducible of degree {e} over F_{p}")


class FieldSpec:
    """The field F_q with q = p^e, given by an irreducible modulus over F_p.

    Elements are ints in range(q).  The int n encodes the polynomial
    sum(digit_i * x^i) where n = sum(digit_i * p^i).
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if e < 1:
            raise FieldError("extension degree must be >= 1")
        # before the prime test and the modulus search; for p >= 2 the
        # degree alone puts p^e above MAX_Q from e = bit_length(MAX_Q) on
        _check_size(p ** min(e, MAX_Q.bit_length()), f"{p}^{e}")
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if modulus is None:
            modulus = default_modulus(p, e)
        modulus = tuple(x % p for x in modulus[:-1]) + (modulus[-1],)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree e")
        if e == 1 and modulus != (0, 1):
            # F_p has one encoding, the residue mod p: another modulus
            # would name the same field as a second, unequal FieldSpec
            raise FieldError("the modulus of a prime field must be x, (0, 1)")
        if e > 1 and not fpx.is_irreducible(modulus, p):
            raise FieldError("modulus is reducible")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus
        # whether F_q[θ] runs on the byte digits of `fpx` (prime q < 256):
        # the A[t] product, the point reduction, the modular probe and
        # its exact confirmation; every other field takes the tables
        self.packed = e == 1 and p < 256
        self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        if e == 1:
            self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
        else:
            # element n as its e base-p digits, and back
            elements = [bytes(n // p ** i % p for i in range(e)) for n in range(q)]
            code = {x: n for n, x in enumerate(elements)}
            # row a is a plus every element: a's digits repeated q times
            # plus all q elements end to end, one packed sum whose slots
            # hold at most 2(p-1) <= 60 (e >= 2 under MAX_Q keeps
            # p <= 31), so one byte each, and one translate mod p
            mod_p = bytes(i % p for i in range(256))
            every, n = int.from_bytes(b"".join(elements), "little"), q * e
            self._add = [
                [code[row[i:i + e]] for i in range(0, n, e)]
                for row in (
                    (int.from_bytes(a * q, "little") + every)
                    .to_bytes(n, "little").translate(mod_p)
                    for a in elements
                )
            ]
            # row a is a times every element: one `mul_rows` of q rows
            ring = fpx.PackedQuotient(self.modulus, p)
            laid, stride = ring.lay(elements), ring.stride
            self._mul = [
                [code[prod[i:i + e]] for i in range(0, q * stride, stride)]
                for prod in (ring.mul_rows(a, laid, q) for a in elements)
            ]
        self._neg = [row.index(0) for row in self._add]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    # -- element ops ------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = 1
        base = a
        while n:
            if n & 1:
                out = self._mul[out][base]
            base = self._mul[base][base]
            n >>= 1
        return out

    # -- misc -------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.q}"
        return f"F_{self.q}(p={self.p}, modulus={self.modulus})"


@lru_cache(maxsize=None)
def field_for_q(q: int) -> FieldSpec:
    """F_q with the built-in default modulus (searched lexicographically)."""
    _check_size(q, q)
    for p in range(2, q + 1):
        if is_prime(p):
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n == 1:
                return FieldSpec(p, e)
            if q % p == 0:
                break
    raise FieldError(f"{q} is not a prime power")
