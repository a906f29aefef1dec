import contextlib
import signal

import pytest
from hypothesis import given, strategies as st

from ffmzv.fields import (
    MAX_Q,
    FieldError,
    FieldSpec,
    default_modulus,
    field_for_q,
    is_prime,
)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in [0, 1, 4, 6, 9, 15, 21])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25])
def test_field_for_q(q):
    F = field_for_q(q)
    assert F.q == q
    assert F.p ** F.e == q


@pytest.mark.parametrize("q", [1, 6, 10, 12])
def test_field_for_q_rejects_non_prime_powers(q):
    with pytest.raises(ValueError):
        field_for_q(q)


@pytest.mark.parametrize("q", [2, 3, 5, 4, 9, 8, 27])
def test_arithmetic_tables(q):
    F = field_for_q(q)
    # 0 and 1 behave; every nonzero element has an inverse
    for a in range(q):
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("q", [4, 9, 8])
def test_extension_field_structure(q):
    F = field_for_q(q)
    # characteristic p: adding 1 to itself p times gives 0
    acc = 0
    for _ in range(F.p):
        acc = F.add(acc, 1)
    assert acc == 0
    # multiplicative group has order q-1
    for a in range(1, q):
        assert F.pow(a, q - 1) == 1


def test_default_modulus_is_irreducible():
    # x^2+x+1 over F_2, and the lex-first degree-2 irreducible over F_3
    assert default_modulus(2, 2) == (1, 1, 1)
    m3 = default_modulus(3, 2)
    # no roots in F_3
    F3 = field_for_q(3)
    for a in range(3):
        val = 0
        for c in reversed(m3):
            val = F3.add(F3.mul(val, a), c)
        assert val != 0


@given(st.sampled_from([2, 3, 5, 9]), st.data())
def test_field_axioms(q, data):
    F = field_for_q(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_frobenius_is_additive():
    F = field_for_q(9)
    for a in range(9):
        for b in range(9):
            assert F.pow(F.add(a, b), 3) == F.add(F.pow(a, 3), F.pow(b, 3))


def test_packed_means_a_prime_below_a_byte():
    """Byte digits serve prime q < 256 only: 251 is packed, the prime
    257 and the extension fields 4 and 9 are not."""
    assert [field_for_q(q).packed for q in (2, 3, 131, 251)] == [True] * 4
    assert [field_for_q(q).packed for q in (4, 9, 257)] == [False] * 3


@pytest.mark.parametrize("p,modulus", [
    (2, (1, 1)), (3, (2, 1)), (3, (1, 1)), (5, (4, 1)),
])
def test_prime_field_modulus_must_be_x(p, modulus):
    """An element of F_p is its residue mod p whatever the modulus, so a
    prime field has one modulus, x.  FieldSpec(3, 1, (2, 1)) was once
    accepted as a field unequal to field_for_q(3), with a Carlitz cache
    of its own."""
    with pytest.raises(FieldError):
        FieldSpec(p, 1, modulus)
    assert FieldSpec(p, 1, (0, 1)) == FieldSpec(p, 1, (p, 1)) == field_for_q(p)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the guarded block after `seconds`, so a
    call that never returns fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError("the call did not return")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("make", [
    lambda: FieldSpec(2, 11),
    lambda: FieldSpec(257, 2),
    lambda: field_for_q(2 ** 20),
    lambda: field_for_q(1000003),
], ids=["2^11", "257^2", "q=2^20", "q=1000003"])
def test_fields_above_the_cap_raise_at_once(make):
    """A q above MAX_Q = 1024 is refused before any table, modulus or
    prime search: FieldSpec(2, 10) once took 33 s to build its tables
    and FieldSpec(2, 11) did not finish in 80 s, and field_for_q of a
    large prime ran trial division over every p below it first."""
    assert MAX_Q == 1024
    with _deadline(5.0), pytest.raises(FieldError, match="MAX_Q"):
        make()


def _extension_fields():
    """Every (p, e) with e >= 2 and p^e <= 256."""
    return [
        (p, e) for p in range(2, 17) if is_prime(p)
        for e in range(2, 9) if p ** e <= 256
    ]


@pytest.mark.parametrize("p,e", _extension_fields())
def test_extension_tables_match_schoolbook(p, e):
    """The add, neg, mul and inverse tables of every extension field
    with q <= 256 equal a schoolbook built here from the field's
    modulus: digit-wise sums, and products of digit lists reduced mod
    the monic modulus one top digit at a time, the inverse as a^(q-2)."""
    F = FieldSpec(p, e)
    q, m = p ** e, F.modulus

    def digits(n):
        return [n // p ** i % p for i in range(e)]

    def code(ds):
        return sum(d * p ** i for i, d in enumerate(ds))

    def mulmod(a, b):
        out = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        for i in range(2 * e - 2, e - 1, -1):
            c = out[i]
            for j in range(e + 1):
                out[i - e + j] = (out[i - e + j] - c * m[j]) % p
        return out[:e]

    ds = [digits(n) for n in range(q)]
    mul = [[code(mulmod(a, b)) for b in ds] for a in ds]
    assert F._mul == mul
    assert F._add == [
        [code([(x + y) % p for x, y in zip(a, b)]) for b in ds] for a in ds
    ]
    assert F._neg == [code([-x % p for x in a]) for a in ds]
    inv = [0]
    for a in range(1, q):
        acc = 1
        for _ in range(q - 2):
            acc = mul[acc][a]
        inv.append(acc)
    assert F._inv == inv
