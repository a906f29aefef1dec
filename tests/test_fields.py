import pytest
from hypothesis import given, strategies as st

from ffmzv.fields import (
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
    and a disk-cache file of its own."""
    with pytest.raises(FieldError):
        FieldSpec(p, 1, modulus)
    assert FieldSpec(p, 1, (0, 1)) == FieldSpec(p, 1, (p, 1)) == field_for_q(p)
