import pytest

from ffmzv import fpx


def _monic(code, n, p):
    out = []
    for _ in range(n):
        out.append(code % p)
        code //= p
    return out + [1]


@pytest.mark.parametrize("p,counts", [
    (2, [2, 1, 2, 3, 6, 9, 18, 30]),
    (3, [3, 3, 8, 18]),
    (5, [5, 10, 40]),
    (7, [7, 21, 112]),
])
def test_irreducible_counts(p, counts):
    """Monic irreducibles of degree n number (1/n) Σ_{d|n} μ(d) p^{n/d}.
    Odd and even n both occur, so the test's last gcd, at i = n // 2,
    is checked on either side of n/2."""
    for n, want in enumerate(counts, start=1):
        got = sum(fpx.is_irreducible(_monic(c, n, p), p) for c in range(p ** n))
        assert got == want, n


def test_gcd_is_monic_common_factor():
    p = 3
    f = [1, 1]  # x + 1
    a = fpx.mul(f, [2, 0, 1], p)
    b = fpx.mul([2, 2], [1, 2, 2], p)  # 2(x + 1)(2x² + 2x + 1)
    assert fpx.gcd(a, b, p) == f
    assert fpx.gcd([0, 1], [1, 1], p) == [1]


def test_xpow_pk_matches_repeated_multiplication():
    p, m = 3, [1, 2, 0, 1]  # x³ + 2x + 1, irreducible
    acc = [1]
    for _ in range(p ** 2):
        acc = fpx.mod(fpx.mul(acc, [0, 1], p), m, p)
    assert fpx.xpow_pk(2, m, p) == acc


@pytest.mark.parametrize("p,rounds", [
    # rounds of the byte-sliced reduction for slots of 1..5 bytes: one
    # while w·(p-1) fits a byte, then one or two more on two-byte sums
    (2, [0, 1, 1, 1, 1]),
    (3, [0, 1, 1, 1, 1]),
    (5, [0, 1, 1, 1, 1]),
    (7, [0, 1, 1, 1, 1]),
    (131, [0, 2, 2, 2, 2]),
    (251, [0, 2, 3, 3, 3]),
])
def test_sliced_digits_match_slot_values_mod_p(p, rounds):
    """`digits` reads every slot mod p, for slots of 1 to 5 bytes: all
    bytes 0xff (the largest slot, above any packed sum), slots of
    (p-1)·256^j, and random slots."""
    import random

    ring = fpx._PackedDigits(p)
    rng = random.Random(p)
    for slot in range(1, 6):
        assert len(ring._rounds(slot)) == rounds[slot - 1], slot
        top = 256 ** slot - 1
        for values in (
            [top] * 70,
            [(p - 1) << 8 * j for j in range(slot)] * 5,
            [rng.randrange(top + 1) for _ in range(70)],
            [],
        ):
            n = sum(v << 8 * slot * i for i, v in enumerate(values))
            assert list(ring.digits(n, len(values), slot)) == [
                v % p for v in values
            ], slot
