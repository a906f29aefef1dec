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


def _row_schoolbook(a, b, p):
    """The product of two lists of rows (lists of ints, row i the
    coefficient of u^i, digit j that of x^j) on plain ints, each row's
    trailing zeros dropped."""
    width = max(map(len, a)) + max(map(len, b))
    out = [[0] * width for _ in range(len(a) + len(b) - 1)]
    for i, ra in enumerate(a):
        for k, rb in enumerate(b):
            for j, c in enumerate(ra):
                for l, d in enumerate(rb):
                    out[i + k][j + l] = (out[i + k][j + l] + c * d) % p
    return [bytes(r).rstrip(b"\0") for r in out]


def _rows(x, width):
    return [x[i:i + width].rstrip(b"\0") for i in range(0, len(x), width)]


@pytest.mark.parametrize("p,rows,widths,slot", [
    # all-(p-1) rows: the middle coefficient sums exactly
    # min(rows)·min(widths) products of two digits (p-1)·(p-1), the
    # bound the slot width follows; uneven row counts and widths
    (2, (3, 4), (5, 2), 1),
    (2, (20, 30), (16, 25), 2),
    (3, (8, 11), (12, 9), 2),
    (131, (3, 4), (5, 7), 3),
    (251, (1, 3), (6, 4), 3),
    (251, (17, 20), (16, 30), 4),
])
def test_row_product_at_its_worst_case(p, rows, widths, slot):
    """`row_product` equals the schoolbook product of its rows where
    every digit is p-1, so its slots hold the largest sums the bound
    allows.  Past one byte, a bound that dropped the min(wa, wb)
    digit products per row pair would pick a narrower slot, and the
    sums would carry into the next one."""
    ring = fpx.PackedPoly(p)
    (ra, rb), (wa, wb) = rows, widths
    top = (p - 1) ** 2
    assert fpx.slot_width(min(ra, rb) * min(wa, wb) * top) == slot
    assert slot == 1 or fpx.slot_width(min(ra, rb) * top) < slot
    a, b = [[p - 1] * wa] * ra, [[p - 1] * wb] * rb
    x, width = ring.row_product(
        (bytes([p - 1]) * (ra * wa), wa), (bytes([p - 1]) * (rb * wb), wb)
    )
    want = _row_schoolbook(a, b, p)
    assert width == max(map(len, want)) and not x.endswith(b"\0")
    assert _rows(x, width) == want


@pytest.mark.parametrize("p", [2, 3, 131, 251])
def test_row_product_matches_schoolbook(p):
    """Random rows, some short or zero, at uneven widths; a zero factor
    gives zero."""
    import random

    ring = fpx.PackedPoly(p)
    rng = random.Random(p)
    assert ring.row_product((b"", 1), (b"\1", 1)) == (b"", 1)
    for _ in range(30):
        factors = []
        for _ in range(2):
            w = rng.randrange(1, 12)
            rows = [
                [rng.randrange(p) for _ in range(rng.randrange(w + 1))]
                for _ in range(rng.randrange(1, 8))
            ]
            rows[-1] = rows[-1][:w - 1] + [rng.randrange(1, p)]
            factors.append((rows, w))
        (a, wa), (b, wb) = factors
        x, width = ring.row_product(
            (fpx.lay_rows(map(bytes, a), wa), wa),
            (fpx.lay_rows(map(bytes, b), wb), wb),
        )
        assert _rows(x, width) == _row_schoolbook(a, b, p)


@pytest.mark.parametrize("p,widths,slot", [
    # k all-(p-1) terms sum k·(p-1) per slot, the bound the slot width
    # follows
    (3, (4, 7, 2), 1),
    (131, (5, 3), 2),
    (251, (2, 6, 3, 1), 2),
])
def test_row_sum_at_its_worst_case(p, widths, slot):
    """`row_sum` of terms whose every digit is p-1, at uneven widths
    and row counts, equals the sum on plain ints; a sum that cancels
    is zero at width 1."""
    ring = fpx.PackedPoly(p)
    assert fpx.slot_width(len(widths) * (p - 1)) == slot
    terms = [(bytes([p - 1]) * (w * (k + 2)), w) for k, w in enumerate(widths)]
    width = max(widths)
    want = [[0] * width for _ in range(len(widths) + 1)]
    for x, w in terms:
        for i, row in enumerate(_rows(x, w)):
            for j, c in enumerate(row):
                want[i][j] = (want[i][j] + c) % p
    x, got_width = ring.row_sum(terms)
    assert not x.endswith(b"\0")
    assert _rows(x, got_width) == [bytes(r).rstrip(b"\0") for r in want]
    a = (bytes([1, 2, 0, 1]), 2)
    assert ring.row_sum([a, (ring.neg(a[0]), 2)]) == (b"", 1)
