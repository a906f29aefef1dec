import random

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


def _schoolbook_mod(a, m, p):
    """a mod monic m, one digit at a time."""
    a, n = list(a), len(m) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] % p
        for j in range(n + 1):
            a[i - n + j] = (a[i - n + j] - c * m[j]) % p
    return (a + [0] * n)[:n]


def _schoolbook_mul(a, b, p):
    """The product of two digit lists, len(a) + len(b) - 1 digits."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _schoolbook_mulmod(a, b, m, p):
    return _schoolbook_mod(_schoolbook_mul(a, b, p), m, p)


def _schoolbook_is_irreducible(m, p):
    """Ben-Or's test on lists, one gcd per round, x^(p^i) by repeated
    multiplication: the reference for `fpx.is_irreducible`."""
    n = len(m) - 1
    x = _schoolbook_mod([0, 1], m, p)
    h = x
    for _ in range(n // 2):
        acc, base, e = [1], h, p
        while e:
            if e & 1:
                acc = _schoolbook_mulmod(acc, base, m, p)
            base = _schoolbook_mulmod(base, base, m, p)
            e >>= 1
        h = acc
        a, b = list(m), [(c - d) % p for c, d in zip(h, x)]
        while any(b):
            while not b[-1]:
                b.pop()
            inv = pow(b[-1], -1, p)
            while len(a) >= len(b):
                c = a[-1] * inv % p
                off = len(a) - len(b)
                for j, y in enumerate(b):
                    a[off + j] = (a[off + j] - c * y) % p
                a.pop()
            a, b = b, a
        if len(a) > 1:
            return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5, 7, 131, 251])
def test_is_irreducible_matches_schoolbook(p):
    """On 300 random monic draws of degree 1 to 21 per p, the root test
    and the packed rounds give Ben-Or's answer on lists."""
    rng = random.Random(2300 + p)
    found = 0
    for _ in range(300):
        n = rng.randrange(1, 22)
        m = [rng.randrange(p) for _ in range(n)] + [1]
        want = _schoolbook_is_irreducible(m, p)
        assert fpx.is_irreducible(m, p) == want, m
        found += want
    assert found >= 10


# the largest number of non-constant τ-coefficients at one level of a
# probe plan over the q=3 w<=26 sweep
_LEVEL_ROWS = 36


@pytest.mark.parametrize("p", [2, 3, 5, 7, 131, 251])
def test_grouped_reduction_matches_schoolbook(p):
    """`PackedQuotient.mul_rows` equals the schoolbook product mod m row
    by row, for every row count k up to `_LEVEL_ROWS`, at degree 21,
    where x and every row are the all-(p-1) element, so the product's
    slots reach the bound deg·(p-1)^2, and on random rows.  The moduli
    are all-ones below the top (-m all p-1, which fills the slots of
    q·(-m) the most), all-(p-1) and random; Barrett's reduction needs
    no irreducible m.  Degrees 1, 2 and 7 take a shorter check."""
    rng = random.Random(p)
    for deg, ks in ((21, range(1, _LEVEL_ROWS + 1)), (7, (1, 2, 5)),
                    (2, (1, 3)), (1, (1, 2))):
        for m in ([1] * deg + [1], [p - 1] * deg + [1],
                  [rng.randrange(p) for _ in range(deg)] + [1]):
            ring = fpx.PackedQuotient(m, p)
            top = [p - 1] * deg
            want = _schoolbook_mulmod(top, top, m, p)
            for k in ks:
                out = ring.mul_rows(bytes(top), ring.lay([bytes(top)] * k), k)
                rows = [out[i:i + deg] for i in range(0, k * ring.stride, ring.stride)]
                assert [list(r) for r in rows] == [want] * k, (deg, m, k)
            for k in (1, 3, len(ks)):
                x = [rng.randrange(p) for _ in range(deg)]
                cs = [[rng.randrange(p) for _ in range(deg)] for _ in range(k)]
                out = ring.mul_rows(bytes(x), ring.lay(map(bytes, cs)), k)
                for i, c in enumerate(cs):
                    got = out[i * ring.stride:i * ring.stride + deg]
                    assert list(got) == _schoolbook_mulmod(x, c, m, p)
                    assert ring.mul(bytes(x), bytes(c)) == got


@pytest.mark.parametrize("p", [2, 3, 5, 131, 251])
def test_batched_conversion_matches_element(p):
    """`PackedQuotient.elements` equals the schoolbook residue of each
    element, in one batch of every length from 0 to 5·21 + 1 digits
    (most of them longer than 3·21, some chunks only partly filled) and
    in batches of one, on all-(p-1) and random digits; at degree 2 the
    chunks are short and many."""
    rng = random.Random(p)
    for deg in (21, 2):
        m = [rng.randrange(p) for _ in range(deg)] + [1]
        ring = fpx.PackedQuotient(m, p)
        batch = []
        for n in range(5 * 21 + 2):
            batch += [[p - 1] * n, [rng.randrange(p) for _ in range(n)]]
        want = [bytes(_schoolbook_mod(c, m, p)) for c in batch]
        assert ring.elements(batch) == want
        assert ring.elements(batch[::-1]) == want[::-1]
        for c, w in zip(batch[::17], want[::17]):
            assert ring.elements([c]) == [w]
        assert ring.elements([]) == []


def test_gcd_is_monic_common_factor():
    p = 3
    f = [1, 1]  # x + 1
    a = _schoolbook_mul(f, [2, 0, 1], p)
    b = _schoolbook_mul([2, 2], [1, 2, 2], p)  # 2(x + 1)(2x² + 2x + 1)
    assert fpx.gcd(a, b, p) == f
    assert fpx.gcd([0, 1], [1, 1], p) == [1]


def test_power_matches_repeated_multiplication():
    """x^(p^k) mod m by `PackedQuotient.power`, the Frobenius images'
    start, equals k·p-fold multiplication by x."""
    p, m = 3, [1, 2, 0, 1]  # x³ + 2x + 1, irreducible
    ring = fpx.PackedQuotient(m, p)
    x = bytes([0, 1, 0])
    acc = [1]
    for e in range(1, p ** 3 + 1):
        acc = _schoolbook_mulmod(acc, [0, 1], m, p)
        assert list(ring.power(x, e)) == acc, e


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


def _product_slots(ring, monkeypatch):
    """The slot of each `digits` call on the ring, as a list."""
    slots = []
    digits = ring.digits

    def spy(n, k, slot):
        slots.append(slot)
        return digits(n, k, slot)

    monkeypatch.setattr(ring, "digits", spy)
    return slots


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_row_product_slot_follows_the_digit_sums(p, monkeypatch):
    """A sparse factor of `count` digits p-1 against an all-(p-1) one,
    both 20 rows of 40 digits, so that the dense bound needs more than
    one byte: the digit of the product at row 19, digit 39 sums all
    count products (p-1)^2, which is the digit-sum bound
    (p-1)·min(Σx, Σy).
    With count = ⌊255/(p-1)^2⌋ the slot is one byte, one digit more
    takes two, and both products equal the schoolbook product."""
    ring = fpx.PackedPoly(p)
    slots = _product_slots(ring, monkeypatch)
    rows, width = 20, 40
    k = 255 // (p - 1) ** 2
    assert fpx.slot_width(rows * width * (p - 1) ** 2) > 1
    dense = [[p - 1] * width] * rows
    for count, slot in ((k, 1), (k + 1, 2)):
        cells = [0] * (rows * width)
        for i in range(count):
            cells[3 * i] = p - 1
        sparse = [cells[i:i + width] for i in range(0, rows * width, width)]
        slots.clear()
        x, got = ring.row_product(
            (bytes(cells), width), (bytes([p - 1]) * (rows * width), width)
        )
        top = sum(
            sparse[i][j] * dense[rows - 1 - i][width - 1 - j]
            for i in range(rows) for j in range(width)
        )
        assert top == count * (p - 1) ** 2
        assert slots == [slot], count
        want, got = _row_schoolbook(sparse, dense, p), _rows(x, got)
        assert got == want[:len(got)] and not any(want[len(got):])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_row_product_of_sparse_rows_matches_schoolbook(p, monkeypatch):
    """Random rows whose nonzero digits sit at multiples of a step, as
    H_n's θ-digits sit at multiples of q, at uneven widths and row
    counts: products whose dense bound needs more than one byte, many
    of them in one-byte slots by their digit sums, equal the
    schoolbook product on plain ints."""
    ring = fpx.PackedPoly(p)
    slots = _product_slots(ring, monkeypatch)
    rng = random.Random(100 + p)
    for _ in range(40):
        step = rng.choice([1, p, 3 * p])
        factors = []
        for _ in range(2):
            w = rng.randrange(8, 40)
            rows = [
                [rng.randrange(p) if j % step == 0 else 0 for j in range(w - 1)]
                for _ in range(rng.randrange(2, 16))
            ]
            rows[-1][0] = rng.randrange(1, p)
            factors.append((rows, w))
        (a, wa), (b, wb) = factors
        x, width = ring.row_product(
            (fpx.lay_rows(map(bytes, a), wa), wa),
            (fpx.lay_rows(map(bytes, b), wb), wb),
        )
        want = _row_schoolbook(a, b, p)
        got = _rows(x, width)
        assert got == want[:len(got)] and not any(want[len(got):])
    assert 1 in slots


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


def test_staircase_is_the_largest_degree_plus_row():
    """`staircase` equals max_j (deg a_j + j) over the nonzero rows,
    read row by row, on random rows with zero rows among them, and is
    0 for zero and for a constant."""
    rng = random.Random(29)
    for _ in range(300):
        width = rng.randrange(1, 12)
        rows = [
            bytes(rng.randrange(3) for _ in range(rng.randrange(width + 1)))
            for _ in range(rng.randrange(1, 20))
        ]
        x = fpx.lay_rows(rows, width).rstrip(b"\0")
        want = max(
            (len(r.rstrip(b"\0")) - 1 + j
             for j, r in enumerate(rows) if r.rstrip(b"\0")),
            default=0,
        )
        assert fpx.staircase(x, width) == want, (rows, width)
    assert fpx.staircase(b"", 4) == 0
    assert fpx.staircase(b"\1", 1) == 0
