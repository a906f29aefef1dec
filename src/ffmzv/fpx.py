"""Dense polynomials over a prime field F_p: the one kernel behind the
extension-field tables (`fields`), the modular probe and its exact
confirmation (`tmodule`).

A polynomial is a list or tuple of ints in range(p), constant term
first.  Moduli are monic.  The list-based `mul`, `mod` and `gcd` build
the extension-field tables; `is_irreducible` is Ben-Or's test, its
first round a packed root test and, for p < 256, its later rounds in
`PackedQuotient`.  Two rings keep their elements as byte digits
(p < 256) and share the packing (`slot_width`, `pack`, `_PackedDigits`,
whose translate tables are built once per p):
`PackedQuotient` is the probe's quotient ring F_p[x]/(m), where a
product is one big-int product, k products by one element share one
big-int product and one Barrett reduction (`mul_rows`), and the
Frobenius is a precomputed F_p-linear map; `PackedPoly` is F_p[x]
itself, where a sum is one packed sum and the Frobenius a strided
copy.  The probe keeps a whole point of d elements as one packed
integer, at a slot width of its own, and applies ρ_t to it with the
quotient's `xdeg`, `frob`, `mul_rows` and `digits`
(`tmodule.ProbeDomain`), after converting its coefficients and
coordinates a list at a time (`elements`).  One `PackedPoly` per
prime (`poly.packed_ring`) serves every packed consumer: it is the
exact domain that confirms the probe's zeros (`criterion`), where its
`point_plan` keeps a point as one packed run of rows per block and
applies ρ_t to each block with one packed sum, one Kronecker product
per τ-level and target block and one `digits` call (`_PackedBlocks`,
for p <= 13; larger p take the row loop over its element
operations); its `mul` the large products in F_p[θ] of `poly.Poly`,
and its `row_product` the
product of polynomials whose coefficients are rows of θ-digits (laid
out by `lay_rows`): the A[t] product of `poly.BiPoly`, the product in
u of the point reduction (`motive`) and the products of the H_n fill
(`carlitz`), whose sums are one `row_sum` each.  The kernel of a
matrix over F_p (`_PackedDigits.nullspace`, behind `linalg.nullspace`)
keeps each column as one packed integer with its F_p-combination in
the high slots.  Only this module calls the Kronecker `product` and
derives the slot bounds of packed products, sums, reductions and
eliminations.  A packed integer is read back to digits by a
byte-sliced reduction (`_PackedDigits.digits`): one `bytes.translate`
per byte of a slot and round, never a loop over the slots.  Where these
rings run is `fields.FieldSpec.packed`; p >= 256 and extension fields
take the table-driven `Poly` arithmetic.
"""
from __future__ import annotations

import collections
import functools
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
    dm = len(m) - 1
    return (_rem(a, m, p) + [0] * dm)[:dm]


def gcd(a, b, p):
    """Monic gcd (the empty list when both are zero)."""
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _strip(_rem(a, b, p))
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _rem(a, b, p):
    """a mod b for b with a nonzero top digit, as len(b) - 1 digits."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    a = list(a)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            a[i - db:i] = [(x - c * y) % p for x, y in zip(a[i - db:i], b)]
    return a[:db]


def _pth_power(f, m, p):
    """f^p mod m, by square and multiply from the top bit of p: no
    squaring after the last bit."""
    acc = f
    for bit in bin(p)[3:]:
        acc = mod(mul(acc, acc, p), m, p)
        if bit == "1":
            acc = mod(mul(acc, f, p), m, p)
    return acc


def is_irreducible(m, p) -> bool:
    """Ben-Or's test for monic m of degree n >= 1: gcd(x^(p^i) - x, m) = 1
    for i = 1, ..., n // 2 (Ben-Or, "Probabilistic algorithms in finite
    fields", FOCS 1981).  A reducible m has an irreducible factor of
    some degree i <= n/2, and that factor divides x^(p^i) - x, so the
    test is exact.  It stops soon after the first common factor, so a
    random reducible candidate, which most likely has a small one, is
    rejected after a few p-th powers (Gao–Panario, "Tests and
    constructions of irreducible polynomials over finite fields",
    1997).

    Round 1 is a root test: x^p - x is the product of x - a over
    a in F_p, so gcd(x^p - x, m) != 1 exactly when m(a) = 0 for some a
    (`_has_root`).  For p < 256 the later rounds run in
    `PackedQuotient(m, p)`, whose translate tables are shared per p,
    and take one gcd after round 3 and one after round n // 2, each on
    the product of the x^(p^i) - x mod m since the last: an irreducible
    factor of m divides that product exactly when it divides one of
    its factors, so the product is coprime to m exactly when every
    factor is.  A candidate with a factor of degree 2 or 3, the most
    common after the root test, is rejected after round 3.  Fewer gcds
    pay because at degree 21 and p <= 3 one gcd on lists costs about
    as much as ten packed p-th powers."""
    n = len(m) - 1
    if n < 1:
        return False
    if p > 255:
        # no byte digits: every round on lists
        x = mod([0, 1], m, p)
        h = x
        for _ in range(n // 2):
            h = _pth_power(h, m, p)
            if len(gcd([(c - xc) % p for c, xc in zip(h, x)], m, p)) != 1:
                return False
        return True
    if n > 1 and _has_root(m, p):
        return False
    if n < 4:
        return True
    ring = PackedQuotient(m, p)
    x = ring.element([0, 1])
    minus_x = ring.neg(x)
    h, acc = ring.power(x, p), None
    for i in range(2, n // 2 + 1):
        h = ring.power(h, p)
        diff = ring.add(h, minus_x)
        acc = diff if acc is None else ring.mul(acc, diff)
        if i == 3 or i == n // 2:
            if len(gcd(list(acc), m, p)) != 1:
                return False
            acc = None
    return True


def _has_root(m, p) -> bool:
    """Whether m has a root in F_p (p < 256): m evaluated at every a in
    range(p) at once, as one packed sum Σ m_j·(a^j)_a whose slots hold
    at most (deg m + 1)·(p-1)^2, read by one `digits` call."""
    slot, powers = _root_table(p, len(m))
    values = _PackedDigits(p).digits(sum(map(operator.mul, m, powers)), p, slot)
    return 0 in values


@functools.lru_cache(maxsize=None)
def _root_table(p, n):
    """The slot of `_has_root` for n coefficients and the packed
    a^j for a in range(p), j < n."""
    slot = slot_width(n * (p - 1) ** 2)
    return slot, tuple(
        pack(bytes(pow(a, j, p) for a in range(p)), slot) for j in range(n)
    )


def slot_width(top: int) -> int:
    """Bytes per slot for packed values up to `top`: a sum that never
    exceeds it never carries into the next slot."""
    return (top.bit_length() + 7) // 8


def pack(x, slot: int) -> int:
    """The integer the digits of x (a `bytes`, or ints below 256) spell
    in base 256^slot."""
    if slot == 1:
        return int.from_bytes(x, "little")
    buf = bytearray(slot * len(x))
    buf[::slot] = x
    return int.from_bytes(buf, "little")


class _PackedDigits:
    """F_p digits (p < 256) kept in a `bytes`, one digit per slot of a
    packed integer (Kronecker substitution).  Holds the translate
    tables that bring a slot back to range(p) and negate a digit
    string.

    A slot of w bytes is reduced byte-sliced: byte j of every slot is
    one strided slice of the packed bytes, and one `translate` maps it
    to b·256^j mod p.  The w results, each below p, are summed as one
    integer, in one-byte slots when w·(p-1) fits a byte and in
    two-byte slots otherwise, and a two-byte sum is sliced the same way
    again, until a last `translate` takes one-byte slots to range(p).
    The rounds follow from p and w alone (`_rounds`)."""

    def __init__(self, p):
        if p > 255:
            raise ValueError("packed digits need p < 256")
        self.p = p
        self._mod_p, self._neg, self._plans, self._times = _digit_tables(p)

    def _rounds(self, slot):
        """The rounds that take `slot`-byte slots to one-byte slots: a
        list of (w, lanes, width), w the slot width read, lanes the
        (j, table) of every byte j whose table b ↦ b·256^j mod p is not
        all zero (only byte 0 counts at p = 2), and width the slot
        width of their sum.  A round bounds that sum by the largest
        table entries the bytes of the previous bound reach; rounds go
        on while the bound exceeds a byte."""
        plan = self._plans.get(slot)
        if plan is None:
            p = self.p
            plan, w, top = [], slot, 256 ** slot - 1
            while w > 1:
                lanes = [
                    (j, bytes(b * 256 ** j % p for b in range(256)))
                    for j in range(w)
                ]
                lanes = [(j, t) for j, t in lanes if any(t)]
                top = sum(max(t[:min(255, top >> 8 * j) + 1]) for j, t in lanes)
                width = slot_width(top)
                plan.append((w, lanes, width))
                w = width
            self._plans[slot] = plan
        return plan

    def digits(self, n: int, k: int, slot: int) -> bytes:
        """The k slots of a packed n, each reduced mod p."""
        raw = n.to_bytes(k * slot, "little")
        for w, lanes, width in self._rounds(slot):
            raw = sum(
                pack(raw[j::w].translate(t), width) for j, t in lanes
            ).to_bytes(k * width, "little")
        return raw.translate(self._mod_p)

    def product(self, a, b, terms: int) -> bytes:
        """The digits of the product of two digit strings, by one
        big-int product: at most `terms` products of two digits add up
        in one coefficient, which sets the slot width.  All
        len(a) + len(b) - 1 digits are returned, trailing zeros
        included."""
        slot = slot_width(terms * (self.p - 1) ** 2)
        return self.digits(
            pack(a, slot) * pack(b, slot), len(a) + len(b) - 1, slot
        )

    def neg(self, x):
        return x.translate(self._neg)

    def _scaled(self, c):
        """The translate table of the product by the digit c."""
        table = self._times.get(c)
        if table is None:
            p = self.p
            table = self._times[c] = bytes(c * i % p for i in range(256))
        return table

    def nullspace(self, matrix: bytes, nrows: int, ncols: int):
        """The right kernel of an nrows × ncols matrix over F_p, its
        digits row after row in `matrix`, as the basis `linalg.rref`
        reads off: one vector per free column c, in order, with 1 at c
        and 0 at every other free column.

        Each column, one strided slice of the matrix, is one packed
        integer of nrows + ncols slots: its entries, then its
        F_p-combination of the columns, which starts as a 1 at its own
        column, so one big-int operation updates both.  The columns are
        walked in order, and each is reduced against the pivots found
        so far, in the order they were found: with f the pivot row's
        slot mod p, one v += (p-f)·P, slots left unreduced, then one
        `digits` call.  A column left nonzero is a pivot: its pivot row
        is its lowest nonzero digit, where it is normalized to 1.  A
        column left zero is free, and its combination is the basis
        vector.

        Why the basis is the RREF's.  Pivot k was reduced by every
        earlier pivot, and each of those is zero at the pivot rows
        before it, so by induction every pivot is zero mod p at the
        pivot rows of the earlier pivots: a reduction never undoes an
        earlier one, and a column reduces to zero exactly when it lies
        in the span of the columns before it.  The pivot columns are
        then the RREF's.  A pivot's combination involves only its own
        column and earlier pivot columns, so a free column's has 1 at
        that column and 0 at every other free column, and only one
        kernel vector has that pattern.

        Slot bound.  A column enters with digits below p.  Every pivot
        is reduced and normalized, so its digits are below p, and a
        reduction adds (p-f)·P with 1 <= p-f <= p-1 (none when f = 0):
        at most (p-1)^2 per slot.  A column meets at most one reduction
        per pivot found before it, fewer than ncols, so no slot
        exceeds ncols·(p-1)^2 + (p-1) (`_kernel_slot`).  No slot
        reaches 256^slot, no carry crosses a slot, and each f read and
        each `digits` slot is the exact sum, read mod p."""
        p = self.p
        slot = _kernel_slot(p, ncols)
        bits, k = 8 * slot, nrows + ncols
        mask = (1 << bits) - 1
        pivots, basis = [], []
        for c in range(ncols):
            v = pack(matrix[c::ncols], slot) | 1 << bits * (nrows + c)
            for shift, pivot in pivots:
                f = (v >> shift & mask) % p
                if f:
                    v += (p - f) * pivot
            x = self.digits(v, k, slot)
            low = k - len(x.lstrip(b"\0"))
            if low >= nrows:
                basis.append(list(x[nrows:]))
            else:
                x = x.translate(self._scaled(pow(x[low], -1, p)))
                pivots.append((bits * low, pack(x, slot)))
        return basis


@functools.lru_cache(maxsize=None)
def _digit_tables(p):
    """The tables of `_PackedDigits`, built once per p and shared: the
    translate tables to range(p) and of the negation, and the caches
    of reduction rounds per slot width and of scaling tables per
    digit."""
    mod_p = bytes(i % p for i in range(256))
    return mod_p, bytes(-i % p for i in range(256)), {}, {}


class PackedQuotient(_PackedDigits):
    """F_p[x]/(m) on packed digits: the modular probe's arithmetic,
    and the ring Ben-Or's later rounds run in (`is_irreducible`).

    An element is a `bytes` of length deg = deg(m), digit j the
    coefficient of x^j, so p < 256.  Arithmetic runs on the integers
    those digits spell in base 256^slot (Kronecker substitution): one
    big-int product is the polynomial product, as long as no slot
    exceeds 256^slot - 1.  Every product or sum packed at `slot` holds
    at most deg·(p-1)^2 + (p-1) per slot (`_reduce_rows`, `_fold`),
    which sets it: one byte for p <= 3 at degree 21.  Digits are
    brought back to range(p) per slot by the byte-sliced `digits`.

    Products are taken k at a time: `mul_rows` multiplies one element
    by k elements laid out `stride` = 2·deg - 1 digits apart (`lay`),
    which is one big-int product, and reduces all k rows at once by
    Barrett's reduction (`_reduce_rows`): two more products by fixed
    polynomials and three `digits` calls for any k.  One row in
    multi-byte slots is reduced by `_fold` instead, which measured
    faster there.  `xdeg`, the digits of x^deg mod m, folds a digit
    carried past the top: `element` folds deg-digit chunks with it,
    and the probe's ρ_t every row's top digit at once
    (`tmodule.ProbeDomain`); `elements` converts many coefficient lists
    by one reduction of their chunks' products with x^(j·deg) mod m.
    """

    def __init__(self, m, p):
        super().__init__(p)
        self.modulus = tuple(m)
        self.deg = deg = len(m) - 1
        self.slot = slot = slot_width(deg * (p - 1) ** 2 + (p - 1))
        self.stride = 2 * deg - 1
        self.zero = bytes(deg)
        self.xdeg = bytes(-c % p for c in m[:deg])
        self._negm = negm = pack(bytes(-c % p for c in m), slot)
        # μ = ⌊x^(2deg-2) / m⌋ by long division on one packed integer:
        # read the top slot mod p, add that multiple of -m below it
        bits = 8 * slot
        mask, r, mu = (1 << bits) - 1, 1 << bits * (2 * deg - 2), 0
        for i in range(deg - 2, -1, -1):
            c = (r >> bits * (i + deg) & mask) % p
            if c:
                mu |= c << bits * i
                r += c * negm << bits * i
        self._mu = mu
        self._masks = (0, 0, 0)
        self._chunk_powers = [self.xdeg]
        self._frob = {}

    def lay(self, elements):
        """Elements end to end in rows of `stride` digits, packed: the
        rows `mul_rows` multiplies."""
        return pack(lay_rows(elements, self.stride), self.slot)

    def mul_rows(self, x, rows, k):
        """The products x·c_i mod m of x and the k elements c_i laid out
        by `lay`: row i's residue is the deg digits from i·stride on
        (one row in multi-byte slots, reduced by `_fold`, returns its
        deg digits only)."""
        slot = self.slot
        a = pack(x, slot) * rows
        if k == 1 and slot > 1:
            return self._fold(a)
        return self._reduce_rows(self.digits(a, k * self.stride, slot), k)

    def _row_masks(self, k):
        masks = self._masks
        if masks[0] < k:
            k = max(k, 2 * masks[0])
            deg, slot = self.deg, self.slot
            row = bytes(deg * slot) + b"\xff" * ((deg - 1) * slot)
            high = int.from_bytes(row * k, "little")
            masks = self._masks = (k, high, high >> 8 * slot * deg)
        return masks

    def _reduce_rows(self, a, k):
        """The residues mod m of k polynomials of degree <= 2·deg - 2,
        given as the digits a (each below p) of k rows of `stride`
        digits: k rows whose first deg digits are the residues and whose
        other digits are zero.

        Barrett's reduction (Barrett, CRYPTO '86), which is exact for
        polynomials.  Write a row a = a_hi·x^deg + a_lo, deg a_lo < deg,
        deg a_hi <= deg - 2, and μ = ⌊x^(2deg-2) / m⌋, so that
        x^(2deg-2) = μ·m + r with deg r < deg.  Then
        a_hi·μ / x^(deg-2) = a_hi·x^deg / m - a_hi·r / (m·x^(deg-2)), and
        a / m - a_hi·μ / x^(deg-2) = a_lo / m + a_hi·r / (m·x^(deg-2)),
        whose two terms have degree < 0 (deg a_hi·r <= 2deg - 3).  So
        the polynomial parts agree: q = ⌊a / m⌋ = ⌊a_hi·μ / x^(deg-2)⌋,
        and a + q·(-m) is the residue, its digits deg .. 2deg-2 zero
        mod p.  All rows at once, on packed integers: a_hi is masked
        out of every row, its product with μ one big-int product whose
        digits deg-2 .. 2deg-4 past a_hi's first are q, and q masked
        out and shifted back to its row start times -m is the other.

        Slot bound.  The digits of a, μ, q and -m are below p.  A slot
        of a_hi·μ sums at most deg - 1 products of two digits (a_hi has
        deg - 1 digits), and one of a + q·(-m) holds a digit of a plus at
        most deg - 1 such products (q has deg - 1 digits): both below
        deg·(p-1)^2 + (p-1), the slot.  The rows stay apart: a row's
        a + q·(-m) has 2·deg - 1 digits, its stride, and its a_hi·μ
        ends at digit 3·deg - 4 of the row, before the next row's a_hi
        starts at stride + deg.  So no slot carries, and each `digits`
        call reads the exact sums mod p."""
        deg, slot = self.deg, self.slot
        n = k * self.stride
        _, high, low = self._row_masks(k)
        a = pack(a, slot)
        q = self.digits((a & high) * self._mu, n + deg, slot)
        q = pack(q, slot) >> 8 * slot * (2 * deg - 2) & low
        return self.digits(a + q * self._negm, n, slot)

    def element(self, coeffs):
        """The residue of a coefficient list (constant term first,
        digits in range(p)).  A list longer than deg is cut into
        deg-digit chunks and folded from the top by Horner's rule in
        x^deg mod m: each step is one big-int product of the packed
        accumulator and x^deg mod m plus the next chunk, at most
        deg·(p-1)^2 + (p-1) per slot, reduced like a product."""
        deg, slot = self.deg, self.slot
        x = bytes(coeffs)
        top = max(len(x) - 1, 0) // deg * deg
        acc = x[top:]
        xdeg = pack(self.xdeg, slot)
        for i in range(top - deg, -1, -deg):
            acc = self._fold(pack(acc, slot) * xdeg + pack(x[i:i + deg], slot))
        return acc.ljust(deg, b"\0")

    def elements(self, polys):
        """The residues of coefficient lists (constant term first,
        digits in range(p)), all in one pass.  A list of at most deg
        digits is its own residue.  The others are cut into deg-digit
        chunks: chunk j of every one is laid out by `lay` and multiplied
        by x^(j·deg) mod m, and the sum of these products is reduced by
        one `_reduce_rows`.  A slot of the sum holds a digit of chunk 0
        and, per later chunk, at most deg products of two digits."""
        deg, stride, p = self.deg, self.stride, self.p
        xs = [bytes(c) for c in polys]
        long = [x for x in xs if len(x) > deg]
        if long:
            k, chunks = len(long), -(-max(map(len, long)) // deg)
            slot = slot_width((chunks - 1) * deg * (p - 1) ** 2 + (p - 1))
            total = pack(lay_rows([x[:deg] for x in long], stride), slot)
            for j in range(1, chunks):
                laid = lay_rows([x[j * deg:(j + 1) * deg] for x in long], stride)
                total += pack(laid, slot) * pack(self._chunk_power(j), slot)
            rows = self._reduce_rows(self.digits(total, k * stride, slot), k)
            residues = iter([rows[i:i + deg] for i in range(0, k * stride, stride)])
        return [next(residues) if len(x) > deg else x.ljust(deg, b"\0") for x in xs]

    def _chunk_power(self, j):
        """x^(j·deg) mod m, j >= 1."""
        powers = self._chunk_powers
        while len(powers) < j:
            powers.append(self.mul(powers[-1], self.xdeg))
        return powers[j - 1]

    def add(self, a, b):
        slot = self.slot
        return self.digits(pack(a, slot) + pack(b, slot), self.deg, slot)

    def mul(self, a, b):
        """`mul_rows` on one row."""
        return self.mul_rows(a, pack(b, self.slot), 1)[:self.deg]

    def power(self, x, e: int):
        """x^e for e >= 1, by square and multiply from the top bit of e:
        no squaring after the last bit."""
        acc = x
        for bit in bin(e)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, x)
        return acc

    @functools.cached_property
    def _red(self):
        """x^(deg+j) mod m, j = 0..deg-2, packed: the weights of the
        high digits of a product, each x times the one before."""
        m, p, deg = self.modulus, self.p, self.deg
        red, r = [], list(self.xdeg)
        for _ in range(deg - 1):
            red.append(pack(bytes(r), self.slot))
            top = r.pop()
            r = [0] + r
            if top:
                r = [(c - top * y) % p for c, y in zip(r, m)]
        return tuple(red)

    def _fold(self, n):
        """The residue of a packed n of 2·deg - 1 slots: its digits, the
        high ones folded back with the packed x^(deg+j) mod m."""
        deg, slot = self.deg, self.slot
        d = self.digits(n, 2 * deg - 1, slot)
        folded = sum(map(operator.mul, d[deg:], self._red), pack(d[:deg], slot))
        return self.digits(folded, deg, slot)

    def frob(self, x, n: int):
        """x^(p^n).  The map is F_p-linear, so with ξ the class of the
        variable it is Σ x_i·ξ^(i·p^n): one packed sum, once the images
        ξ^(i·p^n) are known.  They are found on the first call for each
        n, ξ^(p^n) by square and multiply (von zur Gathen–Shoup,
        "Computing Frobenius maps and factoring polynomials", 1992)."""
        if not n:
            return x
        slot = self.slot
        images = self._frob.get(n)
        if images is None:
            y = self.power(self.element([0, 1]), self.p ** n)
            powers = [self.element([1])]
            for _ in range(self.deg - 1):
                powers.append(self.mul(powers[-1], y))
            images = self._frob[n] = tuple(pack(z, slot) for z in powers)
        return self.digits(sum(map(operator.mul, x, images)), self.deg, slot)


class PackedPoly(_PackedDigits):
    """F_p[x] on packed digits: the exact ring the probe's quotient
    has no modulus for, and a coefficient domain of `tmodule.TModule`
    with x = θ.

    An element is a `bytes`, digit j the coefficient of x^j, with no
    trailing zero digit, so b"" is zero; `convert` takes a `Poly` over
    F_p to its digits, and `Poly(field, x)` takes them back.  A sum,
    and the step x·a + b, adds at most two digits per slot, 2(p-1),
    which sets `slot`: one byte for p <= 128, two above.  A product is
    one big-int product whose slots hold its largest coefficient sum,
    min(len a, len b) products of two digits; a product by one digit
    is one `bytes.translate`.  x ↦ x^(p^n) spreads the digits p^n
    apart, one strided assignment.  `row_product` multiplies
    polynomials in a second variable whose coefficients are elements
    laid out in rows, by the same one big-int product, and `row_sum`
    adds any number of them in one packed sum.
    """

    def __init__(self, p):
        super().__init__(p)
        self.slot = slot_width(2 * (p - 1))

    def zero(self):
        return b""

    def is_zero(self, x):
        return not x

    def scalar(self, c):
        """The constant c in range(p)."""
        if not 0 <= c < self.p:
            raise ValueError(f"scalar {c!r} is not a digit in range({self.p})")
        return bytes((c,)) if c else b""

    def convert(self, c):
        """The digits of a polynomial over F_p (anything with `coeffs`)."""
        return bytes(c.coeffs)

    def convert_all(self, cs):
        return [bytes(c.coeffs) for c in cs]

    def add(self, a, b):
        """One packed sum; with one-byte slots, the common case, `pack`
        and `digits` are written out in place."""
        slot, n = self.slot, max(len(a), len(b))
        if slot == 1:
            s = int.from_bytes(a, "little") + int.from_bytes(b, "little")
            return s.to_bytes(n, "little").translate(self._mod_p).rstrip(b"\0")
        return self.digits(pack(a, slot) + pack(b, slot), n, slot).rstrip(b"\0")

    def theta_step(self, a, b):
        """x·a + b: a one-slot shift of a, plus b."""
        if not a:
            return b
        a = b"\0" + a
        return self.add(a, b) if b else a

    def mul(self, a, b):
        if not a or not b:
            return b""
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            return b.translate(self._scaled(a[0]))
        # the leading digit is a product of two nonzero digits, so the
        # product has no trailing zero
        return self.product(a, b, len(a))

    def row_product(self, a, b):
        """The product of two polynomials in a second variable u (t or
        t-θ) over F_p[x], each a pair (x, w): x a run of rows of w
        digits, digit i·w + j the coefficient of x^j·u^i.  Returns the
        product as such a pair, re-laid at its largest found degree in
        x plus one (`tighten`), trailing zeros dropped.

        One Kronecker product at the width wa + wb - 1: the x-degrees
        of a row product stay below it, so the slots of two u-powers
        never meet, and a coefficient sums at most
        min(rows)·min(wa, wb) products of two digits, which sets the
        slot width.  For `poly.BiPoly` factors of θ-degrees da and db,
        laid out at w = da + 1 and db + 1, the width is da + db + 1 and
        the bound min(t-lengths)·(min(da, db) + 1): the slots, and so
        the digits, of packing θ^j·t^i at digit i·(da + db + 1) + j
        directly."""
        (x, wa), (y, wb) = a, b
        if not x or not y:
            return b"", 1
        width = wa + wb - 1
        terms = min(-(-len(x) // wa), -(-len(y) // wb)) * min(wa, wb)
        return tighten(self.product(
            relayout(x, wa, width), relayout(y, wb, width), terms
        ), width)

    def row_sum(self, terms):
        """The sum of polynomials laid out as `row_product` takes them,
        a list of pairs (x, w), as such a pair, tightened: one packed
        sum at the widest w, whose slots hold at most len(terms)·(p-1)."""
        width = max(w for _, w in terms)
        slot = slot_width(len(terms) * (self.p - 1))
        n = max(-(-len(x) // w) for x, w in terms) * width
        total = sum(pack(relayout(x, w, width), slot) for x, w in terms)
        return tighten(self.digits(total, n, slot), width)

    def frob(self, x, n: int):
        """x^(p^n): digit i moves to i·p^n."""
        if not n or not x:
            return x
        step = self.p ** n
        out = bytearray((len(x) - 1) * step + 1)
        out[::step] = x
        return bytes(out)

    def point_plan(self, blocks):
        """ρ_t on one packed run of rows per block (`_PackedBlocks`), for
        the blocks (start, end, τ-terms) of a `tmodule.TModule` with
        coefficients in this ring; None where the point slot exceeds one
        byte before any τ-term, 2(p-1) + (p-1)^2 > 255, that is p > 13.
        There the packed blocks pay a multi-byte reduction per step on
        rows padded to the block's longest, and the row loop over the
        element operations is faster."""
        if _point_slot(self.p, 0) > 1:
            return None
        return _PackedBlocks(self, blocks)


class _PackedBlocks:
    """ρ_t on an exact point of F_p[x]^d held as one packed run of rows
    per block of a `tmodule.TModule`: block b a pair (x, w), x its rows
    end to end in rows of w digits (trailing zeros dropped, so an
    all-zero block is b""), each block at a width of its own.

    One application ρ_t(v) + c·y, per block, is one packed sum and one
    `digits` call at the point slot: the block shifted up one slot (θ·I)
    plus the block shifted down one row (the in-block shift N; the last
    row takes nothing), plus c times y's block, packed once per width,
    plus one reduced τ-product per (source block, level) with a term in
    the block.  Per source block and level, the block's top coordinate
    x_0 is twisted once, x_0^(p^n) (`PackedPoly.frob`), and multiplied by
    the level's coefficients into each target block, laid out as rows
    of the target's width from its first to its last row with a term,
    in one Kronecker product reduced at a slot of its own.

    Widths.  Before a step every block must have room for what lands in
    it: the θ-shift needs every row's digit w-1 to be zero (one strided
    check of the top digits), c·y needs y's rows, and the τ-product of a
    row needs (len x_0 - 1)·p^n + len c digits.  A block short of room
    is re-laid, at an eighth more than it needs (`_room`).  After the
    step, a block whose digit w//2 is zero in every row (one strided
    check) and whose rows all end below half its width is re-laid
    narrower, and an all-zero block drops to width 1.  Within a step no
    row then reaches the next one, so every sum below is per row and
    per slot.

    Slot bounds.  A τ-product slot of target row i holds a coefficient of
    x_0^(p^n)·c_i: the nonzero digits of x_0^(p^n) lie p^n apart, so it
    sums at most ceil(len c_i / p^n) products of two digits, and
    (p-1)^2·ceil(len c / p^n) over the level's coefficients into the
    block bounds it.  Its rows stay apart because the width holds every
    row's product.  A point slot of row i, before the reduction, holds
    at most

        p-1       the digit below it in its row, shifted up;
        p-1       the same digit of row i+1, inside a block;
        (p-1)^2   c·y, c and the digit of y below p;
        p-1       per τ-term of row i, a reduced τ-product digit;

    so 2(p-1) + (p-1)^2 plus p-1 per τ-term of the row, and the slot
    holds the largest of these bounds over the rows (`_point_slot`).
    Every digit read is below p, because a point enters as reduced
    digits and each step starts from the previous `digits`.  So no slot
    reaches 256^slot, no carry crosses a slot, and each slot is the
    exact coefficient sum that `digits` reads mod p."""

    def __init__(self, ring, blocks):
        p = self.p = ring.p
        self.ring = ring
        self._rows = [end - start for start, end, _ in blocks]
        self._starts = [start for start, _, _ in blocks]
        block_of = {
            row: (b, row - start)
            for b, (start, end, _) in enumerate(blocks)
            for row in range(start, end)
        }
        # per source block with τ-terms, its levels n in order, each with
        # its targets (`_tau_target`); and each row's τ-term share of the
        # point slot
        share = [0] * len(block_of)
        self._taus = []
        for s, (_, _, terms) in enumerate(blocks):
            levels = {}
            for row, n, c in terms:
                if c:
                    b, i = block_of[row]
                    cs = levels.setdefault(n, {}).setdefault(b, {})
                    cs[i] = ring.add(cs[i], c) if i in cs else c
                    share[row] += p - 1
            if levels:
                self._taus.append((s, [
                    (n, p ** n, [
                        _tau_target(p, n, b, cs)
                        for b, cs in sorted(targets.items())
                    ])
                    for n, targets in sorted(levels.items())
                ]))
        self.slot = slot = _point_slot(p, max(share, default=0))
        self._bits = 8 * slot
        self._y = None

    def enter(self, vec):
        point = []
        for start, r in zip(self._starts, self._rows):
            rows = vec[start:start + r]
            w = _room(max(map(len, rows)) + 1)
            point.append((lay_rows(rows, w).rstrip(b"\0"), w))
        return point

    def leave(self, point):
        return [
            x[i:i + w].rstrip(b"\0")
            for (x, w), r in zip(point, self._rows)
            for i in range(0, r * w, w)
        ]

    def is_zero(self, point):
        return not any(x for x, _ in point)

    def times(self, point, c):
        """c·point for a digit c."""
        if c == 1:
            return point
        table = self.ring._scaled(c)
        return [(x.translate(table).rstrip(b"\0"), w) for x, w in point]

    def _horner_y(self, y):
        """y's longest row per block and its blocks packed per width, at
        the point slot: Horner adds the same y at every step."""
        if self._y is None or self._y[0] is not y:
            self._y = (y, [_row_len(x, w) for x, w in y], {})
        return self._y

    def step(self, point, c, y):
        """ρ_t(point) + c·y: per block one packed sum and one reduction."""
        ring, slot, bits = self.ring, self.slot, self._bits
        # the width each block needs: room for the θ-shift, for y's rows
        # and for each τ-product that lands in it
        need = [w + 1 if any(x[w - 1::w]) else w for x, w in point]
        if c:
            _, ylens, ypacked = self._horner_y(y)
            need = list(map(max, need, ylens))
        tops = []
        for s, levels in self._taus:
            x, w = point[s]
            top = x[:w].rstrip(b"\0")
            if top:
                tops.append((top, levels))
                k = len(top) - 1
                for _, stride, targets in levels:
                    for b, _, _, clen, _, _ in targets:
                        need[b] = max(need[b], k * stride + clen)
        point = [
            _relay(x, w, m) if m > w else (x, w)
            for (x, w), m in zip(point, need)
        ]
        acc = [0] * len(point)
        for top, levels in tops:
            for n, _, targets in levels:
                fx = ring.frob(top, n)
                for b, lo, rows, _, tslot, laid in targets:
                    w = point[b][1]
                    cs = laid.get(w)
                    if cs is None:
                        cs = laid[w] = pack(lay_rows(rows, w), tslot)
                    prod = ring.digits(
                        pack(fx, tslot) * cs, len(rows) * w, tslot
                    )
                    acc[b] += pack(prod, slot) << lo * w * bits
        out = []
        for b, ((x, w), r, a) in enumerate(zip(point, self._rows, acc)):
            if x:
                v = pack(x, slot)
                a += (v << bits) + (v >> w * bits)
            if c:
                yb = ypacked.get((b, w))
                if yb is None:
                    yx, yw = y[b]
                    yb = ypacked[b, w] = pack(relayout(yx, yw, w), slot)
                a += c * yb
            if not a:
                out.append((b"", 1))
                continue
            x = ring.digits(a, r * w, slot).rstrip(b"\0")
            # a zero digit in the middle of every row hints that the rows
            # fell well below the width: if so, shrink the block
            if w > 8 and not any(x[w // 2::w]):
                m = _row_len(x, w) + 1
                if 2 * m < w:
                    x, w = _relay(x, w, m)
            out.append((x, w))
        return out


def lay_rows(rows, width):
    """The digit strings `rows` (each a `bytes` of at most `width`
    digits) end to end in rows of `width` digits, the short ones
    padded with zeros."""
    return b"".join(r.ljust(width, b"\0") for r in rows)


def relayout(x, w, width):
    """The digits x, in rows of w digits, laid out in rows of width;
    narrower rows must hold every row's digits up to its last nonzero
    one."""
    if w == width or not x:
        return x
    rows = [x[i:i + w] for i in range(0, len(x), w)]
    if width < w:
        rows = [r.rstrip(b"\0") for r in rows]
    return lay_rows(rows, width)


def tighten(x, width):
    """The digits x, in rows of `width`, laid out again in rows of the
    largest degree plus one (width 1 for zero), trailing zeros
    dropped: big-int sizes then follow the degrees found, which are
    often far below their bounds."""
    rows = [x[i:i + width].rstrip(b"\0") for i in range(0, len(x), width)]
    tight = max(map(len, rows), default=1) or 1
    if tight == width:
        return x.rstrip(b"\0"), width
    return lay_rows(rows, tight).rstrip(b"\0"), tight


def _room(need):
    """The width a block is laid out at when it needs `need` digits per
    row: an eighth more, so that rows growing by one digit a step do
    not re-lay it at every step."""
    return need + need // 8


def _relay(x, w, need):
    """The block x, in rows of w digits, re-laid with room for `need`."""
    width = _room(need)
    return relayout(x, w, width).rstrip(b"\0"), width


def _row_len(x, w):
    """The length of the longest row of x, in rows of w digits."""
    return max(
        (len(x[i:i + w].rstrip(b"\0")) for i in range(0, len(x), w)),
        default=0,
    )


def _kernel_slot(p, ncols):
    """The slot of `_PackedDigits.nullspace`: ncols·(p-1)^2 + (p-1)."""
    return slot_width(ncols * (p - 1) ** 2 + (p - 1))


def _point_slot(p, share):
    """The point slot of `_PackedBlocks`: 2(p-1) + (p-1)^2 plus the
    largest τ-term share of a row, p-1 per τ-term."""
    return slot_width(2 * (p - 1) + (p - 1) ** 2 + share)


_TauTarget = collections.namedtuple(
    "_TauTarget", "block first rows clen slot laid"
)


def _tau_target(p, n, b, cs):
    """One target block of a level n of `_PackedBlocks`, its τ-term
    coefficients cs as {row in the block: digits}: (b, first row, the
    coefficient rows from the first to the last, longest coefficient,
    slot, packed coefficients per width).  A product slot sums at most
    ceil(len c / p^n) products of two digits."""
    lo, hi = min(cs), max(cs)
    rows = [cs.get(i, b"") for i in range(lo, hi + 1)]
    clen = max(1, *map(len, rows))
    slot = slot_width(-(-clen // p ** n) * (p - 1) ** 2)
    return _TauTarget(b, lo, rows, clen, slot, {})
