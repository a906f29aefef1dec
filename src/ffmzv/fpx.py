"""Dense polynomials over a prime field F_p, p < 256: the one kernel
behind the extension-field tables (`fields`), the modular probe and its
exact confirmation (`tmodule`), the point reduction (`motive`) and the
H_n fill (`carlitz`).

A polynomial outside the packed rings, as `gcd` and `is_irreducible`
take it, is a list or tuple of ints in range(p), constant term first;
moduli are monic.  Two rings keep their elements as byte digits and share the packing
(`slot_width`, `pack`, `_PackedDigits`, whose translate tables are
built once per p).  `PackedQuotient` is F_p[x]/(m): every product is
one big-int product and one Barrett reduction, k products by one
element sharing both (`mul_rows`); `elements` is its one conversion,
many coefficient lists reduced at once; the Frobenius is a precomputed
F_p-linear map.  It builds the extension-field tables, each element
times all q at once, runs the later rounds of Ben-Or's irreducibility
test (`is_irreducible`, whose first round is a packed root test and
whose gcds take the list `gcd`), and is the probe's field, whose
`point_plan` keeps a whole point of d elements as one packed integer
and applies ρ_t to it with one `digits` call (`_PackedPoint`).
`PackedPoly` is F_p[x] itself, where a sum is one packed sum and the
Frobenius a strided copy.  One `PackedPoly` per prime
(`poly.packed_ring`) serves every packed consumer: it is the exact
domain that confirms the probe's zeros (`criterion`), where its
`point_plan` keeps a point as one packed run of rows per block and
applies ρ_t to each block with one packed sum and one Kronecker
product per τ-level and target block (`_PackedBlocks`, for p <= 13;
larger p take the row loop over its element operations); its `mul`
the large products in F_p[θ] of `poly.Poly`; its `row_product` the
product of polynomials whose coefficients are rows of θ-digits (laid
out by `lay_rows`): every A[t] product on a packed field, the seed
products in t and the products in u of the point reduction
(`carlitz._RowTerms`, `motive`), each a sum of row products, one
factor packed once times each nonzero row of the other, whose every
slot sums the digit products one Kronecker product of the two would,
so one slot bound serves both; its `row_differences` every product
of the H_n fill (`carlitz`), all two-term factors of one term at a
time, whose sums are one `row_sum` each; and its `taylor_shift` the
point reduction's shift in u.  The
kernel of a matrix over F_p (`_PackedDigits.nullspace`, behind
`linalg.nullspace`) takes the matrix by columns and packs each one as
it comes into one packed integer with its F_p-combination in the high
slots; the witness search's columns are its iterates as both plans
hold them (`columns`): a probe point's d·deg digits, or the packed
ring's blocks, each re-laid at its widest width.  Only this module
packs, calls the Kronecker `product` and derives the slot bounds of
packed products, sums, reductions and eliminations.  A packed integer
is read back to digits by a byte-sliced reduction
(`_PackedDigits.digits`): one `bytes.translate` per byte of a slot and
round, never a loop over the slots.

Three kernels read back late, the delayed modular reduction of
Dumas, Giorgi and Pernet ("Dense linear algebra over word-size prime
fields: the FFLAS and FFPACK packages", ACM TOMS 35(3), 2008): each is
Z-linear in the digits, so the reduction mod p can wait until a slot
could overflow.  `PackedPoly.taylor_shift` across its Horner steps,
`PackedPoly.row_differences` across the factors of one fill term and
`_PackedBlocks.step` across the exact confirm's applications of ρ_t
each carry a packed integer and a running bound on its slots, and
call `digits` only where the value is read (it leaves the kernel, is
tested for zero, becomes columns, is re-laid, or is a top coordinate
for the τ-products, read back alone) or before a step whose bound
would pass 256^slot - 1.  Each slot is set, as before, for one step
from reduced digits, so a read before every step is the case where
the bound allows one.  The probe's `_PackedPoint` reads back at every
step: its top digits fold back times x^deg mod m, so a bound grows
(p+1)-fold a step, and a delayed plan, prototyped, was no faster on
the sweeps.
Where the packed F_p[θ] runs is
`fields.FieldSpec.packed`; p >= 256 and extension fields take the
table-driven `Poly` arithmetic.
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


def is_irreducible(m, p) -> bool:
    """Ben-Or's test for monic m of degree n >= 1 over F_p, p < 256
    (every field `fields` builds tables for, and every probe field):
    gcd(x^(p^i) - x, m) = 1 for i = 1, ..., n // 2 (Ben-Or,
    "Probabilistic algorithms in finite fields", FOCS 1981).  A
    reducible m has an irreducible factor of some degree i <= n/2, and
    that factor divides x^(p^i) - x, so the test is exact.  It stops
    soon after the first common factor, so a random reducible
    candidate, which most likely has a small one, is rejected after a
    few p-th powers (Gao–Panario, "Tests and constructions of
    irreducible polynomials over finite fields", 1997).

    Round 1 is a root test: x^p - x is the product of x - a over
    a in F_p, so gcd(x^p - x, m) != 1 exactly when m(a) = 0 for some a
    (`_has_root`).  The later rounds run in `PackedQuotient(m, p)`,
    whose translate tables are shared per p, and take one gcd after
    round 3 and one after round n // 2, each on the product of the
    x^(p^i) - x mod m since the last: an irreducible factor of m
    divides that product exactly when it divides one of its factors,
    so the product is coprime to m exactly when every factor is.  A
    candidate with a factor of degree 2 or 3, the most common after
    the root test, is rejected after round 3.  Fewer gcds pay because
    at degree 21 and p <= 3 one gcd on lists costs about as much as
    ten packed p-th powers."""
    n = len(m) - 1
    if n < 1:
        return False
    if n > 1 and _has_root(m, p):
        return False
    if n < 4:
        return True
    ring = PackedQuotient(m, p)
    x, = ring.elements([[0, 1]])
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

    def product(self, a, b, top: int) -> bytes:
        """The digits of the product of two digit strings, by one
        big-int product: no coefficient sum exceeds `top`, which sets
        the slot width.  All len(a) + len(b) - 1 digits are returned,
        trailing zeros included."""
        slot = slot_width(top)
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

    def nullspace(self, columns):
        """The right kernel of a matrix over F_p given by its columns,
        each a `bytes` (or a list of ints) of its nrows digits, as the
        basis `linalg.rref` reads off: one vector per free column c, in
        order, with 1 at c and 0 at every other free column.

        Each column is packed as it comes into one integer of
        nrows + ncols slots: its entries, then its F_p-combination of
        the columns, which starts as a 1 at its own column, so one
        big-int operation updates both.  The columns are walked in
        order, and each is reduced against the pivots found so far, in
        the order they were found: with f the pivot row's slot mod p,
        one v += (p-f)·P, slots left unreduced, then one `digits` call.
        A column left nonzero is a pivot: its pivot row is its lowest
        nonzero digit, where it is normalized to 1.  A column left zero
        is free, and its combination is the basis vector.

        Why the basis is the RREF's.  Pivot k was reduced by every
        earlier pivot, and each of those is zero at the pivot rows
        before it, so by induction every pivot is zero mod p at the
        pivot rows of the earlier pivots: a reduction never undoes an
        earlier one, and a column reduces to zero exactly when it lies
        in the span of the columns before it.  The pivot columns are
        then the RREF's.  A pivot's combination involves only its own
        column and earlier pivot columns, so a free column's has 1 at
        that column and 0 at every other free column, and only one
        kernel vector has that pattern.  Neither depends on the order
        of the rows, or on rows of zeros.

        Slot bound.  A column enters with digits below p.  Every pivot
        is reduced and normalized, so its digits are below p, and a
        reduction adds (p-f)·P with 1 <= p-f <= p-1 (none when f = 0):
        at most (p-1)^2 per slot.  A column meets at most one reduction
        per pivot found before it, fewer than ncols, so no slot
        exceeds ncols·(p-1)^2 + (p-1) (`_kernel_slot`).  No slot
        reaches 256^slot, no carry crosses a slot, and each f read and
        each `digits` slot is the exact sum, read mod p."""
        p, ncols = self.p, len(columns)
        nrows = len(columns[0]) if columns else 0
        slot = _kernel_slot(p, ncols)
        bits, k = 8 * slot, nrows + ncols
        mask = (1 << bits) - 1
        pivots, basis = [], []
        for c, column in enumerate(columns):
            v = pack(column, slot) | 1 << bits * (nrows + c)
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
    """F_p[x]/(m) on packed digits: the modular probe's arithmetic, the
    ring Ben-Or's later rounds run in (`is_irreducible`) and the one
    the extension-field tables are built on (`fields.FieldSpec`).

    An element is a `bytes` of length deg = deg(m), digit j the
    coefficient of x^j, so p < 256.  Arithmetic runs on the integers
    those digits spell in base 256^slot (Kronecker substitution): one
    big-int product is the polynomial product, as long as no slot
    exceeds 256^slot - 1.  Every product or sum packed at `slot` holds
    at most deg·(p-1)^2 + (p-1) per slot (`_reduce_rows`), which sets
    it: one byte for p <= 3 at degree 21.  Digits are brought back to
    range(p) per slot by the byte-sliced `digits`.

    Products are taken k at a time: `mul_rows` multiplies one element
    by k elements laid out `stride` = 2·deg - 1 digits apart (`lay`),
    which is one big-int product, and reduces all k rows at once by
    Barrett's reduction (`_reduce_rows`): two more products by fixed
    polynomials and three `digits` calls for any k.  `mul` and `power`
    are `mul_rows` on one row.  `elements` is the one conversion: it
    takes many coefficient lists to their residues by one reduction of
    their chunks' products with x^(j·deg) mod m.  `point_plan` is the
    probe's ρ_t on a whole point (`_PackedPoint`), which folds every
    row's top digit back with `xdeg`, the digits of x^deg mod m.
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
        by `lay`: row i's residue is the deg digits from i·stride on."""
        slot = self.slot
        a = self.digits(pack(x, slot) * rows, k * self.stride, slot)
        return self._reduce_rows(a, k)

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
        # only the digits from 2deg-2 on are read: shift before `digits`
        q = (a & high) * self._mu >> 8 * slot * (2 * deg - 2)
        q = pack(self.digits(q, n - deg + 2, slot), slot) & low
        return self.digits(a + q * self._negm, n, slot)

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
            xi, one = self.elements([[0, 1], [1]])
            y = self.power(xi, self.p ** n)
            powers = [one]
            for _ in range(self.deg - 1):
                powers.append(self.mul(powers[-1], y))
            images = self._frob[n] = tuple(pack(z, slot) for z in powers)
        return self.digits(sum(map(operator.mul, x, images)), self.deg, slot)

    def point_plan(self, blocks):
        """ρ_t on one packed point (`_PackedPoint`), for the blocks
        (start, end, τ-terms) of a `tmodule.TModule` with coefficients
        in this ring: the probe's plan."""
        return _PackedPoint(self, blocks)


class _PackedPoint:
    """ρ_t on a probe point of F_{p^deg}^d held as one `bytes` of d·deg
    digits, row i at digits i·deg … i·deg+deg−1, acting on the integer
    those digits spell in base 256^slot, all rows at once.  The plan
    holds the masks, the packed x^deg mod m and, per block and level,
    the packed constants of its τ-terms and its other coefficients laid
    out for one `PackedQuotient.mul_rows`.  One application
    ρ_t(v) + c·y is:

    * θ·I + N: each row's top digit masked out and the rest shifted up
      one slot; the top digits spread to slot 0 of their rows and
      multiplied once by the packed x^deg mod m; the point shifted down
      one row added, with the block-end rows masked out;
    * per block and level n, the image x^(p^n) of the block's top
      coordinate, once: a term with a constant coefficient c adds c
      times its packed digits at the term's row, unreduced; the level's
      other coefficients, laid out once in the plan 2·deg−1 digits
      apart (`PackedQuotient.lay`), are multiplied by the image in one
      product and reduced together by one Barrett reduction
      (`PackedQuotient.mul_rows`, whose `_reduce_rows` proves it and
      its own slot bound); each reduced row is added in at its row;
    * Horner's c·y, unreduced;
    * one `digits` call, which reduces every slot mod p.

    The slot width is derived from the rows' worst sums.  Before the
    reduction a slot of row i holds at most

        p−1       the digit below it in its row, shifted up;
        (p−1)²    the row's top digit times one digit of x^deg mod m;
        p−1       the same digit of row i+1, inside a block;
        (p−1)²    Horner's c·y, c a digit;
        c·(p−1)   per τ-term of row i with a constant coefficient c;
        p−1       per τ-term of row i with any other coefficient: a
                  digit of its reduced row (two terms of one row and
                  level are added in the plan and take one row);

    so at most 2(p−1) + 2(p−1)² plus the row's τ-term share, and the
    slot holds the largest of these bounds over the rows.  The parts
    stay in their slots: every digit read is below p, because a point
    enters as reduced elements and each application starts from the
    previous `digits`; a row loses its top digit before the shift, so
    nothing moves into the next row; a spread top digit is alone in
    its row, and x^deg mod m has deg digits, so their product fills
    that row only; a τ-image and a reduced row have deg digits and
    start at their row.  So no slot reaches 256^slot, no carry crosses
    a slot, and each slot is the exact coefficient sum that `digits`
    reads mod p.  Over every motive of depth <= 3 up to weight 8, 26,
    40 and 48 at q = 2, 3, 5 and 7 the slot is one byte; it is two up
    to weight 260 at q = 131 and three up to weight 500 at q = 251."""

    def __init__(self, ring, blocks):
        p, deg = ring.p, ring.deg
        d = blocks[-1][1]
        self.ring, self.deg, self.size = ring, deg, d * deg
        self._zero = bytes(d * deg)
        # per block with τ-terms, its levels n in order, each with the
        # (row, digit) of its constant coefficients and {row: c} of the
        # others; and each row's τ-term share of the slot bound
        share = [0] * d
        taus = []
        for start, _, terms in blocks:
            levels = {}
            for row, n, c in terms:
                consts, others = levels.setdefault(n, ([], {}))
                if any(c[1:]):
                    others[row] = ring.add(others[row], c) if row in others else c
                    share[row] += p - 1
                else:
                    consts.append((row, c[0]))
                    share[row] += c[0] * (p - 1)
            if levels:
                taus.append((start * deg, levels))
        self.slot = slot = slot_width(2 * (p - 1) + 2 * (p - 1) ** 2 + max(share))
        self._bits = bits = 8 * slot
        self._row = row = bits * deg
        self._top_shift = bits * (deg - 1)
        full, empty = b"\xff" * slot, bytes(slot)
        self._low = int.from_bytes((full * (deg - 1) + empty) * d, "little")
        self._first = int.from_bytes((full + empty * (deg - 1)) * d, "little")
        self._inner = int.from_bytes(b"".join(
            (full if i + 1 < end else empty) * deg
            for start, end, _ in blocks
            for i in range(start, end)
        ), "little")
        self._xdeg = pack(ring.xdeg, slot)
        # the constants of a level as one packed integer, Σ c·256^(slot·deg·row),
        # and its other coefficients laid out for `PackedQuotient.mul_rows`
        self._taus = [
            (lo, lo + deg, [
                (n, sum(c << row * r for r, c in consts), _tau_rows(ring, others))
                for n, (consts, others) in levels.items()
            ])
            for lo, levels in taus
        ]

    def enter(self, vec):
        return b"".join(vec)

    def leave(self, point):
        deg = self.deg
        return [point[i:i + deg] for i in range(0, self.size, deg)]

    def is_zero(self, point):
        return point == self._zero

    def columns(self, points):
        """Points as the columns of one matrix: each its own d·deg
        digits."""
        return points

    def times(self, x, c):
        """c·x for a digit c."""
        if c == 1:
            return x
        slot = self.slot
        return self.ring.digits(c * pack(x, slot), self.size, slot)

    def step(self, point, c, x):
        """ρ_t(point) + c·x as one packed sum and one reduction."""
        ring, slot, deg = self.ring, self.slot, self.deg
        v = pack(point, slot)
        acc = (
            ((v & self._low) << self._bits)
            + ((v >> self._top_shift) & self._first) * self._xdeg
            + ((v >> self._row) & self._inner)
        )
        if c:
            acc += c * pack(x, slot)
        zero = ring.zero
        for lo, hi, levels in self._taus:
            top = point[lo:hi]
            if top == zero:
                continue
            for n, consts, others in levels:
                fx = ring.frob(top, n)
                if consts:
                    acc += pack(fx, slot) * consts
                if others:
                    rows, k, first, places, span = others
                    prods = ring.mul_rows(fx, rows, k)
                    laid = bytearray(span)
                    for src, dst in places:
                        laid[dst:dst + deg] = prods[src:src + deg]
                    acc += pack(laid, slot) << first * self._row
        return ring.digits(acc, self.size, slot)


def _tau_rows(ring, others):
    """A level's non-constant coefficients {row: c} as `mul_rows` takes
    them: (their rows laid out, their count, the first row, the
    (product digit, digit from the first row) of each, the digits from
    the first row to the last); None when there are none."""
    if not others:
        return None
    rows = sorted(others)
    deg, first = ring.deg, rows[0]
    return (
        ring.lay([others[r] for r in rows]),
        len(rows),
        first,
        [(i * ring.stride, (r - first) * deg) for i, r in enumerate(rows)],
        (rows[-1] - first + 1) * deg,
    )


class PackedPoly(_PackedDigits):
    """F_p[x] on packed digits: the exact ring the probe's quotient
    has no modulus for, and a coefficient domain of `tmodule.TModule`
    with x = θ.

    An element is a `bytes`, digit j the coefficient of x^j, with no
    trailing zero digit, so b"" is zero; `convert_all` takes `Poly`s
    over F_p to their digits, and `Poly(field, x)` takes them back.  A sum,
    and the step x·a + b, adds at most two digits per slot, 2(p-1),
    which sets `slot`: one byte for p <= 128, two above.  A product is
    one big-int product whose slots hold its largest coefficient sum,
    min(len a, len b) products of two digits; a product by one digit
    is one `bytes.translate`.  x ↦ x^(p^n) spreads the digits p^n
    apart, one strided assignment.  `row_product` multiplies
    polynomials in a second variable whose coefficients are elements
    laid out in rows, as a sum of big-int products of one factor by
    each nonzero row of the other, in the slot one Kronecker product
    of the two would take, `row_sum` adds any number of them in one
    packed sum, `row_differences` multiplies
    one by two-term factors u^a - x^b·u^c with one packed sum each,
    and `taylor_shift` shifts that variable by a polynomial in x with
    packed sums; these two read their digits back only where a slot
    could overflow.
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

    def convert_all(self, cs):
        """The digits of polynomials over F_p (anything with `coeffs`)."""
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
        return self.product(a, b, len(a) * (self.p - 1) ** 2)

    def row_product(self, a, b):
        """The product of two polynomials in a second variable u (t or
        t-θ) over F_p[x], each a pair (x, w): x a run of rows of w
        digits, digit i·w + j the coefficient of x^j·u^i.  Returns the
        product as such a pair, re-laid at its largest found degree in
        x plus one (`tighten`), trailing zeros dropped.

        A sum of row products at the width W = wa + wb - 1: the factor
        with more nonzero rows is re-laid at W and packed once as A,
        and each nonzero row b_i of the other adds A·b_i moved i rows
        up, a big-int product by a short one whose cost follows the
        digits b_i holds, not W, where a Kronecker product of both
        factors would multiply the short one's padding too.  The
        x-degrees of a row product stay below W, so the slots of two
        u-powers never meet, and every slot of the sum, row k digit j,
        is Σ x_{l,m}·y_{i,n} over l + i = k, m + n = j: the digit
        products a Kronecker product at W would sum, each once, and a
        partial sum over fewer rows b_i is at most the whole.  So the
        slot of the whole bounds every partial sum, and it is bounded
        two ways and takes the smaller bound:

        * densely, by min(rows)·min(wa, wb) products of two digits,
          each at most (p-1)^2;
        * by digit sums: each digit x_i meets at most one y_j, itself
          at most p-1, so the sum is at most (p-1)·Σ x_i, and likewise
          at most (p-1)·Σ y_j.  Re-laying moves digits and adds
          zeros, so Σ x_i is the digit sum of x as given.

        The digit sums cost a pass over both factors, so they are
        taken only when the dense bound needs more than one byte:
        H_n's rows, for one, hold nonzero θ-digits at multiples of q
        only.  No partial sum carries across a slot, and the sum is
        read back once (`digits`).  Which factor is walked changes no
        slot and no digit, so the product is symmetric byte for
        byte."""
        (x, wa), (y, wb) = a, b
        if not x or not y:
            return b"", 1
        p = self.p
        width = wa + wb - 1
        xs, ys = _split(x, wa), _split(y, wb)
        top = min(len(xs), len(ys)) * min(wa, wb) * (p - 1) ** 2
        if top > 255:
            top = min(top, (p - 1) * min(sum(x), sum(y)))
        slot = slot_width(top)
        n = (len(xs) + len(ys) - 1) * width
        if len(xs) - xs.count(b"") < len(ys) - ys.count(b""):
            x, wa, xs, ys = y, wb, ys, xs
        big = pack(x if wa == width else lay_rows(xs, width), slot)
        bits = 8 * slot * width
        total = 0
        for i, row in enumerate(ys):
            if row:
                total += big * pack(row, slot) << bits * i
        return tighten(self.digits(total, n, slot), width)

    def row_sum(self, terms):
        """The sum of polynomials laid out as `row_product` takes them,
        a list of pairs (x, w), as such a pair, tightened: one packed
        sum at the widest w, whose slots hold at most len(terms)·(p-1)."""
        width = max(w for _, w in terms)
        slot = slot_width(len(terms) * (self.p - 1))
        n = max(-(-len(x) // w) for x, w in terms) * width
        total = sum(pack(relayout(x, w, width), slot) for x, w in terms)
        return tighten(self.digits(total, n, slot), width)

    def row_differences(self, f, factors, width):
        """f·Π (u^a - x^b·u^c) over the triples (a, b, c) of `factors`,
        f a pair (x, w) laid out as `row_product` takes it, as such a
        pair at `width`, which must exceed every x-degree of f by the
        sum of the b: f re-laid at `width` and packed once, then per
        factor the integer moved a rows up plus its negation moved c
        rows and b digits up, so no Kronecker product.  Trailing zeros
        are dropped; f itself is returned for no factors.

        Delayed reduction.  The negation is p-1 times the integer
        (p-1 ≡ -1) wherever that fits: a factor takes a slot bound B to
        B + (p-1)·B = p·B.  Where p·B would pass 256^slot - 1, the
        digits are read back, unless they just were, and negated by
        one translate (`neg`), so the factor's sums hold at most
        2(p-1), the bound of `add` that sets `slot`.  So at p = 3 four
        factors share one read, at p = 131 two, and for 13 < p < 128,
        in one-byte slots, each factor is read back, as a sum of two
        digit strings always was.  No slot reaches 256^slot, no carry
        crosses a slot, and each slot read is the exact sum mod p."""
        if not factors:
            return f
        p, slot = self.p, self.slot
        room, bits = 256 ** slot - 1, 8 * slot
        x = relayout(*f, width)
        v, bound, n = pack(x, slot), p - 1, len(x)
        for a, b, c in factors:
            if p * bound <= room:
                neg, bound = (p - 1) * v, p * bound
            else:
                if x is None:
                    x = self.digits(v, n, slot)
                    v = pack(x, slot)
                neg, bound = pack(self.neg(x), slot), 2 * (p - 1)
            x = None
            v = (v << bits * a * width) + (neg << bits * (c * width + b))
            n += max(a * width, c * width + b)
        return self.digits(v, n, slot).rstrip(b"\0"), width

    def taylor_shift(self, f, shift):
        """f(u + c) for f a polynomial in u laid out as `row_product`
        takes it, a pair (x, width), and c = Σ a·x^e over the pairs
        (a, e) in `shift`, as in `poly.taylor_shift`: its Taylor shift,
        each level m = 1, p, p^2, ... run at once on every group of p
        blocks of m rows.  Returns the pair, tightened; `width` must
        exceed the x-degree of every product the shift sums, before any
        cancellation mod p (the staircase widths of `carlitz._RowTerms`
        are proved so).

        In place, the Horner step acc <- B_k + (u^m + c^m)·acc of a
        group leaves acc where it lies, which is u^m·acc seen from block
        k, and adds c^m·acc moved one block down: the blocks above k of
        every group are masked out, moved down one block, shifted by
        e·m digits and times a per monomial, and added to the whole,
        one packed sum.

        Delayed reduction.  A step takes a slot bound B to
        B·(1 + Σ a), so the slot is set for one step on reduced digits,
        (p-1)·(1 + Σ a), and the running bound decides when the digits
        are read back: only before a step that would pass
        256^slot - 1, and once at the end.  The shift by θ at p = 3
        runs six steps on one reduction, the twist's shift by θ - θ^3
        three.  No slot then reaches 256^slot, no carry crosses a slot,
        and each slot read is the exact sum mod p."""
        x, width = f
        p = self.p
        grow = 1 + sum(a for a, _ in shift)
        slot = slot_width((p - 1) * grow)
        room = 256 ** slot - 1
        rows = -(-len(x) // width)
        n = rows * width
        unit = b"\xff" * slot
        acc, bound = pack(x, slot), p - 1
        m = 1
        while m < rows:
            block = m * width
            groups = -(-rows // (p * m))
            down = 8 * slot * block
            # blocks at and above rows / m are empty
            for k in range(min(p, -(-rows // m)) - 2, -1, -1):
                if bound * grow > room:
                    acc, bound = pack(self.digits(acc, n, slot), slot), p - 1
                above = bytes(slot * (k + 1) * block) + unit * ((p - 1 - k) * block)
                mask = int.from_bytes(above * groups, "little")
                top = (acc & mask) >> down
                for a, e in shift:
                    acc += top * a << 8 * slot * e * m
                bound *= grow
            m *= p
        return tighten(self.digits(acc, n, slot), width)

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
    per block of a `tmodule.TModule`: block b a triple (v, w, B), v the
    integer its rows spell at the point slot, end to end in rows of w
    digits, each block at a width of its own, and B the running bound
    on its slots: p-1 once its digits are reduced, and an all-zero
    block is (0, 1, 0).

    One application ρ_t(v) + c·y, per block, is one packed sum at the
    point slot: the block shifted up one slot (θ·I) plus the block
    shifted down one row (the in-block shift N; the last row takes
    nothing), plus c times y's block, packed once per width, plus one
    reduced τ-product per (source block, level) with a term in the
    block.  Per source block and level, the block's top coordinate x_0,
    its first row read back alone, is twisted once, x_0^(p^n)
    (`PackedPoly.frob`), and multiplied by the level's coefficients
    into each target block, laid out as rows of the target's width from
    its first to its last row with a term, in one Kronecker product
    reduced at a slot of its own.

    Widths.  Before a step every block must have room for what lands in
    it: the θ-shift needs slot w-1 of every row to be zero (one strided
    mask on the integer, kept per block for its latest width), c·y
    needs y's rows, and the τ-product of a row needs
    (len x_0 - 1)·p^n + len c digits.  A block short of room is read
    back and re-laid, at an eighth more than it needs (`_room`).
    Wherever a block is read back to be packed again, a block whose
    digit w//2 is zero in every row (one strided check) and whose rows
    all end below half its width is re-laid narrower, and an all-zero
    block drops to width 1.  Within a step no row then reaches the next
    one, so every sum below is per row and per slot.

    Slot bounds.  A τ-product slot of target row i holds a coefficient of
    x_0^(p^n)·c_i: the nonzero digits of x_0^(p^n) lie p^n apart, so it
    sums at most ceil(len c_i / p^n) products of two digits, and
    (p-1)^2·ceil(len c / p^n) over the level's coefficients into the
    block bounds it.  Its rows stay apart because the width holds every
    row's product.  A point slot of row i, after a step from slots at
    most B, holds at most

        B         the slot below it in its row, shifted up;
        B         the same slot of row i+1, inside a block;
        c·(p-1)   c·y, the digits of y below p;
        p-1       per τ-term of row i, a reduced τ-product digit;

    so a block's bound goes B -> 2B + c·(p-1) plus the largest share, p-1
    per τ-term, of its rows.  The slot is set for one step from reduced
    digits with c a digit: 2(p-1) + (p-1)^2 plus the largest share of
    a row (`_point_slot`).

    Delayed reduction (the delayed modular reduction of Dumas, Giorgi
    and Pernet, "Dense linear algebra over word-size prime fields: the
    FFLAS and FFPACK packages", ACM TOMS 35(3), 2008).  A block is read
    back by one `digits` call only where its value is read (`leave`,
    `is_zero`, `columns`, a re-lay, Horner's y, `times` by a digit
    other than 1) or before a step that would take its bound past
    256^slot - 1; a top coordinate is read back alone.  In the q=3
    exact confirms of the weight-80 tuples and of Eu_5 a block takes
    about eight steps per read.
    So no slot reaches 256^slot, no carry crosses a slot, and each slot
    read is the exact coefficient sum mod p."""

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
        self._shares = [max(share[start:end]) for start, end, _ in blocks]
        self.slot = slot = _point_slot(p, max(share, default=0))
        self._bits = 8 * slot
        self._top = 256 ** slot - 1
        self._last = [(0, 0)] * len(blocks)
        self._y = None

    def _packed(self, x, w):
        """The block of reduced digits x in rows of w digits."""
        return pack(x, self.slot), w, self.p - 1

    def _digits(self, block, r):
        """The digits of a block of r rows, read back mod p, trailing
        zeros dropped."""
        v, w, _ = block
        return self.ring.digits(v, r * w, self.slot).rstrip(b"\0") if v else b""

    def _reduced(self, block, r):
        """The block read back and packed again, re-laid narrower when
        its rows all end below half its width, which a zero digit w//2
        in every row (one strided check) hints at."""
        x, w = self._digits(block, r), block[1]
        if not x:
            return 0, 1, 0
        if w > 8 and not any(x[w // 2::w]):
            m = _row_len(x, w) + 1
            if 2 * m < w:
                x, w = _relay(x, w, m)
        return self._packed(x, w)

    def _last_slots(self, b, w):
        """The mask of slot w-1 of every row of block b at width w."""
        width, mask = self._last[b]
        if width != w:
            unit = bytes(self.slot * (w - 1)) + b"\xff" * self.slot
            mask = int.from_bytes(unit * self._rows[b], "little")
            self._last[b] = w, mask
        return mask

    def enter(self, vec):
        point = []
        for start, r in zip(self._starts, self._rows):
            rows = vec[start:start + r]
            w = _room(max(map(len, rows)) + 1)
            point.append(self._packed(lay_rows(rows, w), w))
        return point

    def leave(self, point):
        out = []
        for block, r in zip(point, self._rows):
            x, w = self._digits(block, r), block[1]
            out += [x[i:i + w].rstrip(b"\0") for i in range(0, r * w, w)]
        return out

    def is_zero(self, point):
        return not any(self._digits(b, r) for b, r in zip(point, self._rows))

    def columns(self, points):
        """Points as the columns of one matrix, all of one length: each
        block read back, re-laid at its widest width over the points and
        padded to its rows."""
        points = [
            [(self._digits(b, r), b[1]) for b, r in zip(pt, self._rows)]
            for pt in points
        ]
        widths = [max(ws) for ws in zip(*([w for _, w in pt] for pt in points))]
        return [
            b"".join(
                relayout(x, w, width).ljust(r * width, b"\0")
                for (x, w), width, r in zip(pt, widths, self._rows)
            )
            for pt in points
        ]

    def times(self, point, c):
        """c·point for a digit c."""
        if c == 1:
            return point
        table = self.ring._scaled(c)
        return [
            self._packed(self._digits(b, r).translate(table), b[1])
            for b, r in zip(point, self._rows)
        ]

    def _horner_y(self, y):
        """y's longest row per block, its blocks read back and its blocks
        packed per width, at the point slot: Horner adds the same y at
        every step."""
        if self._y is None or self._y[0] is not y:
            ys = [(self._digits(b, r), b[1]) for b, r in zip(y, self._rows)]
            self._y = (y, [_row_len(x, w) for x, w in ys], ys, {})
        return self._y

    def step(self, point, c, y):
        """ρ_t(point) + c·y: per block one packed sum, read back first
        only where the step would overflow its slot."""
        ring, slot, bits = self.ring, self.slot, self._bits
        extra = c * (self.p - 1)
        point = [
            self._reduced(b, r) if 2 * b[2] + extra + s > self._top else b
            for b, r, s in zip(point, self._rows, self._shares)
        ]
        # the width each block needs: room for the θ-shift, for y's rows
        # and for each τ-product that lands in it
        need = [
            w + 1 if v & self._last_slots(b, w) else w
            for b, (v, w, _) in enumerate(point)
        ]
        if c:
            _, ylens, ys, ypacked = self._horner_y(y)
            need = list(map(max, need, ylens))
        tops = []
        for s, levels in self._taus:
            v, w, _ = point[s]
            top = ring.digits(v & ((1 << w * bits) - 1), w, slot).rstrip(b"\0")
            if top:
                tops.append((top, levels))
                k = len(top) - 1
                for _, stride, targets in levels:
                    for b, _, _, clen, _, _ in targets:
                        need[b] = max(need[b], k * stride + clen)
        point = [
            self._packed(*_relay(self._digits(b, r), b[1], m)) if m > b[1] else b
            for b, r, m in zip(point, self._rows, need)
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
        for b, ((v, w, bound), a, s) in enumerate(zip(point, acc, self._shares)):
            if v:
                a += (v << bits) + (v >> w * bits)
            if c:
                yb = ypacked.get((b, w))
                if yb is None:
                    yb = ypacked[b, w] = pack(relayout(*ys[b], w), slot)
                a += c * yb
            out.append((a, w, 2 * bound + extra + s) if a else (0, 1, 0))
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


def _split(x, width):
    """The rows of x, in rows of `width` digits, trailing zeros
    dropped (b"" for a zero row)."""
    return [x[i:i + width].rstrip(b"\0") for i in range(0, len(x), width)]


def tighten(x, width):
    """The digits x, in rows of `width`, laid out again in rows of the
    largest degree plus one (width 1 for zero), trailing zeros
    dropped: big-int sizes then follow the degrees found, which are
    often far below their bounds."""
    rows = _split(x, width)
    tight = max(map(len, rows), default=1) or 1
    if tight == width:
        return x.rstrip(b"\0"), width
    return lay_rows(rows, tight).rstrip(b"\0"), tight


def staircase(x, width):
    """max_j (deg a_j + j) over the nonzero rows a_j of x, in rows of
    `width` digits (0 for zero): the bound on the x-degrees of a Taylor
    shift by x of the polynomial in u whose coefficient of u^j is a_j.
    Rows are read from the top down, and the scan stops at the first
    row j with j + width - 1 at or below the largest found."""
    best = 0
    for j in range(-(-len(x) // width) - 1, -1, -1):
        if j + width - 1 <= best:
            break
        deg = len(x[j * width:(j + 1) * width].rstrip(b"\0")) - 1
        if deg >= 0 and deg + j > best:
            best = deg + j
    return best


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
    return max(map(len, _split(x, w)), default=0)


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
