import operator
import random

import pytest

from ffmzv import fpx
from ffmzv.fields import FieldSpec, field_for_q
from ffmzv.linalg import nullspace, rref_nullspace

PRIMES = [2, 3, 5, 7, 131, 251]


def _times(field, rows, v):
    """M·v over the field: integer sums mod p on a prime field, the
    tables otherwise."""
    if field.e == 1:
        return [sum(map(operator.mul, row, v)) % field.p for row in rows]
    out = []
    for row in rows:
        acc = 0
        for a, x in zip(row, v):
            acc = field.add(acc, field.mul(a, x))
        out.append(acc)
    return out


def _of_rank(rng, p, nrows, ncols, rank):
    """A random nrows × ncols matrix over F_p of rank at most `rank`: a
    product of random nrows × rank and rank × ncols factors."""
    a = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
    b = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank)]
    return [
        [sum(x * y for x, y in zip(ra, col)) % p for col in zip(*b)]
        for ra in a
    ]


def _check_kernel(field, rows, ncols, basis):
    """Every vector is in the kernel and in canonical form: its last
    nonzero entry is a 1 at its free column, the free columns come in
    order, and each vector is 0 at every other free column."""
    zero = [0] * len(rows)
    free = []
    for v in basis:
        assert len(v) == ncols and all(0 <= x < field.q for x in v)
        assert _times(field, rows, v) == zero
        free.append(next(c for c in reversed(range(ncols)) if v[c]))
        assert v[free[-1]] == 1
    assert free == sorted(set(free))
    for v in basis:
        assert [v[c] for c in free].count(0) == len(free) - 1


def _columns(field, rows):
    """The columns of the matrix with the given rows, as `nullspace`
    takes them: `bytes` on a packed field, lists of ints otherwise."""
    cols = zip(*rows)
    return [bytes(c) for c in cols] if field.packed else [list(c) for c in cols]


def _cases(p, rng):
    """Matrices over F_p that cover every rank, dependent and duplicate
    columns, the zero and identity matrices and one column."""
    cases = []
    for _ in range(12):
        nrows, ncols = rng.randint(1, 24), rng.randint(1, 24)
        for rank in {0, 1, min(nrows, ncols) // 2, min(nrows, ncols)}:
            cases.append(_of_rank(rng, p, nrows, ncols, rank))
    base = _of_rank(rng, p, 15, 9, 6)
    cases.append([r + r[:3] + [r[0]] for r in base])  # duplicate columns
    cases.append([
        r + [(2 * r[1] + (p - 1) * r[4]) % p] for r in base
    ])  # a dependent column
    cases.append([[0] * 7 for _ in range(5)])
    cases.append([[int(i == j) for j in range(11)] for i in range(11)])
    cases.append([[p - 1] * 9 for _ in range(6)])
    cases.append([[rng.randrange(p)] for _ in range(8)])
    cases.append([[0] for _ in range(8)])
    cases.append([[rng.randrange(p) for _ in range(30)] for _ in range(3)])
    return cases


@pytest.mark.parametrize("p", PRIMES)
def test_packed_nullspace_matches_rref(p):
    """The packed columns give the list-based `rref` basis, vector for
    vector, on a packed field."""
    field = field_for_q(p)
    assert field.packed
    rng = random.Random(p)
    for rows in _cases(p, rng):
        ncols = len(rows[0])
        basis = nullspace(field, _columns(field, rows))
        assert basis == rref_nullspace(field, rows, ncols), rows
        assert nullspace(field, [list(c) for c in zip(*rows)]) == basis
        _check_kernel(field, rows, ncols, basis)


@pytest.mark.parametrize("p,nrows,ncols,rank", [
    (2, 500, 170, 150), (3, 500, 170, 170), (5, 480, 160, 40),
    (7, 300, 170, 120), (131, 500, 170, 30), (251, 200, 170, 100),
    (3, 40, 170, 40),
])
def test_packed_nullspace_matches_rref_at_size(p, nrows, ncols, rank):
    """Up to 500 × 170, the size of a witness system at a high bound."""
    field = field_for_q(p)
    rows = _of_rank(random.Random(nrows + ncols + p), p, nrows, ncols, rank)
    basis = nullspace(field, _columns(field, rows))
    assert len(basis) == ncols - rank
    assert basis == rref_nullspace(field, rows, ncols)
    _check_kernel(field, rows, ncols, basis)


@pytest.mark.parametrize("q", PRIMES + [4, 9, 257])
def test_empty_rows_give_the_identity(q):
    """Columns of no entries: every column is free.  With no columns
    there is nothing to solve for, and the basis is empty."""
    field = field_for_q(q)
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace(field, [[], [], []]) == identity
    assert nullspace(field, [b"", b"", b""]) == identity
    assert nullspace(field, []) == []


def _worst_case(p, n):
    """An n × n matrix whose packed reduction reaches the slot bound:
    pivot k, once reduced, is 0 above row k, 1 at row k and p-1 below
    it, and column k is the sum of pivots 0..k, so every column reads
    f = 1 at every pivot row and gains (p-1)·(p-1) in every slot below
    it per pivot.  The last column repeats the one before it and meets
    all n-1 pivots: row n-1 of it sums (n-1)(p-1)^2 plus its own digit
    (1-n) mod p."""
    pivots = [[0] * k + [1] + [p - 1] * (n - 1 - k) for k in range(n - 1)]
    cols, acc = [], [0] * n
    for piv in pivots:
        acc = [(a + x) % p for a, x in zip(acc, piv)]
        cols.append(acc)
    cols.append(acc)
    return [list(r) for r in zip(*cols)]


@pytest.mark.parametrize("p,n", [
    # at each column count where the slot bound n·(p-1)^2 + (p-1)
    # crosses a byte boundary, and the counts next to it
    (2, 254), (2, 255), (2, 256), (3, 63), (3, 64), (3, 65),
    (5, 15), (5, 16), (5, 17), (7, 7), (7, 8), (7, 9),
    (131, 3), (131, 4), (131, 5), (251, 2), (251, 3),
    (251, 268), (251, 269), (251, 270),
])
def test_packed_nullspace_at_its_worst_case(p, n):
    """The packed kernel of `_worst_case` is its one vector, p-1 at
    column n-2 and 1 at n-1, where its largest slot sum needs the
    width the bound gives.  Past each byte boundary the sum of the last
    column's row n-1 no longer fits the narrower width, so a bound
    without its ncols factor carries into the next slot."""
    field = field_for_q(p)
    rows = _worst_case(p, n)
    basis = nullspace(field, _columns(field, rows))
    assert basis == [[0] * (n - 2) + [p - 1, 1]]
    _check_kernel(field, rows, n, basis)
    top = (n - 1) * (p - 1) ** 2 + (1 - n) % p
    assert fpx.slot_width(top) <= fpx._kernel_slot(p, n)


@pytest.mark.parametrize("q", [3, 4, 251, 257])
def test_rows_must_have_ncols_codes(q):
    """Every row must hold one element code per column: ragged columns,
    which leave a row short of an entry, and entries outside range(q)
    raise.  When the matrix came by rows, a row longer than ncols used
    to lose its extra entries (`nullspace(F, [[1, 0, 1]], 2)` gave
    [[0, 1]]), and a short or ragged row failed with a bare
    IndexError."""
    field = field_for_q(q)
    for cols in [
        [[1], [0], [1, 0]], [[1, 0], [0]], [[1, 0], []], [[], [1]],
        [b"\x01", b"\x00\x01"],
    ]:
        with pytest.raises(ValueError, match="same number"):
            nullspace(field, cols)
    for bad in [-1, q, q + 256]:
        with pytest.raises(ValueError, match="range"):
            nullspace(field, [[1, 0], [0, bad]])
    if q < 256:
        with pytest.raises(ValueError, match="range"):
            nullspace(field, [b"\x01\x00", bytes([0, q])])
    assert nullspace(field, [[1], [0], [q - 1]]) == rref_nullspace(
        field, [[1, 0, q - 1]], 3
    )


def test_extension_field_keeps_rref():
    """An extension field is not packed: its basis is the `rref` one,
    with element codes past p."""
    field = FieldSpec(3, 2)
    assert not field.packed
    rng = random.Random(9)
    rows = [[rng.randrange(9) for _ in range(10)] for _ in range(6)]
    rows.append(rows[0])
    rows.append([field.add(x, field.mul(5, y)) for x, y in zip(*rows[1:3])])
    basis = nullspace(field, _columns(field, rows))
    assert len(basis) >= 4
    assert basis == rref_nullspace(field, rows, 10)
    _check_kernel(field, rows, 10, basis)
