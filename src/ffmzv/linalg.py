"""Dense linear algebra over F_q.

`nullspace` takes a matrix by its columns and returns the basis that
the reduced row echelon form (`rref`, on a list of rows of
field-element ints) reads off.  On a `packed` field (prime q < 256) it
packs each column as it comes into one big integer with its
F_p-combination in the high slots (`fpx._PackedDigits.nullspace`);
extension fields and p >= 256 transpose the columns once, drop the
rows of zeros and take the list-based `rref`, which is also the
reference the packed path is tested against.
"""
from __future__ import annotations

from .fields import FieldSpec
from .poly import packed_ring


def rref(field: FieldSpec, rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        if inv != 1:
            row = field._mul[inv]
            m[r] = [row[x] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                frow = field._mul[f]
                sub = field.sub
                mi, mr = m[i], m[r]
                for j in range(c, ncols):
                    if mr[j]:
                        mi[j] = sub(mi[j], frow[mr[j]])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(field: FieldSpec, columns):
    """Basis of the right kernel of the matrix with the given columns,
    as coefficient vectors: one per free column c of the RREF, in
    order, with 1 at c and 0 at every other free column.  Every column
    must hold the same number of element codes in range(q); a column
    is a `bytes` or a sequence of ints."""
    if len(set(map(len, columns))) > 1:
        raise ValueError("every column must have the same number of entries")
    if field.packed:
        try:
            columns = [bytes(c) for c in columns]
        except ValueError:  # an entry outside range(256)
            columns = [b"\xff"]  # a digit of no p < 256
        if not b"".join(columns).translate(None, bytes(range(field.p))):
            return packed_ring(field.p).nullspace(columns)
    else:
        rows = [r for r in zip(*columns) if any(r)]
        if not rows or (
            0 <= min(map(min, rows)) and max(map(max, rows)) < field.q
        ):
            return rref_nullspace(field, rows, len(columns))
    raise ValueError(f"matrix entries must be element codes in range({field.q})")


def rref_nullspace(field: FieldSpec, rows, ncols: int):
    """`nullspace` read off the `rref`: the path of every field that is
    not `packed`, and the packed path's test reference."""
    m, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, pc in enumerate(pivots):
            # pivot row r: x_pc + sum(m[r][j] x_j) = 0 over free columns
            if m[r][f]:
                v[pc] = field.neg(m[r][f])
        basis.append(v)
    return basis
