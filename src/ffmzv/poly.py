"""Exact polynomial arithmetic over F_q: A = F_q[θ], F_q[t], fractions,
and the bivariate ring A[t] together with the (t-θ)-adic operations and
Frobenius twisting that the reduction engine relies on.

Where the field is `packed` (prime q < 256) a large product in F_q[θ]
is one big-integer product of byte digits (Kronecker substitution),
`fpx.PackedPoly.mul` in the one `fpx.PackedPoly` ring per prime
(`packed_ring`), which the H_n fill, the point reduction and the exact
confirmation share.  On such a field A[t] lives in rows of θ-digits
(`carlitz._RowTerms`); a `BiPoly` is built there only on request.
Every other field multiplies by its tables.  The (t-θ)-adic expansion is
the Taylor shift f(t) ↦ f(u+θ), and the twist of a polynomial kept in
the (t-θ)-adic basis the shift of its twisted coefficients by θ - θ^q,
both in closed form with (u+c)^{p^k} = u^{p^k} + c^{p^k}: θ-shifts and
additions only (`taylor_shift`).

A `Poly` is a dense univariate polynomial with coefficients in a
`FieldSpec` (ints in range(q)).  The zero polynomial has an empty
coefficient tuple and reports degree -1; that value is a sentinel, not a
number to do arithmetic with, and every caller guards it explicitly.

Frobenius twisting f -> f^(n) raises each coefficient to the q^n power.
Since F_q is fixed by x -> x^q this amounts to the substitution
θ -> θ^{q^n}, i.e. spreading coefficient i to index i*q^n.  Negative
twists are rejected: the whole engine is arranged so they never occur.
"""
from __future__ import annotations

from functools import lru_cache

from . import fpx
from .fields import FieldSpec


class TwistError(ValueError):
    """Raised on a request for a negative Frobenius twist."""


_KRONECKER_THRESHOLD = 2500  # len(a)*len(b) above which packed mul is used

# the packed F_p[x] ring of each p < 256, built on first use and shared
# by the products here, the point reduction (`motive`) and the exact
# confirmation (`criterion`)
packed_ring = lru_cache(maxsize=None)(fpx.PackedPoly)


def not_a_code(field: FieldSpec, c) -> ValueError:
    """The error for an int scalar outside range(q).  A scalar is an
    element code and is never read mod q: at q = 9 the code 8 is 2+2y,
    while -1 is `field.neg(1)` = 2."""
    return ValueError(f"scalar {c!r} is not an element code in range({field.q})")


def scalar_str(field: FieldSpec, v: int) -> str:
    """Canonical rendering of one F_q element."""
    if field.e == 1 or v < field.p:
        return str(v)
    p = field.p
    parts = []
    i = 0
    n = v
    while n:
        d = n % p
        n //= p
        if d:
            mono = "g" if i == 1 else f"g^{i}"
            parts.append(mono if d == 1 else f"{d}*{mono}")
        i += 1
    s = " + ".join(reversed(parts))
    return f"({s})" if len(parts) > 1 else s


class Poly:
    """Univariate polynomial over F_q (coefficients ascending)."""

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field: FieldSpec, coeffs=(), var: str = "θ"):
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])
        self.var = var

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, field, var="θ"):
        return cls(field, (), var)

    @classmethod
    def one(cls, field, var="θ"):
        return cls(field, (1,), var)

    @classmethod
    def const(cls, field, c, var="θ"):
        if not 0 <= c < field.q:
            raise not_a_code(field, c)
        return cls(field, (c,) if c else (), var)

    @classmethod
    def gen(cls, field, var="θ"):
        return cls(field, (0, 1), var)

    @classmethod
    def monomial(cls, field, c, n, var="θ"):
        if c == 0:
            return cls.zero(field, var)
        return cls(field, (0,) * n + (c,), var)

    # -- basic queries -----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring ops ----------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = F._add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return Poly(F, out, self.var)

    def __neg__(self) -> "Poly":
        neg = self.field._neg
        return Poly(self.field, [neg[c] for c in self.coeffs], self.var)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c: int) -> "Poly":
        if not 0 <= c < self.field.q:
            raise not_a_code(self.field, c)
        if c == 0:
            return Poly.zero(self.field, self.var)
        if c == 1:
            return self
        mul = self.field._mul[c]
        return Poly(self.field, [mul[x] for x in self.coeffs], self.var)

    def shift(self, n: int) -> "Poly":
        """Multiply by var^n."""
        if not self.coeffs:
            return self
        return Poly(self.field, (0,) * n + self.coeffs, self.var)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F, self.var)
        if len(a) == 1:
            return other.scale(a[0]).with_var(self.var)
        if len(b) == 1:
            return self.scale(b[0])
        if F.packed and len(a) * len(b) > _KRONECKER_THRESHOLD:
            return Poly(F, packed_ring(F.p).mul(bytes(a), bytes(b)), self.var)
        mul = F._mul
        add = F._add
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                row = mul[ai]
                for j, bj in enumerate(b):
                    if bj:
                        k = i + j
                        out[k] = add[out[k]][row[bj]]
        return Poly(F, out, self.var)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one(self.field, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        r = list(self.coeffs)
        d = other.degree
        lead_inv = F.inv(other.leading())
        q = [0] * max(0, len(r) - d)
        mul, add, neg = F._mul, F._add, F._neg
        terms = [(j, oc) for j, oc in enumerate(other.coeffs) if oc]
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i]
            if c:
                factor = mul[c][lead_inv]
                q[i - d] = factor
                row = mul[neg[factor]]
                for j, oc in terms:
                    k = i - d + j
                    r[k] = add[r[k]][row[oc]]
        return Poly(F, q, self.var), Poly(F, r[:d], self.var)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("non-exact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    # -- Frobenius ---------------------------------------------------------
    def twist(self, n: int) -> "Poly":
        """f^(n): substitution var -> var^{q^n}.  n must be >= 0."""
        if n < 0:
            raise TwistError("negative Frobenius twist requested")
        if n == 0 or self.is_zero():
            return self
        step = self.field.q ** n
        out = [0] * (self.degree * step + 1)
        out[::step] = self.coeffs
        return Poly(self.field, out, self.var)

    # -- conversion --------------------------------------------------------
    def with_var(self, var: str) -> "Poly":
        if var == self.var:
            return self
        return Poly(self.field, self.coeffs, var)

    # -- rendering ---------------------------------------------------------
    def __repr__(self):
        return f"Poly({self!s})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = scalar_str(self.field, c)
            if i == 0:
                parts.append(cs)
            else:
                mono = self.var if i == 1 else f"{self.var}^{i}"
                parts.append(mono if cs == "1" else f"{cs}*{mono}")
        return " + ".join(parts)


class RatFrac:
    """Element of k = F_q(θ): num/den in lowest terms, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None, reduce: bool = True):
        if den is None:
            den = Poly.one(num.field, num.var)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce:
            g = num.gcd(den)
            if not g.is_one() and not g.is_zero():
                num = num.exact_div(g)
                den = den.exact_div(g)
            lc = den.leading()
            if lc != 1:
                inv = num.field.inv(lc)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, field, var="θ"):
        return cls(Poly.zero(field, var), Poly.one(field, var), reduce=False)

    @classmethod
    def one(cls, field, var="θ"):
        return cls(Poly.one(field, var), Poly.one(field, var), reduce=False)

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p, Poly.one(p.field, p.var), reduce=False)

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = RatFrac.from_poly(other)
        return (
            isinstance(other, RatFrac)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RatFrac") -> "RatFrac":
        return RatFrac(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RatFrac(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "RatFrac") -> "RatFrac":
        return RatFrac(self.num * other.num, self.den * other.den)

    def inv(self) -> "RatFrac":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in F_q(θ)")
        return RatFrac(self.den, self.num)

    def __truediv__(self, other: "RatFrac") -> "RatFrac":
        return self * other.inv()

    def scale(self, c: int) -> "RatFrac":
        return RatFrac(self.num.scale(c), self.den, reduce=False)

    def __pow__(self, n: int) -> "RatFrac":
        if n < 0:
            return self.inv() ** (-n)
        return RatFrac(self.num ** n, self.den ** n, reduce=False)

    def twist(self, n: int) -> "RatFrac":
        return RatFrac(self.num.twist(n), self.den.twist(n), reduce=False)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFrac({self!s})"


class BiPoly:
    """Polynomial in t with coefficients in A = F_q[θ] (or in k when
    `rational`, as for a polylogarithm point with a coordinate outside
    F_q[θ]).  Stored as a tuple of coefficients, ascending in t.

    A product is the schoolbook one over the coefficient ring, on
    every field: on a `packed` field the library keeps integral A[t]
    as packed rows (`carlitz._RowTerms`), and this product is the
    reference they are checked against.  The (t-θ)-adic expansion is
    the Taylor shift f(u+θ), exact over the coefficient ring.
    """

    __slots__ = ("field", "coeffs", "rational")

    def __init__(self, field: FieldSpec, coeffs=(), rational: bool = False):
        n = len(coeffs)
        while n and coeffs[n - 1].is_zero():
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])
        self.rational = rational

    # -- constructors ------------------------------------------------------
    def _czero(self):
        if self.rational:
            return RatFrac.zero(self.field)
        return Poly.zero(self.field)

    @classmethod
    def zero(cls, field, rational=False):
        return cls(field, (), rational)

    @classmethod
    def one(cls, field, rational=False):
        c = RatFrac.one(field) if rational else Poly.one(field)
        return cls(field, (c,), rational)

    @classmethod
    def from_tpoly(cls, tp: Poly, rational=False):
        """Lift f(t) in F_q[t] to A[t] (constant θ-coefficients)."""
        if rational:
            mk = lambda c: RatFrac.from_poly(Poly.const(tp.field, c))
        else:
            mk = lambda c: Poly.const(tp.field, c)
        return cls(tp.field, [mk(c) for c in tp.coeffs], rational)

    # -- queries -----------------------------------------------------------
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BiPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def theta_degree(self) -> int:
        """Max θ-degree over all t-coefficients (-1 for zero; integral only)."""
        if self.rational:
            raise ValueError("θ-degree only defined for integral coefficients")
        return max((c.degree for c in self.coeffs), default=-1)

    # -- ring ops ----------------------------------------------------------
    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BiPoly(self.field, out, self.rational)

    def __neg__(self):
        return BiPoly(self.field, [-c for c in self.coeffs], self.rational)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.is_zero() or other.is_zero():
            return BiPoly.zero(self.field, self.rational)
        out = [self._czero() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return BiPoly(self.field, out, self.rational)

    def scale(self, c: int) -> "BiPoly":
        return BiPoly(self.field, [x.scale(c) for x in self.coeffs], self.rational)

    # -- Frobenius ---------------------------------------------------------
    def twist(self, n: int) -> "BiPoly":
        """f^(n): twist every θ-coefficient; t-coefficients in F_q are fixed."""
        if n < 0:
            raise TwistError("negative Frobenius twist requested")
        if n == 0:
            return self
        return BiPoly(self.field, [c.twist(n) for c in self.coeffs], self.rational)

    # -- (t-θ)-adic expansion ----------------------------------------------
    def expand_tm_theta(self):
        """Coefficients (a_0, a_1, ...) with f = Σ a_j (t-θ)^j, that is
        the coefficients of f(u+θ) in u.

        One per t-coefficient (empty for the zero polynomial).
        """
        return taylor_shift(self.field, self.coeffs, ((1, 1),))

    # -- rendering ---------------------------------------------------------
    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
                continue
            mono = "t" if i == 1 else f"t^{i}"
            if cs == "1":
                parts.append(mono)
            elif "+" in cs or cs.startswith("-"):
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly({self!s})"


def taylor_shift(field, coeffs, shift):
    """The coefficients of g(u) = f(u + c), for f = Σ coeffs[i]·u^i
    over A or k and c = Σ a·θ^e over the pairs (a, e) in `shift`, every
    a in the prime field F_p; same length as `coeffs`.  The (t-θ)-adic
    expansion is the shift by θ, ((1, 1),); the twist of a
    (t-θ)-basis polynomial is the shift by θ - θ^q,
    ((1, 1), (field.neg(1), q)), of its twisted coefficients, since
    t - θ^q = (t - θ) + θ - θ^q.

    In characteristic p, (u + c)^m = u^m + c^m for m a power of p, and
    c^m = Σ a·θ^{e·m}, as a^p = a.  Cut f into blocks f_k of m
    coefficients, m the largest power of p below its length, so
    f = Σ u^{km} f_k: then g is Horner's rule in u^m + c^m over the
    shifted blocks, and the only operations are θ-shifts and additions
    (von zur Gathen–Gerhard, "Fast algorithms for Taylor shifts and
    certain difference equations", ISSAC 1997).
    """
    n = len(coeffs)
    if n < 2:
        return list(coeffs)
    m = 1
    while m * field.p < n:
        m *= field.p
    blocks = [
        taylor_shift(field, coeffs[i:i + m], shift) for i in range(0, n, m)
    ]
    acc = blocks.pop()
    for low in reversed(blocks):
        # acc <- low + (u^m + c^m)·acc
        out = low + acc
        for i, a in enumerate(acc):
            if not a.is_zero():
                out[i] = out[i] + _shift_power_mul(a, m, shift)
        acc = out
    return acc


def _shift_power_mul(a, m, shift):
    """c^m·a = Σ a'·θ^{e·m}·a over the pairs (a', e) of `shift`, for a
    in A or k.  A fraction comes back unreduced: the one caller adds it
    to another, and the sum reduces."""
    if isinstance(a, RatFrac):
        return RatFrac(_shift_power_mul(a.num, m, shift), a.den, reduce=False)
    out = None
    for c, e in shift:
        term = a.shift(e * m).scale(c)
        out = term if out is None else out + term
    return out
