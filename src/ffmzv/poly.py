"""Exact polynomial arithmetic over F_q: A = F_q[θ], F_q[t], fractions,
and the bivariate ring A[t] together with the (t-θ)-adic operations and
Frobenius twisting that the reduction engine relies on.

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

from .fields import FieldSpec


class TwistError(ValueError):
    """Raised on a request for a negative Frobenius twist."""


_KRONECKER_THRESHOLD = 2500  # len(a)*len(b) above which packed mul is used


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
        return cls(field, (c % field.q,) if c % field.q else (), var)

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
        c %= self.field.q
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
        if F.e == 1 and len(a) * len(b) > _KRONECKER_THRESHOLD:
            return Poly(F, _packed_mul(a, b, F.p), self.var)
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
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        r = list(self.coeffs)
        d = other.degree
        lead_inv = F.inv(other.leading())
        q = [0] * max(0, len(r) - d)
        mul = F._mul
        sub = F.sub
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i]
            if c:
                factor = mul[c][lead_inv]
                q[i - d] = factor
                row = mul[factor]
                for j, oc in enumerate(other.coeffs):
                    r[i - d + j] = sub(r[i - d + j], row[oc])
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
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] = c
        return Poly(self.field, out, self.var)

    # -- evaluation / conversion ------------------------------------------
    def eval_scalar(self, x: int) -> int:
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

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


def _packed_mul(a, b, p):
    """Kronecker-substitution product of two F_p coefficient tuples.

    Each slot is wide enough for the largest coefficient of the integer
    product, (p-1)^2 * min(len(a), len(b)), so no slot carries into the
    next."""
    nb = (((p - 1) ** 2 * min(len(a), len(b))).bit_length() + 7) // 8
    abuf = b"".join(c.to_bytes(nb, "little") for c in a)
    bbuf = b"".join(c.to_bytes(nb, "little") for c in b)
    prod = int.from_bytes(abuf, "little") * int.from_bytes(bbuf, "little")
    n_out = len(a) + len(b) - 1
    pbuf = prod.to_bytes(n_out * nb + nb, "little")
    return [
        int.from_bytes(pbuf[i * nb:(i + 1) * nb], "little") % p
        for i in range(n_out)
    ]


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

    def is_integral(self):
        return self.den.is_one()

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
    """Polynomial in t with coefficients in A = F_q[θ] (or in k for the
    polylog mode).  Stored as a tuple of coefficients, ascending in t.

    Supports the two (t-θ)-adic primitives the reduction engine needs:
    division with remainder by (t-θ)^e and the full expansion in powers
    of (t-θ), both exact over the coefficient ring.
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
    def from_coeff(cls, c):
        rational = isinstance(c, RatFrac)
        return cls(c.field, (c,), rational)

    @classmethod
    def t_minus_theta(cls, field, rational=False):
        if rational:
            return cls(
                field,
                (-RatFrac.from_poly(Poly.gen(field)), RatFrac.one(field)),
                True,
            )
        return cls(field, (-Poly.gen(field), Poly.one(field)), False)

    @classmethod
    def from_tpoly(cls, tp: Poly, rational=False):
        """Lift f(t) in F_q[t] to A[t] (constant θ-coefficients)."""
        if rational:
            mk = lambda c: RatFrac.from_poly(Poly.const(tp.field, c))
        else:
            mk = lambda c: Poly.const(tp.field, c)
        return cls(tp.field, [mk(c) for c in tp.coeffs], rational)

    # -- queries -----------------------------------------------------------
    @property
    def deg_t(self) -> int:
        """t-degree, -1 sentinel for zero."""
        return len(self.coeffs) - 1

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

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._czero()

    def theta_degree(self) -> int:
        """Max θ-degree over all t-coefficients (-1 for zero; integral only)."""
        if self.rational:
            raise ValueError("θ-degree only defined for integral coefficients")
        return max((c.degree for c in self.coeffs), default=-1)

    def is_integral(self) -> bool:
        if not self.rational:
            return True
        return all(c.is_integral() for c in self.coeffs)

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

    def coeff_mul_t(self, tp: Poly) -> "BiPoly":
        """Multiply by a polynomial in t with F_q coefficients."""
        return self * BiPoly.from_tpoly(tp, self.rational)

    def __pow__(self, n: int) -> "BiPoly":
        out = BiPoly.one(self.field, self.rational)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- Frobenius ---------------------------------------------------------
    def twist(self, n: int) -> "BiPoly":
        """f^(n): twist every θ-coefficient; t-coefficients in F_q are fixed."""
        if n < 0:
            raise TwistError("negative Frobenius twist requested")
        if n == 0:
            return self
        return BiPoly(self.field, [c.twist(n) for c in self.coeffs], self.rational)

    # -- (t-θ)-adic primitives ---------------------------------------------
    def _theta_coeff(self):
        th = Poly.gen(self.field)
        return RatFrac.from_poly(th) if self.rational else th

    def divmod_t_minus_theta(self):
        """Synthetic division by (t-θ): returns (quotient, remainder coeff)."""
        th = self._theta_coeff()
        q = []
        acc = self._czero()
        for c in reversed(self.coeffs):
            if q or acc:
                acc = acc * th
            acc = acc + c
            q.append(acc)
        if not q:
            return BiPoly.zero(self.field, self.rational), self._czero()
        rem = q.pop()
        q.reverse()
        return BiPoly(self.field, q, self.rational), rem

    def divrem_tm_theta(self, e: int):
        """f = g*(t-θ)^e + γ with deg_t γ < e, all exact.  Returns (g, γ)."""
        if e < 1:
            raise ValueError("exponent must be >= 1")
        coeffs = self.expand_tm_theta()
        low, high = coeffs[:e], coeffs[e:]
        g = _from_tm_theta_basis(self.field, high, self.rational)
        gamma = _from_tm_theta_basis(self.field, low, self.rational)
        return g, gamma

    def expand_tm_theta(self):
        """Coefficients (a_0, a_1, ...) with f = Σ a_j (t-θ)^j.

        Length is deg_t + 1 (empty for the zero polynomial).
        """
        out = []
        cur = self
        for _ in range(len(self.coeffs)):
            cur, rem = cur.divmod_t_minus_theta()
            out.append(rem)
        return out

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


def _from_tm_theta_basis(field, coeffs, rational):
    """Rebuild a BiPoly from its (t-θ)-basis coefficients (Horner)."""
    tmt = BiPoly.t_minus_theta(field, rational)
    acc = BiPoly.zero(field, rational)
    for c in reversed(coeffs):
        acc = acc * tmt + BiPoly(field, (c,), rational)
    return acc
