"""Laurent series at the infinite place: F_q((1/θ)) with explicit,
tracked precision.

A `LaurentNumber` stores coefficients for the exponents top, top-1, ...
down to `unknown + 1`; `unknown` is the greatest exponent whose
coefficient is NOT known.  `unknown is None` means the value is exact
(a Laurent polynomial — every lower coefficient is genuinely zero).

Precision propagates pessimistically: the unknown tail of one factor
multiplies the leading term of the other, so a product is trusted only
above max(u1 + top2, u2 + top1).  Nothing here reports a digit it cannot
vouch for, and the equality helpers compare known windows only.

The arithmetic runs on `Poly`.  The known window is a polynomial P in
x = 1/θ, the value being θ^top·P(1/θ) plus the unknown tail, so a sum
is a `Poly` sum of the two windows shifted to a common top, a product
one `Poly` product (Kronecker-packed above `poly._KRONECKER_THRESHOLD`
on packed fields), negation and `scale` are `Poly`'s, and a reciprocal
is one `Poly` floor division; each result is cut at its `unknown`.
`Poly` is the plain ring F_q[x], with no t-module, motive or
annihilator code in it, so a numeric check built on this module stays
independent of the decision procedures it checks.
"""
from __future__ import annotations

from .fields import FieldSpec
from .linalg import nullspace
from .poly import Poly, RatFrac


class PrecisionError(ValueError):
    """Raised when an operation would need digits that are not known."""


class LaurentNumber:
    """Element of F_q((1/θ)) known down to a tracked exponent.

    coeffs[i] is the coefficient of θ^(top - i).  Leading zeros are
    stripped, so coeffs is empty iff every known coefficient vanishes;
    in that case top is held at unknown (the window is empty).
    """

    __slots__ = ("field", "top", "coeffs", "unknown")

    def __init__(self, field: FieldSpec, top: int, coeffs, unknown=None):
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            top -= 1
        while coeffs and coeffs[-1] == 0 and unknown is None:
            coeffs.pop()  # exact values may drop trailing zeros freely
        if unknown is not None:
            # window must cover exactly top .. unknown+1 (an entirely
            # submerged window is legal and collapses to "nothing known")
            want = top - unknown
            if len(coeffs) > max(want, 0):
                raise ValueError("coefficient window extends below `unknown`")
            coeffs += [0] * (want - len(coeffs))
            if not any(coeffs):
                coeffs = []
                top = unknown
        elif not coeffs:
            top = 0
        self.field = field
        self.top = top
        self.coeffs = tuple(coeffs)
        self.unknown = unknown

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, field, unknown=None):
        return cls(field, unknown if unknown is not None else 0, (), unknown)

    @classmethod
    def one(cls, field):
        return cls(field, 0, (1,))

    @classmethod
    def from_poly(cls, p: Poly):
        """Exact image of a polynomial in θ."""
        return cls(p.field, p.degree, tuple(reversed(p.coeffs)))

    @classmethod
    def from_ratfrac(cls, r: RatFrac, prec: int):
        """p/q expanded at infinity with `prec` known coefficients."""
        den = cls.from_poly(r.den)
        return cls.from_poly(r.num) * den.inv(prec)

    @classmethod
    def theta_power(cls, field, n: int):
        return cls(field, n, (1,))

    # -- queries -----------------------------------------------------------
    def is_exact(self) -> bool:
        return self.unknown is None

    def window_empty(self) -> bool:
        return not self.coeffs

    def known_floor(self):
        """Lowest exponent with a known coefficient (None = all of them)."""
        return None if self.unknown is None else self.unknown + 1

    # -- arithmetic --------------------------------------------------------
    def _window(self) -> Poly:
        """The known coefficients as a polynomial P in x = 1/θ: the
        value is θ^top·P(1/θ) plus the unknown tail."""
        return Poly(self.field, self.coeffs, "x")

    @classmethod
    def _from_window(cls, top: int, window: Poly, unknown):
        """θ^top·window(1/θ), cut to the exponents above `unknown`."""
        coeffs = window.coeffs
        if unknown is not None:
            coeffs = coeffs[: max(top - unknown, 0)]
        return cls(window.field, top, coeffs, unknown)

    def _join_unknown(self, other):
        if self.unknown is None:
            return other.unknown
        if other.unknown is None:
            return self.unknown
        return max(self.unknown, other.unknown)

    def __add__(self, other: "LaurentNumber") -> "LaurentNumber":
        top = max(self.top, other.top)
        total = self._window().shift(top - self.top) + other._window().shift(
            top - other.top
        )
        return LaurentNumber._from_window(top, total, self._join_unknown(other))

    def coeff_unchecked(self, e: int) -> int:
        if not self.coeffs or e > self.top:
            return 0
        i = self.top - e
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __neg__(self):
        return LaurentNumber._from_window(self.top, -self._window(), self.unknown)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int) -> "LaurentNumber":
        return LaurentNumber._from_window(
            self.top, self._window().scale(c), self.unknown
        )

    def __mul__(self, other: "LaurentNumber") -> "LaurentNumber":
        """The pessimistic precision of the module docstring; only the
        first top - unknown coefficients of each window reach the
        known part of the product."""
        if (self.is_exact() and not self.coeffs) or (
            other.is_exact() and not other.coeffs
        ):
            return LaurentNumber.zero(self.field)
        u = None
        if self.unknown is not None:
            u = self.unknown + other.top
        if other.unknown is not None:
            u2 = other.unknown + self.top
            u = u2 if u is None else max(u, u2)
        top = self.top + other.top
        n = None if u is None else max(top - u, 0)
        a = Poly(self.field, self.coeffs[:n], "x")
        b = Poly(self.field, other.coeffs[:n], "x")
        return LaurentNumber._from_window(top, a * b, u)

    def inv(self, prec: int = None) -> "LaurentNumber":
        """Reciprocal.  For exact input, `prec` sets the window length;
        otherwise the window length is preserved.

        The first n coefficients of 1/P(x), P the window in x = 1/θ cut
        to its first m+1 <= n coefficients, are the coefficients of
        x^(n-1+m) // R(x) read from the top, R = x^m·P(1/x) the
        reversed window: x^(n-1+m)/R(x) = Σ_k b_k x^(n-1-k) for
        1/P = Σ_k b_k x^k."""
        if not self.coeffs:
            raise ZeroDivisionError("no known leading term to invert")
        n = len(self.coeffs)
        if self.unknown is None:
            if prec is None:
                raise PrecisionError("inverting an exact value needs prec")
            if prec < 1:
                raise ValueError(f"precision must be at least 1, got {prec}")
            n = prec
        rev = Poly(self.field, self.coeffs[:n][::-1], "x")
        quo = Poly.monomial(self.field, 1, n - 1 + rev.degree, "x") // rev
        top = -self.top
        return LaurentNumber(self.field, top, quo.coeffs[::-1], top - n)

    def __truediv__(self, other: "LaurentNumber") -> "LaurentNumber":
        if other.is_exact():
            # pick a window large enough that the quotient's precision is
            # limited by self, not by the inversion
            span = (len(self.coeffs) or 1) + (len(other.coeffs) or 1)
            return self * other.inv(span + 4)
        return self * other.inv()

    def __pow__(self, n: int) -> "LaurentNumber":
        if n < 0:
            raise ValueError("use inv() explicitly for negative powers")
        out = LaurentNumber.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def truncate(self, unknown: int) -> "LaurentNumber":
        """Forget digits at exponents <= unknown."""
        if self.unknown is not None and self.unknown >= unknown:
            return self
        return LaurentNumber(
            self.field, self.top, self.coeffs[: max(0, self.top - unknown)], unknown
        )

    # -- comparisons -------------------------------------------------------
    def agrees(self, other: "LaurentNumber") -> bool:
        """Equal on the overlap of the two known windows."""
        floors = [f for f in (self.known_floor(), other.known_floor()) if f is not None]
        floor = max(floors) if floors else None
        top = max(self.top, other.top)
        if floor is None:
            floor = min(
                self.top - len(self.coeffs), other.top - len(other.coeffs)
            ) + 1
        for e in range(top, floor - 1, -1):
            if self.coeff_unchecked(e) != other.coeff_unchecked(e):
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, LaurentNumber)
            and self.field == other.field
            and self.top == other.top
            and self.coeffs == other.coeffs
            and self.unknown == other.unknown
        )

    def __hash__(self):
        return hash((self.field, self.top, self.coeffs, self.unknown))

    # -- rendering ---------------------------------------------------------
    def __str__(self):
        from .poly import scalar_str

        if not self.coeffs:
            if self.unknown is None:
                return "0"
            return f"O(θ^{self.unknown})"
        inner = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = scalar_str(self.field, c)
            if i == 0:
                inner.append(cs)
            else:
                den = "θ" if i == 1 else f"θ^{i}"
                inner.append(f"{cs}/{den}" if "+" not in cs else f"({cs})/{den}")
        body = " + ".join(inner)
        tail = "" if self.unknown is None else f" + O(θ^{self.unknown})"
        if self.top == 0:
            return body + tail
        return f"θ^{self.top}·({body}){tail}"

    def __repr__(self):
        return f"LaurentNumber({self!s})"


def rational_reconstruct(x: LaurentNumber, max_deg: int):
    """Find p, q in F_q[θ] with deg q <= max_deg, q != 0 monic, and
    q·x == p to the full known precision of x.  Returns a RatFrac or
    None.

    The numerator degree is tied to the valuation v of x (deg p <=
    max_deg + v), so the certainty requirement is max_deg + deg_p + 2
    known coefficients rather than a flat 2·max_deg + 2 — a deep
    valuation costs nothing.  Raises PrecisionError when the window is
    too small.
    """
    F = x.field
    if x.window_empty():
        if x.unknown is not None and -x.unknown <= 2 * max_deg + 1:
            raise PrecisionError("window too small to certify zero")
        return RatFrac.zero(F)
    v = x.top
    if max_deg + v < 0:
        return None  # valuation below anything deg q <= max_deg allows
    deg_p = max_deg + v
    n_known = len(x.coeffs)
    need = max_deg + deg_p + 2
    if n_known < need:
        raise PrecisionError(
            f"need {need} known coefficients, have {n_known}"
        )
    floor = x.top - n_known + 1
    # unknowns: q_0..q_B, p_0..p_{deg_p}; one equation per exponent e:
    #   Σ_j q_j · coeff(x, e - j)  -  p_e  =  0
    nq = max_deg + 1
    np_ = deg_p + 1
    rows = []
    for e in range(v + max_deg, floor - 1, -1):
        row = [0] * (nq + np_)
        for j in range(nq):
            c = x.coeff_unchecked(e - j)
            if e - j < floor:
                c = None  # below precision: only usable if q_j forced 0
            if c:
                row[j] = c
            elif c is None:
                # drop equations that would touch unknown digits
                row = None
                break
        if row is None:
            continue
        if 0 <= e <= deg_p:
            row[nq + e] = F.neg(1)
        rows.append(row)
    if not rows:
        return None
    for vec in nullspace(F, list(zip(*rows))):
        qpoly = Poly(F, vec[:nq])
        if qpoly.is_zero():
            continue
        ppoly = Poly(F, vec[nq:])
        cand = RatFrac(ppoly, qpoly)
        approx = LaurentNumber.from_ratfrac(cand, n_known + 2)
        if approx.agrees(x):
            return cand
    return None
