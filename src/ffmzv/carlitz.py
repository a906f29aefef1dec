"""Carlitz-module combinatorics over A = F_q[θ].

Everything downstream is built out of a handful of classical quantities:

* brackets [l] = θ^{q^l} - θ and the products D_i, L_i built from them,
* the Carlitz factorial Γ_{n+1} = Π D_i^{n_i} over the base-q digits of n,
* the degree-indexed polynomials H_n in A[t] defined through the
  generating identity (1 - Σ_i G_i(θ)/D_i(t) x^{q^i})^{-1}
  = Σ_n H_n/Γ_{n+1}(t) x^n,  with G_i(θ) = Π_{j=1..i} (t^{q^i} - θ^{q^j}),
* the Bernoulli-Carlitz numbers BC(n), the coefficients of z/exp_C(z)
  times Γ_{n+1}, from one recursion per field on numerators over
  factored denominators Π D_k^{e(k)}, whose every step is a product and
  a sum in A, with a single gcd at the end (`bernoulli_carlitz`).

All of it is cached per field in a `CarlitzCache`.  H_n is filled
ascending by the division-free recursion
H_n = Σ_{q^i ≤ n} G_i(θ,t)·H_{n-q^i}·B_{n,i}(t), where the Carlitz
binomial coefficient B_{n,i} = Γ_{n+1}/(D_i·Γ_{n+1-q^i}) is the product
[i+1]···[k] of brackets [l] = t^{q^l} - t, k the position of the
lowest nonzero base-q digit of n at or above position i (so 1 when
digit i is nonzero; the proof is at `_derive_h`).  Every factor of a
term, a bracket or a factor t^{q^i} - θ^{q^j} of G_i, has two terms,
so every product of the fill is a shift and a difference
(`differences`), no fraction in t is ever formed, and no product of two
polynomials is either.

H_n lies in F_q[θ^q][t].  Proof, by induction on n: H_0..H_{q-1} = 1
do; every factor t^{q^i} - θ^{q^j} of G_i has j >= 1, so θ appears in
it only as a power of θ^q; B_{n,i} lies in F_q[t]; and H_n is a sum of
products of these with H_{n-q^i}, n-q^i < n.  So the store keeps
K_n = H_n^{(-1)}, the polynomial with K_n(θ^q, t) = H_n(θ, t), filled
by the same recursion with each θ^{q^j} replaced by θ^{q^{j-1}}, at
1/q of H_n's θ-width; H_n is the twist K_n^{(1)} (`frob` of the
terms), spread on each request.

The recursion is written once, over the store's terms.  There is one
term type per ring, shared with the motive's reduction (`motive`), and
`terms_for` picks it: on a `packed` field (prime q < 256) with
integral coefficients, rows of θ-digits (`_RowTerms`), where a
term's differences are one `fpx.PackedPoly.row_differences`, a packed
sum each, read back only where a slot could overflow, and
K_n one packed sum of the terms (`row_sum`), a polylogarithm motive
at a point in F_q[θ]^r included; elsewhere, and for rational motives
(a polylogarithm point with a coordinate outside F_q[θ]), `BiPoly`s
(`_BiPolyTerms`).  Each type also holds
the worklist's operations in u = t-θ.  On a packed field integral
A[t] lives in these rows alone: `_RowTerms` is the one place that
lays a `BiPoly` out in rows (`lay`) and reads one back (`bipoly`),
and no library path multiplies `BiPoly`s there.  Per n the cache
keeps K_n and, on request, the u-basis expansion of H_n
(`h_expanded`), which every motive with the entry shares.  It keeps no
`BiPoly`: `anderson_thakur`, the one entry point that fills, builds the
one it returns on each call, and H_n's term in t (`h_term`) is twisted
from K_n on every request.  Nothing is read from or written to disk: a
fill costs about what reading it back and checking it would.
"""
from __future__ import annotations

import functools
import operator

from . import fpx
from .fields import FieldSpec, field_for_q
from .poly import BiPoly, Poly, RatFrac, packed_ring, taylor_shift


def base_q_digits(n: int, q: int):
    """Digits of n >= 0 in base q, least significant first (empty for 0)."""
    if n < 0:
        raise ValueError("base-q digits need n >= 0")
    out = []
    while n:
        out.append(n % q)
        n //= q
    return out


def theta_major(b: BiPoly):
    """View an integral BiPoly as a polynomial in θ with F_q[t]
    coefficients: returns [c_0(t), c_1(t), ...] for b = Σ c_i(t) θ^i."""
    if b.rational:
        raise ValueError("θ-major view needs integral coefficients")
    dth = b.theta_degree()
    F = b.field
    return [
        Poly(F, [c[i] for c in b.coeffs], var="t") for i in range(dth + 1)
    ]


def _check_laid(terms, b):
    """The checks of `lay`: b a `BiPoly` over the terms' field, its
    coefficients in θ."""
    if not isinstance(b, BiPoly):
        raise TypeError("attached polynomial must be a BiPoly")
    if b.field != terms.field:
        raise ValueError(f"a BiPoly over {b.field} is not over {terms.field}")
    for c in b.coeffs:
        for f in (c.num, c.den) if isinstance(c, RatFrac) else (c,):
            if f.var != "θ":
                raise ValueError(f"a coefficient in {f.var}, not in θ")


class _BiPolyTerms:
    """F_q[θ][v] (or k[v] when `rational`) as `BiPoly`s: the terms of
    extension fields, of p >= 256 and of rational motives, those with a
    rational attached polynomial.  A term is a
    polynomial in v = t (the H_n store, the seeds) or in v = t-θ (the
    worklist, after `expand`); products are `BiPoly` products."""

    mul = staticmethod(operator.mul)
    add = add_coeff = staticmethod(operator.add)

    def __init__(self, field: FieldSpec, rational: bool = False):
        self.field = field
        self.rational = rational
        self.one = BiPoly.one(field, rational)
        self._minus_one = field.neg(1)
        self._twist_shift = ((1, 1), (self._minus_one, field.q))

    def lay(self, b: BiPoly):
        """The term of a `BiPoly` in t, an integral one made rational
        in rational terms."""
        _check_laid(self, b)
        if self.rational and not b.rational:
            return BiPoly(
                self.field, [RatFrac.from_poly(c) for c in b.coeffs], True
            )
        return b

    def t_poly(self, b: Poly):
        """A polynomial in t over F_q."""
        return BiPoly.from_tpoly(b, self.rational)

    def sum(self, terms):
        return functools.reduce(operator.add, terms)

    def neg(self, f):
        return f.scale(self._minus_one)

    def differences(self, f, factors, width):
        """f·Π (t^a - θ^b·t^c) over the triples (a, b, c) of `factors`
        for an integral f, one factor at a time: f moved a coefficients
        up, minus f moved c up with each coefficient times θ^b.  The
        width of the packed rows' layout is not needed here."""
        for a, b, c in factors:
            out = [Poly.zero(self.field)] * (len(f.coeffs) + max(a, c))
            out[a:a + len(f.coeffs)] = f.coeffs
            for k, x in enumerate(f.coeffs, c):
                out[k] = out[k] - x.shift(b)
            f = BiPoly(self.field, out)
        return f

    def theta_degree(self, h) -> int:
        return h.theta_degree()

    def frob(self, h):
        """h^{(1)} for a term h in t: θ ↦ θ^q, t fixed."""
        return h.twist(1)

    def bipoly(self, h) -> BiPoly:
        return h

    # -- the worklist, in u = t-θ -----------------------------------------
    def expand(self, f):
        """The u-basis term of a term in t."""
        return BiPoly(self.field, f.expand_tm_theta(), self.rational)

    def u_power(self, w):
        F = self.field
        zero, one = (
            (RatFrac.zero(F), RatFrac.one(F)) if self.rational
            else (Poly.zero(F), Poly.one(F))
        )
        return BiPoly(F, [zero] * w + [one], self.rational)

    def rows(self, f):
        return len(f.coeffs)

    def split(self, f, w):
        """(γ, g) with f = γ + u^w·g and fewer than w rows in γ."""
        return (
            BiPoly(self.field, f.coeffs[:w], self.rational),
            BiPoly(self.field, f.coeffs[w:], self.rational),
        )

    def twist(self, g):
        """g^{(1)} in the u-basis: the twisted coefficients shifted by
        θ - θ^q."""
        return BiPoly(
            self.field,
            taylor_shift(
                self.field, [c.twist(1) for c in g.coeffs], self._twist_shift
            ),
            self.rational,
        )

    def coeffs(self, f):
        """(j, a) for every nonzero coefficient a of u^j."""
        return [(j, a) for j, a in enumerate(f.coeffs) if a]

    def export(self, a):
        return a


class _RowTerms:
    """F_p[θ][v] on a `packed` field, integral: a term is the pair
    (x, width) that `fpx.PackedPoly.row_product` takes, digit
    i·width + j of x the coefficient of θ^j·v^i, v = t (the H_n store,
    the seeds) or v = t-θ (the worklist, after `expand`), trailing zero
    digits dropped and width above every θ-degree.  The store's terms
    are tight, width the θ-degree plus one.

    A product is one `row_product`, a sum of row products: the factor
    with more nonzero rows packed once (Kronecker substitution) times
    each nonzero row of the other, in the slot one Kronecker product of
    both would take, since every slot sums the same digit products; a
    product by the two-term factors of a fill term one
    `row_differences`, a sum one packed sum (`add`, `row_sum`), the
    shift t ↦ u + θ and the twist's
    shift by θ - θ^p a `fpx.PackedPoly.taylor_shift` whose Horner
    steps are packed sums, so every slot bound is derived in `fpx`.  A
    coefficient of u^j in the worklist is a `bytes` of
    `fpx.PackedPoly`."""

    rational = False

    def __init__(self, field: FieldSpec):
        self.field = field
        self.ring = ring = packed_ring(field.p)
        self.one = b"\1", 1
        self.mul = ring.row_product
        self.sum = ring.row_sum
        self.differences = ring.row_differences
        self.add_coeff = ring.add
        self._twist_shift = ((1, 1), (field.neg(1), field.p))

    def lay(self, b: BiPoly):
        """The rows of a `BiPoly` in t, at width the θ-degree plus one:
        digit i·width + j is the coefficient of θ^j·t^i."""
        _check_laid(self, b)
        width = max(b.theta_degree() + 1, 1)
        x = fpx.lay_rows(self.ring.convert_all(b.coeffs), width)
        return x.rstrip(b"\0"), width

    def t_poly(self, b: Poly):
        """A polynomial in t over F_p: one digit per row."""
        return bytes(b.coeffs), 1

    def add(self, a, b):
        (x, wa), (y, wb) = a, b
        width = max(wa, wb)
        return self.ring.add(
            fpx.relayout(x, wa, width), fpx.relayout(y, wb, width)
        ), width

    def neg(self, f):
        return self.ring.neg(f[0]), f[1]

    def theta_degree(self, h) -> int:
        """The θ-degree of a tight term."""
        x, width = h
        return width - 1 if x else -1

    def frob(self, h):
        """h^{(1)} for a tight term h in t: θ^j ↦ θ^{pj} spreads the
        digits p apart, in rows of width p·width, re-laid tight at
        p·(width - 1) + 1."""
        x, width = h
        wide = self.field.p * (width - 1) + 1
        y = fpx.relayout(self.ring.frob(x, 1), self.field.p * width, wide)
        return y.rstrip(b"\0"), wide

    def bipoly(self, h) -> BiPoly:
        """The inverse of `lay`: row i, its trailing zeros dropped in
        one `bytes.rstrip`, is the coefficient of t^i."""
        x, width = h
        F = self.field
        return BiPoly(F, [
            Poly(F, x[i:i + width].rstrip(b"\0"))
            for i in range(0, len(x), width)
        ])

    # -- the worklist, in u = t-θ -----------------------------------------
    def expand(self, f):
        """The u-basis term of a term in t, laid out at width D + 1 for
        the staircase bound D = max_j (deg a_j + j) over the rows a_j
        of f (`fpx.staircase`).

        Proof that D + 1 holds every digit the shift by θ writes:
        f(u + θ) = Σ_j a_j·Σ_{k ≤ j} C(j, k)·θ^{j-k}·u^k, and each
        product there has θ-degree deg a_j + j - k <= D - k.  A Horner
        step of `fpx.PackedPoly.taylor_shift` adds to row k a product
        θ^m·b moved down m rows, b a row k + m of the shift of a run of
        f's rows, whose every product has θ-degree at most
        D - (k + m) by the same count, so no single product, before
        any cancellation mod p, passes D - k."""
        x, width = f
        if not x:
            return b"", 1
        wide = fpx.staircase(x, width) + 1
        return self.ring.taylor_shift(
            (fpx.relayout(x, width, wide), wide), ((1, 1),)
        )

    def u_power(self, w):
        return bytes(w) + b"\1", 1

    def rows(self, f):
        x, width = f
        return -(-len(x) // width)

    def split(self, f, w):
        """(γ, g) with f = γ + u^w·g and fewer than w rows in γ."""
        x, width = f
        return (x[:w * width].rstrip(b"\0"), width), fpx.tighten(x[w * width:], width)

    def twist(self, g):
        """g^{(1)} in the u-basis: θ^j ↦ θ^{pj} spreads the digits p
        apart, in rows of width p·width, then the shift by θ - θ^p, laid
        out at width p·D + 1 for the staircase bound
        D = max_j (deg b_j + j) over the rows b_j of g (`fpx.staircase`).

        Proof: g^{(1)} = Σ_j b_j^{(1)}·Σ_{k ≤ j} C(j, k)·(θ - θ^p)^{j-k}·u^k,
        and each product there has θ-degree at most
        p·deg b_j + p·(j - k) <= p·D - p·k.  A Horner step adds to row k
        the products of (θ^m - θ^{pm})·b, b a row k + m whose products
        are bounded by p·D - p·(k + m) by the same count, so no single
        product passes p·D - p·k."""
        x, width = g
        p = self.field.p
        wide = p * fpx.staircase(x, width) + 1
        y = fpx.relayout(self.ring.frob(x, 1), p * width, wide)
        return self.ring.taylor_shift((y, wide), self._twist_shift)

    def coeffs(self, f):
        """(j, a) for every nonzero coefficient a of u^j."""
        x, width = f
        out = []
        for i in range(0, len(x), width):
            a = x[i:i + width].rstrip(b"\0")
            if a:
                out.append((i // width, a))
        return out

    def export(self, a):
        return Poly(self.field, a)


def terms_for(field: FieldSpec, rational: bool = False):
    """The terms of F_q[θ][t] for `field`: packed rows (`_RowTerms`) on
    a `packed` field for integral coefficients, those of every
    multizeta motive and of a polylogarithm one at a point in
    F_q[θ]^r, `BiPoly`s (`_BiPolyTerms`) otherwise.  The one place
    these terms read `field.packed`."""
    if field.packed and not rational:
        return _RowTerms(field)
    return _BiPolyTerms(field, rational)


class CarlitzCache:
    """Memoized Carlitz quantities for a fixed F_q."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.q = field.q
        self._bracket = {}
        self._big_d = {0: Poly.one(field)}
        self._big_l = {0: Poly.one(field)}
        self._terms = terms_for(field)
        # K_m = H_m^{(-1)}; K_0..K_{q-1} = 1, the start of the fill
        self._h = {m: self._terms.one for m in range(self.q)}
        # per n: the u-basis expansion of H_n
        self._h_u = {}
        self._d_powers = {}
        self._g = {0: (Poly.one(field), {})}
        self._bc = {}

    # -- brackets and factorials ------------------------------------------
    def bracket(self, l: int) -> Poly:
        """[l] = θ^{q^l} - θ."""
        if l < 1:
            raise ValueError("bracket index must be >= 1")
        if l not in self._bracket:
            F = self.field
            th = Poly.gen(F)
            self._bracket[l] = th.twist(l) - th
        return self._bracket[l]

    def big_d(self, i: int) -> Poly:
        """D_i = Π_{j<i} (θ^{q^i} - θ^{q^j}) = [i]·D_{i-1}^q."""
        if i not in self._big_d:
            self._big_d[i] = self.bracket(i) * self.big_d(i - 1).twist(1)
        return self._big_d[i]

    def _d_power(self, i: int, e: int) -> Poly:
        """D_i^e, e >= 0, from a memo of D_i^0, D_i^1, ... per i that the
        Bernoulli-Carlitz recursion, `gamma` and `binomial` share."""
        powers = self._d_powers.setdefault(i, [Poly.one(self.field)])
        while len(powers) <= e:
            powers.append(powers[-1] * self.big_d(i))
        return powers[e]

    def big_l(self, i: int) -> Poly:
        """L_i = (θ - θ^q)···(θ - θ^{q^i})."""
        if i not in self._big_l:
            self._big_l[i] = self.big_l(i - 1) * (-self.bracket(i))
        return self._big_l[i]

    def gamma(self, n: int) -> Poly:
        """Carlitz factorial Γ_n (n >= 1), via the digits of n-1."""
        if n < 1:
            raise ValueError("Γ_n needs n >= 1")
        out = Poly.one(self.field)
        for i, d in enumerate(base_q_digits(n - 1, self.q)):
            if d:
                out = out * self._d_power(i, d)
        return out

    def gamma_exponents(self, n: int):
        """Γ_n (n >= 1) as a factored map {i: exponent of D_i}."""
        if n < 1:
            raise ValueError("Γ_n needs n >= 1")
        return {
            i: d for i, d in enumerate(base_q_digits(n - 1, self.q)) if d
        }

    def gamma_ratio(self, s: int) -> Poly:
        """Γ_{s+1}/Γ_s = [1]·[2]···[k] = (-1)^k·L_k for s >= 1, where k
        is the position of the lowest nonzero base-q digit of s.

        Proof: Γ_{s+1} = Π D_j^{s_j} over the base-q digits s_j of s, and
        s - 1 borrows from digit k: its digits 0..k-1 are q-1 and its
        digit k is s_k - 1, so Γ_{s+1}/Γ_s = D_k/Π_{j<k} D_j^{q-1}.
        That is D_0 = 1 at k = 0, and raising k by one multiplies it by
        D_{k+1}/D_k^q = [k+1], as D_l = [l]·D_{l-1}^q: the induction that
        proves `_derive_h`'s B_{m,i} a bracket product."""
        if s < 1:
            raise ValueError("Γ_{s+1}/Γ_s needs s >= 1")
        k = next(k for k, d in enumerate(base_q_digits(s, self.q)) if d)
        return -self.big_l(k) if k % 2 else self.big_l(k)

    def binomial(self, n: int, i: int) -> Poly:
        """The Carlitz binomial coefficient B_{n,i} = Γ_{n+1}/(D_i·Γ_{n+1-q^i})
        for q^i <= n, by an exact division of Carlitz factorials that
        raises on a nonzero remainder: the reference for the bracket
        product that `_derive_h` multiplies by."""
        if i < 0 or self.q ** i > n:
            raise ValueError("B_{n,i} needs i >= 0 and q^i <= n")
        hi = self.gamma_exponents(n + 1)
        lo = self.gamma_exponents(n + 1 - self.q ** i)
        lo[i] = lo.get(i, 0) + 1
        num = Poly.one(self.field)
        den = Poly.one(self.field)
        for j in set(hi) | set(lo):
            e = hi.get(j, 0) - lo.get(j, 0)
            if e > 0:
                num = num * self._d_power(j, e)
            elif e < 0:
                den = den * self._d_power(j, -e)
        return num.exact_div(den)

    # -- the H_n family ----------------------------------------------------
    def anderson_thakur(self, n: int) -> BiPoly:
        """H_n in A[t]: H_n = 1 for 0 <= n <= q-1, and in general the
        coefficient of x^n in the generating identity times Γ_{n+1}(t).
        The one entry point that fills: a call fills every missing
        K_m = H_m^{(-1)}, m <= n, and builds the `BiPoly` of H_n from
        `h_term`, on every call, keeping none.  No library path
        multiplies it: a motive reads its attached polynomials from
        `h_term` and `h_expanded`."""
        if n < 0:
            raise ValueError("H_n needs n >= 0")
        if n not in self._h:
            self._derive_h(n)
        return self._terms.bipoly(self.h_term(n))

    def h_term(self, n: int):
        """H_n as a term in t of `terms_for(field)`, tight packed rows
        on a `packed` field: what a canonical motive takes its Q_ℓ as,
        with no `BiPoly` round trip.  It is twisted from K_n on every
        call and not kept; on rows the twist is one strided spread of
        K_n's digits.  A K_n not yet filled is filled by a call of
        `anderson_thakur`, so every fill runs inside that one entry
        point, which builds one `BiPoly` and drops it; a K_n already
        filled, below a larger one, builds none."""
        if n not in self._h:
            self.anderson_thakur(n)
        return self._terms.frob(self._h[n])

    def h_expanded(self, n: int):
        """H_n in the u-basis, u = t-θ (`expand` of `h_term`), expanded
        once per n for every motive that multiplies by it."""
        u = self._h_u.get(n)
        if u is None:
            u = self._h_u[n] = self._terms.expand(self.h_term(n))
        return u

    def _derive_h(self, n: int):
        """Extend the store, which holds K_0..K_{q-1} = 1, to K_0..K_n,
        K_m = H_m^{(-1)}, in its terms (`terms_for`).

        Ascending in m, H_m = Σ_{q^i ≤ m} G_i(θ,t)·H_{m-q^i}·B_{m,i}(t):
        the generating identity multiplied through by Γ_{m+1}(t).  Every
        factor of a term has two terms, so each product is one
        difference of the terms, X·(t^a - θ^b·t^c), and the factors of
        one term are applied by one `differences`:

        * G_i is the product of t^{q^i} - θ^{q^j}, j = 1..i;
        * B_{m,i} = [i+1]·[i+2]···[k] with [l] = t^{q^l} - t, where k is
          the position of the lowest nonzero base-q digit of m at or
          above position i (an empty product, 1, when digit i is
          nonzero).

        Proof of the second, with D_l and [l] in t: Γ_{m+1} = Π D_j^{m_j}
        over the base-q digits m_j of m.  If m_i ≠ 0, m - q^i lowers
        digit i by one, and B_{m,i} = Γ_{m+1}/(D_i·Γ_{m+1-q^i}) =
        D_i/D_i = 1.  Otherwise m - q^i borrows from digit k: its digits
        i..k-1 are q-1 and its digit k is m_k - 1, so
        B_{m,i} = D_k/(D_i^q·Π_{i<j<k} D_j^{q-1}) (`binomial`).  As
        D_l = [l]·D_{l-1}^q, that is D_{i+1}/D_i^q = [i+1] at k = i+1,
        and raising k by one multiplies it by D_{k+1}/D_k^q = [k+1].

        The store holds K_m, not H_m.  H_m lies in F_q[θ^q][t]: every
        θ in a factor t^{q^i} - θ^{q^j} of G_i comes as θ^{q^j} with
        j >= 1, B_{m,i} has no θ, and H_0..H_{q-1} = 1, so by induction
        on m every term of the recursion, and H_m, is a polynomial in
        θ^q.  The twist back θ^q ↦ θ is a ring map of F_q[θ^q][t] onto
        F_q[θ][t] fixing t, so K_m satisfies the same recursion with
        each factor t^{q^i} - θ^{q^{j-1}}, j = 1..i, and one row of K_m
        holds 1/q of the θ-digits of the row of H_m.

        Every difference of K_m's terms is laid out at one width, which
        holds the θ-degrees of all of them (G_i^{(-1)} adds
        1 + q + ... + q^{i-1}), so each K_{m-q^i} is re-laid once, by
        its first factor or by the sum, and K_m is one sum of the
        terms."""
        T, h, q = self._terms, self._h, self.q
        for m in range(max(h) + 1, n + 1):
            digits = base_q_digits(m, q)
            # the θ-degree plus 1 + (1 + q + ... + q^{i-1})
            width = max(
                T.theta_degree(h[m - q ** i]) + (q ** i - 1) // (q - 1) + 1
                for i in range(len(digits))
            )
            terms = []
            for i in range(len(digits)):
                k = next(k for k in range(i, len(digits)) if digits[k])
                factors = [(q ** i, q ** j, 0) for j in range(i)]
                factors += [(q ** l, 0, 1) for l in range(i + 1, k + 1)]
                terms.append(T.differences(h[m - q ** i], factors, width))
            acc = T.sum(terms)
            # deg H_m <= m·q/(q-1), and deg K_m = deg H_m / q
            assert T.theta_degree(acc) * (q - 1) <= m, (
                "H_n degree bound violated"
            )
            h[m] = acc

    # -- Bernoulli-Carlitz -------------------------------------------------
    def bernoulli_carlitz(self, n: int) -> RatFrac:
        """BC(n): coefficient of z^n in z/exp_C(z), times Γ_{n+1}.

        Zero whenever n > 0 and (q-1) does not divide n.

        The coefficients g_m of z/exp_C(z) = (Σ_{i≥0} z^{q^i-1}/D_i)^{-1}
        satisfy g_0 = 1 and g_m = -Σ_{i≥1, q^i-1≤m} g_{m-q^i+1}/D_i.
        Each g_m is kept as N_m/Δ_m, a polynomial N_m over
        Δ_m = Π_k D_k^{e_m(k)}, and Δ_m only as its exponent map e_m:
        e_m(k) is the largest e_{m-q^i+1}(k) + [k=i] over the i whose
        g_{m-q^i+1} is nonzero, and
        N_m = -Σ_i N_{m-q^i+1}·Π_k D_k^{e_m(k) - e_{m-q^i+1}(k) - [k=i]}.
        Every exponent there is >= 0 because e_m(k) is the largest of
        the e_{m-q^i+1}(k) + [k=i], so each step is polynomial products
        and a sum in A, with no division and no gcd.  The recursion runs
        once per field, ascending, over m ≡ 0 mod q-1 only (q^i - 1 is a
        multiple of q-1, so g_m = 0 for the other m).  Then
        BC(n) = N_n·Γ_{n+1}/Δ_n: Γ_{n+1} = Π D_k^{n_k} over the base-q
        digits of n is cancelled against e_n exponent by exponent, and
        one `RatFrac` reduction, one gcd, gives the lowest terms.
        """
        if n < 0:
            raise ValueError("BC(n) needs n >= 0")
        if n == 0:
            return RatFrac.one(self.field)
        if n % (self.q - 1) != 0 and self.q > 2:
            return RatFrac.zero(self.field)
        if n not in self._bc:
            self._extend_g(n)
            num, e = self._g[n]
            gamma = self.gamma_exponents(n + 1)
            den = Poly.one(self.field)
            for k in set(gamma) | set(e):
                common = min(gamma.get(k, 0), e.get(k, 0))
                num = num * self._d_power(k, gamma.get(k, 0) - common)
                den = den * self._d_power(k, e.get(k, 0) - common)
            self._bc[n] = RatFrac(num, den)
        return self._bc[n]

    def _extend_g(self, n: int):
        """Extend the memo of (N_m, e_m) to every m <= n with
        m ≡ 0 mod q-1 (`bernoulli_carlitz`)."""
        g, q = self._g, self.q
        for m in range(max(g) + q - 1, n + 1, q - 1):
            terms = []
            i = 1
            while q ** i - 1 <= m:
                num, e = g[m - q ** i + 1]
                if num:
                    terms.append((i, num, e))
                i += 1
            top = {}
            for i, _, e in terms:
                for k in set(e) | {i}:
                    top[k] = max(top.get(k, 0), e.get(k, 0) + (k == i))
            acc = Poly.zero(self.field)
            for i, num, e in terms:
                factor = Poly.one(self.field)
                for k, ek in top.items():
                    factor = factor * self._d_power(
                        k, ek - e.get(k, 0) - (k == i)
                    )
                acc = acc + num * factor
            g[m] = -acc, top

    def bc_denominator(self, n: int) -> Poly:
        """Monic denominator of BC(n); the unit polynomial when BC(n)=0."""
        bc = self.bernoulli_carlitz(n)
        if bc.is_zero():
            return Poly.one(self.field)
        return bc.den


_caches = {}


def cache_for(field: FieldSpec) -> CarlitzCache:
    if field not in _caches:
        _caches[field] = CarlitzCache(field)
    return _caches[field]


def cache_for_q(q: int) -> CarlitzCache:
    return cache_for(field_for_q(q))
