import contextlib
import hashlib
import json
import random
import signal

import pytest

from ffmzv import fpx
from ffmzv.carlitz import (
    CarlitzCache,
    _RowTerms,
    base_q_digits,
    cache_for_q,
    theta_major,
)
from ffmzv.fields import field_for_q
from ffmzv.poly import BiPoly, Poly, RatFrac


def test_base_q_digits():
    assert base_q_digits(0, 3) == []
    assert base_q_digits(7, 2) == [1, 1, 1]
    assert base_q_digits(10, 3) == [1, 0, 1]


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the guarded block after `seconds`, so a
    call that never returns fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError("the call did not return")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("call", [
    lambda c: base_q_digits(-1, 3),
    lambda c: c.gamma_exponents(0),
    lambda c: c.gamma_ratio(0),
    lambda c: c.binomial(2, 1),
    lambda c: c.binomial(5, -1),
], ids=["digits(-1)", "gamma_exponents(0)", "gamma_ratio(0)",
        "binomial(2,1)", "binomial(5,-1)"])
def test_out_of_range_indices_raise(call):
    """A negative n has no base-q digits (-1 % q = q-1 and -1 // q = -1,
    so the digit loop never ends), and Γ_0, Γ_1/Γ_0 and B_{n,i} with
    q^i > n are undefined: each raises at q = 3."""
    c = cache_for_q(3)
    with _deadline(1.0), pytest.raises(ValueError):
        call(c)


def test_brackets_and_products():
    c = cache_for_q(3)
    F = c.field
    th = Poly.gen(F)
    assert c.bracket(1) == th ** 3 - th
    assert c.bracket(2) == th ** 9 - th
    assert c.big_d(1) == c.bracket(1)
    # D_2 = [2]·D_1^(1)
    assert c.big_d(2) == c.bracket(2) * c.big_d(1).twist(1)
    assert c.big_l(2) == (-c.bracket(1)) * (-c.bracket(2))


def test_gamma_small_values():
    c = cache_for_q(3)
    F = c.field
    th = Poly.gen(F)
    assert c.gamma(1).is_one()
    assert c.gamma(3).is_one()  # digits of 2 are (2): D_0^2 = 1
    assert c.gamma(4) == th ** 3 - th  # digits of 3 are (0,1): D_1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_gamma_ratio_always_polynomial(q):
    """Γ_{s+1}/Γ_s, the bracket product [1]···[k], times Γ_s is Γ_{s+1}
    for every s up to q^3 + 2q, so k runs through 0..3."""
    c = CarlitzCache(field_for_q(q))
    for s in range(1, q ** 3 + 2 * q + 1):
        assert c.gamma_ratio(s) * c.gamma(s) == c.gamma(s + 1), s


@pytest.mark.parametrize("q", [2, 3, 5])
def test_h_trivial_below_q(q):
    c = cache_for_q(q)
    for n in range(q):
        assert c.anderson_thakur(n) == BiPoly.one(c.field)


@pytest.mark.parametrize("q,nmax", [(2, 10), (3, 10), (4, 8)])
def test_h_degree_bound(q, nmax):
    c = cache_for_q(q)
    for n in range(nmax + 1):
        h = c.anderson_thakur(n)
        assert h.theta_degree() * (q - 1) <= n * q


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_carlitz_binomial_is_polynomial(q):
    """B_{n,i} = Γ_{n+1}/(D_i·Γ_{n+1−q^i}) is a polynomial (Bhargava's
    integrality of factorials), and 1 when digit i of n is nonzero."""
    c = CarlitzCache(field_for_q(q))
    gamma = {}

    def g(m):
        if m not in gamma:
            gamma[m] = c.gamma(m)
        return gamma[m]

    for n in range(1, 3 * q * q):
        digits = base_q_digits(n, q)
        i = 0
        while q ** i <= n:
            b = c.binomial(n, i)
            assert b * c.big_d(i) * g(n + 1 - q ** i) == g(n + 1)
            if digits[i]:
                assert b.is_one()
            i += 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_binomial_is_a_bracket_product(q):
    """B_{m,i} = [i+1]·[i+2]···[k], [l] = θ^{q^l} - θ, k the position
    of the next nonzero base-q digit of m above position i (1 when
    digit i is nonzero): the identity the fill multiplies by, against
    the exact division of Carlitz factorials in `binomial`, for every
    m <= 300 and q^i <= m."""
    c = CarlitzCache(field_for_q(q))
    for m in range(1, 301):
        digits = base_q_digits(m, q)
        for i, d in enumerate(digits):
            k = i if d else next(
                k for k in range(i + 1, len(digits)) if digits[k]
            )
            product = Poly.one(c.field)
            for l in range(i + 1, k + 1):
                product = product * c.bracket(l)
            assert c.binomial(m, i) == product, (m, i)


def _h_digest(q, nmax):
    c = CarlitzCache(field_for_q(q))
    hs = [
        [list(p.coeffs) for p in theta_major(c.anderson_thakur(n))]
        for n in range(nmax + 1)
    ]
    return hashlib.sha256(json.dumps(hs).encode()).hexdigest()


@pytest.mark.parametrize("q,nmax,digest", [
    (3, 61, "80237179bd2c7222129e40438ba75508d23afc62cc85fd6637a4ca86e90b8328"),
    (2, 40, "df1516e2b45841e7fcbf61e431b423a1fa67355a7c1fbcefe6c473248e334de6"),
    (4, 30, "4b3fa686ced69c6da3e7d811d8386fba0e394445ffeeefb41e7b3f8ad72130d3"),
    (5, 40, "66019bd47d220286fce64a1e46c32ab1954e04b9d01184ef98f4e0be61fdc315"),
])
def test_h_n_is_pinned(q, nmax, digest):
    """sha256 of the θ-major coefficient lists of H_0..H_nmax, recorded
    with the fraction-carrying recursion (reduced by F_q[t]-gcds and
    cleared by an exact division at the end)."""
    assert _h_digest(q, nmax) == digest


class _Frac:
    """num/den with num in F_q[t,θ] and den in F_q[t], for the
    generating-identity cross-check only."""

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __add__(self, other):
        if self.num.is_zero():
            return other
        return _Frac(
            self.num * BiPoly.from_tpoly(other.den)
            + other.num * BiPoly.from_tpoly(self.den),
            self.den * other.den,
        )

    def __mul__(self, other):
        return _Frac(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        return (
            self.num * BiPoly.from_tpoly(other.den)
            == other.num * BiPoly.from_tpoly(self.den)
        )


@pytest.mark.parametrize(
    "q,order", [(2, 8), (3, 9), (3, 27), (4, 64), (5, 25), (9, 81)]
)
def test_generating_identity(q, order):
    """Σ H_n/Γ_{n+1}(t)·x^n times (1 − Σ G_i/D_i(t)·x^{q^i}) = 1 + O(x^{order+1})."""
    c = cache_for_q(q)
    F = c.field
    one_t = Poly.one(F, var="t")

    def frac(num, den):
        return _Frac(num, den)

    zero = frac(BiPoly.zero(F), one_t)
    one = frac(BiPoly.one(F), one_t)

    lhs = [
        frac(c.anderson_thakur(n), c.gamma(n + 1).with_var("t"))
        for n in range(order + 1)
    ]
    rhs = [zero] * (order + 1)
    rhs[0] = one
    i = 0
    while q ** i <= order:
        gi = frac(_g_poly(F, i), c.big_d(i).with_var("t"))
        rhs[q ** i] = rhs[q ** i] + frac(
            gi.num.scale(F.neg(1)), gi.den
        )
        i += 1
    # product, truncated at x^order
    prod = [zero] * (order + 1)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            if not rhs[b].num.is_zero():
                prod[a + b] = prod[a + b] + lhs[a] * rhs[b]
    assert prod[0] == one
    for n in range(1, order + 1):
        assert prod[n] == zero


def _series_z_over_exp(c, order):
    """Coefficients g_0..g_order of z/exp_C(z) = (Σ z^{q^i-1}/D_i)^{-1},
    one reduced `RatFrac` sum per term: the reference for the
    numerator recursion of `bernoulli_carlitz`."""
    F = c.field
    support = {}
    i = 0
    while c.q ** i - 1 <= order:
        support[c.q ** i - 1] = RatFrac(Poly.one(F), c.big_d(i), reduce=False)
        i += 1
    g = [RatFrac.zero(F)] * (order + 1)
    g[0] = RatFrac.one(F)
    for m in range(1, order + 1):
        acc = RatFrac.zero(F)
        for j, fj in support.items():
            if 0 < j <= m:
                t = g[m - j]
                if not t.is_zero():
                    acc = acc + fj * t
        g[m] = -acc
    return g


@pytest.mark.parametrize("q,order", [(2, 8), (3, 9)])
def test_exp_inversion(q, order):
    """The z/exp series times exp_C(z)/z is 1 to the stated order."""
    c = cache_for_q(q)
    F = c.field
    g = _series_z_over_exp(c, order)
    # exp_C(z)/z = Σ z^{q^i - 1}/D_i
    exp = [RatFrac.zero(F)] * (order + 1)
    i = 0
    while q ** i - 1 <= order:
        exp[q ** i - 1] = RatFrac(Poly.one(F), c.big_d(i))
        i += 1
    for m in range(order + 1):
        acc = RatFrac.zero(F)
        for j in range(m + 1):
            acc = acc + g[j] * exp[m - j]
        assert acc.is_zero() if m else acc == RatFrac.one(F)


@pytest.mark.parametrize("q,nmax", [
    (2, 64), (3, 162), (4, 255), (5, 250), (7, 343), (9, 400), (131, 800),
], ids=["2", "3", "4", "5", "7", "9", "131"])
def test_bc_matches_the_series(q, nmax):
    """BC(n) = g_n·Γ_{n+1}, numerator and denominator, for every
    n <= nmax, g_n from the `RatFrac` series.  One fresh cache is asked
    in descending order, so one call runs the whole recursion, and
    another in ascending order, so every call extends it."""
    ref = CarlitzCache(field_for_q(q))
    g = _series_z_over_exp(ref, nmax)
    want = [g[n] * RatFrac.from_poly(ref.gamma(n + 1)) for n in range(nmax + 1)]
    for order in (range(nmax, -1, -1), range(nmax + 1)):
        c = CarlitzCache(field_for_q(q))
        for n in order:
            bc = c.bernoulli_carlitz(n)
            assert (bc.num, bc.den) == (want[n].num, want[n].den), n


def test_bc_known_values():
    c = cache_for_q(3)
    F = c.field
    th = Poly.gen(F)
    # BC(2) = -Γ_3/D_1 = 2/(θ³ + 2θ)
    bc2 = c.bernoulli_carlitz(2)
    assert bc2 == RatFrac(Poly.const(F, 2), th ** 3 - th)
    # odd n (q > 2): BC vanishes, denominator convention is 1
    assert c.bernoulli_carlitz(3).is_zero()
    assert c.bc_denominator(3).is_one()
    assert c.bc_denominator(2) == th ** 3 - th


def test_bc_denominator_monic():
    for q in (2, 3):
        c = cache_for_q(q)
        for n in range(1, 12):
            den = c.bc_denominator(n)
            assert den.leading() == 1


def test_theta_major_roundtrip():
    """`theta_major` loses nothing: its columns C_j(t) rebuild H_5 as
    Σ_j θ^j·C_j(t), row by row."""
    c = cache_for_q(3)
    h = c.anderson_thakur(5)
    cols = theta_major(h)
    rows = [
        Poly(c.field, [col[i] for col in cols])
        for i in range(max(col.degree for col in cols) + 1)
    ]
    assert BiPoly(c.field, rows) == h


def test_h_n_reads_and_writes_no_file(tmp_path, monkeypatch):
    """The H_n store lives in memory only.  A directory named by the
    once-read CARLITZ_CACHE_DIR, holding a q=3 file in the old format
    with one well-formed entry (H_5) and one corrupt entry (H_12), is
    neither read, nor repaired, nor written: H_0..H_29 equal a fill
    made without the variable, and the directory is left as it was."""
    F = field_for_q(3)
    want = [CarlitzCache(F).anderson_thakur(n) for n in range(30)]
    planted = tmp_path / "at_h_p3_e1_m0-1.json"
    planted.write_text(json.dumps({
        "5": [list(p.coeffs) for p in theta_major(want[5])],
        "12": [[999]],
    }))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setenv("CARLITZ_CACHE_DIR", str(tmp_path))
    c = CarlitzCache(F)
    assert c.anderson_thakur(29) == want[29]
    assert [c.anderson_thakur(n) for n in range(30)] == want
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _g_poly(F, i):
    """G_i = Π_{j=1..i} (t^{q^i} - θ^{q^j}) as a product of `BiPoly`s."""
    qi = F.q ** i
    out = BiPoly.one(F)
    for j in range(1, i + 1):
        out = out * BiPoly(
            F, [-Poly.gen(F).twist(j)] + [Poly.zero(F)] * (qi - 1) + [Poly.one(F)]
        )
    return out


def _reference_fill(c, n):
    """H_0..H_n by the recursion on `BiPoly`s: each term a `BiPoly`
    product by G_i and by B_{m,i} = `binomial`, an exact division of
    Carlitz factorials, each H_m a `BiPoly` sum of `Poly` rows.  The
    reference for the fill by two-term differences."""
    F, q = c.field, c.q
    g = {}
    h = [BiPoly.one(F)] * q
    for m in range(q, n + 1):
        acc = BiPoly.zero(F)
        i = 0
        while q ** i <= m:
            if i not in g:
                g[i] = _g_poly(F, i)
            term = g[i] * h[m - q ** i]
            b = c.binomial(m, i)
            if not b.is_one():
                term = term * BiPoly.from_tpoly(b.with_var("t"))
            acc = acc + term
            i += 1
        h.append(acc)
    return h


@pytest.mark.parametrize("q,nmax", [
    (7, 96), (131, 300), (251, 502), (4, 70), (9, 100), (257, 520),
])
def test_fill_matches_the_bipoly_recursion(q, nmax):
    """The fill by two-term differences equals the `BiPoly` recursion,
    on packed rows and, at q = 4, 9 and 257, on `BiPoly`s.  Above
    p = 128 a difference adds two digits up to p-1 in a slot,
    which needs two-byte slots: at q = 131 a slot first sums past 255
    at n = 262, and at q = 251 at n = 502, where a digit p-1 of X
    meets a digit p-1 of -X, 500 in one slot, in [1]·H_501."""
    ref = _reference_fill(CarlitzCache(field_for_q(q)), nmax)
    c = CarlitzCache(field_for_q(q))
    for n in range(nmax, -1, -1):
        assert c.anderson_thakur(n) == ref[n], n


@pytest.mark.parametrize("q,nmax", [
    (2, 64), (3, 100), (4, 64), (5, 75), (9, 100), (257, 520),
])
def test_store_twists_to_the_reference_fill(q, nmax):
    """The store keeps K_n = H_n^{(-1)}: its twist, one `frob` of the
    terms (a spread of packed rows at q = 2, 3, 5, `BiPoly.twist` at
    q = 4, 9 and 257), equals the `BiPoly` recursion's H_n, every
    θ-exponent of which is divisible by q."""
    ref = _reference_fill(CarlitzCache(field_for_q(q)), nmax)
    c = CarlitzCache(field_for_q(q))
    c.anderson_thakur(nmax)
    T = c._terms
    for n in range(nmax + 1):
        k = c._h[n]
        assert T.bipoly(T.frob(k)) == ref[n], n
        assert T.bipoly(k).twist(1) == ref[n], n
        assert c.h_term(n) == T.frob(k), n
        for coeff in ref[n].coeffs:
            assert all(e % q == 0 for e, a in enumerate(coeff.coeffs) if a), n


def _rectangle_shift(ring, f, wide, shift):
    """The Taylor shift of the rows f laid out at `wide`: the reference
    for the staircase widths, at the row-rectangle bound."""
    x, width = f
    return ring.taylor_shift((fpx.relayout(x, width, wide), wide), shift)


def _random_rows(rng, p, rows, top, shape):
    """A tight term of `rows` rows in t over F_p[θ]: random digits at
    random θ-degrees up to `top`, or all p-1 up to a degree that falls
    with the row ("falling"), rises with it ("rising") or is `top` on
    every row ("full")."""
    out = []
    for j in range(rows):
        if shape == "random":
            deg = rng.randrange(-1, top + 1)
            row = [rng.randrange(p) for _ in range(deg)]
            row += [rng.randrange(1, p)] if deg >= 0 else []
        else:
            deg = {
                "falling": top - top * j // rows,
                "rising": top * j // rows,
                "full": top,
            }[shape]
            row = [p - 1] * (deg + 1)
        out.append(bytes(row))
    out[-1] = out[-1] or b"\1"
    width = max(map(len, out))
    return fpx.lay_rows(out, width).rstrip(b"\0"), width


@pytest.mark.parametrize("p", [2, 3, 5, 131, 251])
def test_expand_and_twist_at_the_staircase_width(p):
    """`_RowTerms.expand` and `_RowTerms.twist`, laid out at the
    staircase bound D + 1 and p·D + 1, equal the same Taylor shifts at
    the row-rectangle widths width + rows - 1 and
    p·(width + rows - 2) + 1, on random terms and on terms of all p-1
    digits shaped as a falling or rising staircase or a rectangle.  At
    p = 131 and 251 the rectangle widths are p times wider, so fewer
    cases run there."""
    T = _RowTerms(field_for_q(p))
    ring = T.ring
    rng = random.Random(2900 + p)
    small = p < 100
    cases = [
        _random_rows(rng, p, rng.randrange(1, 40 if small else 16),
                     rng.randrange(0, 30), "random")
        for _ in range(60 if small else 12)
    ] + [
        _random_rows(rng, p, rows, top, shape)
        for rows in ((1, 2, 3, 16, 37) if small else (1, 2, 12))
        for top in (0, 1, 17)
        for shape in ("falling", "rising", "full")
    ]
    for f in cases:
        x, width = f
        rows = T.rows(f)
        assert T.expand(f) == _rectangle_shift(
            ring, f, width + rows - 1, ((1, 1),)), f
        assert T.twist(f) == _rectangle_shift(
            ring, (ring.frob(x, 1), p * width), p * (width + rows - 2) + 1,
            T._twist_shift), f


@pytest.mark.parametrize("q,nmax", [
    (2, 40), (3, 160), (4, 20), (5, 30), (7, 30), (9, 12), (131, 300),
])
def test_h_at_t_theta_is_gamma(q, nmax):
    """H_n|_{t=θ} = Γ_{n+1}: the Anderson–Thakur identity at d = 0."""
    c = cache_for_q(q)
    th = Poly.gen(c.field)
    for n in range(nmax + 1):
        at_theta = Poly.zero(c.field)
        for coeff in reversed(c.anderson_thakur(n).coeffs):
            at_theta = at_theta * th + coeff
        assert at_theta == c.gamma(n + 1), n


def test_h_bipolys_are_built_on_request(monkeypatch):
    """A fresh fill of H_0..H_61 at q=3 multiplies no `BiPoly`s, G_0..G_3
    included, and builds the `BiPoly` of H_61 only, once per call."""
    c = CarlitzCache(field_for_q(3))
    built, products = [], []
    bipoly = _RowTerms.bipoly
    mul = BiPoly.__mul__

    def counting(self, h):
        built.append(h)
        return bipoly(self, h)

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(_RowTerms, "bipoly", counting)
    monkeypatch.setattr(BiPoly, "__mul__", counting_mul)
    h = c.anderson_thakur(61)
    assert len(built) == 1
    assert c.anderson_thakur(61) == h
    assert len(built) == 2
    assert products == []


def test_h_term_walk_keeps_no_h_terms():
    """A walk of `h_term(n)` over every n <= 241 at q=3, after a fill to
    H_241, adds nothing to the cache: each H_n is twisted from K_n on
    request and not kept, so the cache holds no H_n term beyond the
    store's K_n, and no `BiPoly` at all, not even the one the fill
    returned."""
    c = CarlitzCache(field_for_q(3))
    c.anderson_thakur(241)

    def sizes():
        return {k: len(v) for k, v in vars(c).items() if isinstance(v, dict)}

    before = sizes()
    terms = [c.h_term(n) for n in range(242)]
    assert sizes() == before
    assert c._h_u == {}
    kept = [
        x for v in vars(c).values()
        for x in (v.values() if isinstance(v, dict) else (v,))
    ]
    assert not any(isinstance(x, BiPoly) for x in kept)
    assert c._terms.bipoly(terms[241]) == c.anderson_thakur(241)
