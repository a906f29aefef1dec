import pytest
from hypothesis import given, settings, strategies as st

from ffmzv.carlitz import _RowTerms
from ffmzv.fields import field_for_q
from ffmzv.poly import (
    BiPoly,
    Poly,
    RatFrac,
    TwistError,
    packed_ring,
    taylor_shift,
)


def polys(q, max_deg=6):
    F = field_for_q(q)
    return st.lists(
        st.integers(0, q - 1), min_size=0, max_size=max_deg + 1
    ).map(lambda cs: Poly(F, cs))


@given(st.sampled_from([2, 3, 5]), st.data())
def test_ring_axioms(q, data):
    a = data.draw(polys(q))
    b = data.draw(polys(q))
    c = data.draw(polys(q))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@given(st.sampled_from([2, 3, 4, 5, 9]), st.data())
def test_divmod_invariant(q, data):
    a = data.draw(polys(q))
    b = data.draw(polys(q).filter(lambda p: not p.is_zero()))
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


@given(st.sampled_from([2, 3, 4, 9]), st.data())
def test_exact_div_roundtrip(q, data):
    a = data.draw(polys(q))
    b = data.draw(polys(q).filter(lambda p: not p.is_zero()))
    assert (a * b).exact_div(b) == a


def test_exact_div_rejects_inexact():
    F = field_for_q(3)
    th = Poly.gen(F)
    with pytest.raises(ValueError):
        (th + Poly.one(F)).exact_div(th)


@given(st.sampled_from([2, 3]), st.data())
def test_gcd_divides_both(q, data):
    a = data.draw(polys(q).filter(lambda p: not p.is_zero()))
    b = data.draw(polys(q).filter(lambda p: not p.is_zero()))
    g = a.gcd(b)
    assert a.exact_div(g) * g == a
    assert b.exact_div(g) * g == b
    assert g.leading() == 1  # monic normalization


@given(st.sampled_from([2, 3, 4]), st.data())
@settings(max_examples=60)
def test_twist_is_ring_homomorphism(q, data):
    a = data.draw(polys(q, 4))
    b = data.draw(polys(q, 4))
    n = data.draw(st.integers(0, 2))
    assert (a + b).twist(n) == a.twist(n) + b.twist(n)
    assert (a * b).twist(n) == a.twist(n) * b.twist(n)
    assert a.twist(n).twist(1) == a.twist(n + 1)


def _loop_twist(a, n):
    """f^(n) by the coefficient loop `Poly.twist` used to run: the
    reference for its strided assignment."""
    if n == 0 or a.is_zero():
        return a
    step = a.field.q ** n
    out = [0] * (a.degree * step + 1)
    for i, c in enumerate(a.coeffs):
        if c:
            out[i * step] = c
    return Poly(a.field, out, a.var)


@given(st.sampled_from([2, 3, 4, 9]), st.data())
@settings(max_examples=80)
def test_twist_matches_coefficient_loop(q, data):
    a = data.draw(polys(q, 12))
    n = data.draw(st.integers(0, 3))
    assert a.twist(n) == _loop_twist(a, n)
    assert a.twist(n).coeffs == _loop_twist(a, n).coeffs


def test_twist_on_generator():
    F = field_for_q(3)
    th = Poly.gen(F)
    assert th.twist(1) == th ** 3
    assert th.twist(2) == th ** 9


def test_negative_twist_rejected():
    F = field_for_q(3)
    with pytest.raises(TwistError):
        Poly.gen(F).twist(-1)


def test_getitem_past_degree_is_zero():
    F = field_for_q(3)
    p = Poly(F, [1, 2])
    assert p[0] == 1 and p[1] == 2 and p[5] == 0


def test_packed_mul_slots_do_not_overflow():
    """Coefficient 69999 of the square sums 70000 products 250*250,
    which exceeds 2^32 before reduction mod 251."""
    F = field_for_q(251)
    a = Poly(F, [250] * 70000)
    assert (a * a)[69999] == 222


def test_kronecker_mul_reads_bytes_as_digits():
    """A `bytes` of F_p digits packs digit by digit also when a slot is
    wider than one byte: 100 products of two digits at p=3 need 400,
    two-byte slots.  A packer on array machine words once read a bytes
    initializer as raw words and gave a wrong product here."""
    import random

    rng = random.Random(3)
    a = [rng.randrange(3) for _ in range(100)]
    b = [rng.randrange(3) for _ in range(100)]
    product = packed_ring(3).product
    want = product(a, b, 100)
    assert product(bytes(a), bytes(b), 100) == want
    assert product(bytearray(a), b, 100) == want
    F = field_for_q(3)
    assert Poly(F, want) == Poly(F, a) * Poly(F, b)


@pytest.mark.parametrize("make", [
    lambda F: Poly.const(F, -1),
    lambda F: Poly.one(F).scale(-1),
    lambda F: Poly.one(F).scale(9),
    lambda F: RatFrac.one(F).scale(-1),
    lambda F: BiPoly.one(F).scale(-1),
])
def test_int_scalar_must_be_an_element_code(make):
    """An int scalar is an element code in range(q), never read mod q:
    at q=9, -1 mod 9 is the code 8 (2+2y), while -1 is `F.neg(1)` = 2."""
    F = field_for_q(9)
    with pytest.raises(ValueError, match="range"):
        make(F)
    minus_one = F.neg(1)
    assert Poly.const(F, minus_one) == -Poly.one(F)
    assert Poly.one(F).scale(minus_one) == -Poly.one(F)


# -- rational functions ------------------------------------------------------

def test_ratfrac_reduction_and_monic_denominator():
    F = field_for_q(3)
    th = Poly.gen(F)
    f = RatFrac(th * th - Poly.one(F), (th - Poly.one(F)).scale(2))
    # (θ²-1)/(2(θ-1)) reduces to 2(θ+1) over a monic denominator
    assert f.den.is_one()
    assert f.num == (th + Poly.one(F)).scale(2)


@given(st.sampled_from([2, 3]), st.data())
def test_ratfrac_field_axioms(q, data):
    F = field_for_q(q)
    nz = polys(q, 3).filter(lambda p: not p.is_zero())
    a = RatFrac(data.draw(polys(q, 3)), data.draw(nz))
    b = RatFrac(data.draw(polys(q, 3)), data.draw(nz))
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero()
    if not b.is_zero():
        assert (a / b) * b == a


def test_ratfrac_is_integral():
    """A fraction is integral when its reduced denominator is 1."""
    F = field_for_q(3)
    th = Poly.gen(F)
    assert RatFrac.from_poly(th).den.is_one()
    assert RatFrac(th ** 2 + th, th).den.is_one()
    assert not RatFrac(Poly.one(F), th).den.is_one()


# -- two-variable polynomials ------------------------------------------------

def test_bipoly_mul_matches_expansion():
    F = field_for_q(3)
    th = Poly.gen(F)
    # (t - θ)(t + θ) = t² - θ²
    a = BiPoly(F, [-th, Poly.one(F)])
    b = BiPoly(F, [th, Poly.one(F)])
    prod = a * b
    assert prod.coeffs[0] == -(th * th)
    assert prod.coeffs[1].is_zero()
    assert prod.coeffs[2].is_one()


def _t_minus_theta_power(F, j):
    """(t-θ)^j in A[t], by j products with t - θ."""
    tmt = BiPoly(F, [-Poly.gen(F), Poly.one(F)])
    out = BiPoly.one(F)
    for _ in range(j):
        out = out * tmt
    return out


def _from_u_basis(F, coeffs, rational=False):
    """Σ a_j (t-θ)^j from its (t-θ)-basis coefficients a_j: the Taylor
    shift by -θ."""
    return BiPoly(F, taylor_shift(F, coeffs, ((F.neg(1), 1),)), rational)


def _divrem_tm_theta(f, e):
    """f = g·(t-θ)^e + γ with deg_t γ < e: the (t-θ)-basis coefficients
    of f split at e, each part rebuilt by the shift by -θ."""
    coeffs = f.expand_tm_theta()
    return (_from_u_basis(f.field, coeffs[e:], f.rational),
            _from_u_basis(f.field, coeffs[:e], f.rational))


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=40)
def test_bipoly_divrem_tm_theta(q, data):
    F = field_for_q(q)
    rows = data.draw(
        st.lists(polys(q, 3), min_size=1, max_size=5)
    )
    f = BiPoly(F, rows)
    w = data.draw(st.integers(1, 3))
    g, gamma = _divrem_tm_theta(f, w)
    assert len(gamma.coeffs) - 1 < w
    back = g * _t_minus_theta_power(F, w) + gamma
    assert back == f


def test_bipoly_expand_tm_theta_roundtrip():
    F = field_for_q(3)
    th = Poly.gen(F)
    f = BiPoly(F, [th, Poly.one(F) + th, Poly.one(F)])
    coeffs = f.expand_tm_theta()
    acc = BiPoly.zero(F)
    for j, a in enumerate(coeffs):
        term = BiPoly(F, [a]) * _t_minus_theta_power(F, j)
        acc = acc + term
    assert acc == f


def test_bipoly_twist_leaves_t_alone():
    F = field_for_q(2)
    th = Poly.gen(F)
    f = BiPoly(F, [th, Poly.one(F)])  # θ + t
    g = f.twist(1)
    assert g.coeffs[0] == th * th
    assert g.coeffs[1].is_one()


# -- the (t-θ)-adic Taylor shift against synthetic division -------------------

def _coeff_ring(F, rational):
    if rational:
        return RatFrac.zero(F), RatFrac.from_poly(Poly.gen(F))
    return Poly.zero(F), Poly.gen(F)


def _expand_by_synthetic_division(f):
    """Reference (t-θ)-adic expansion: one synthetic division of f by
    (t-θ) per t-coefficient, each remainder one coefficient."""
    zero, th = _coeff_ring(f.field, f.rational)
    out = []
    cur = list(f.coeffs)
    for _ in range(len(f.coeffs)):
        quot = []
        acc = zero
        for c in reversed(cur):
            if quot or acc:
                acc = acc * th
            acc = acc + c
            quot.append(acc)
        out.append(quot.pop())
        quot.reverse()
        cur = quot
    return out


def _rebuild_by_horner(F, coeffs, rational):
    """Reference rebuild of Σ a_j (t-θ)^j: Horner's rule, each step
    acc·(t-θ) as a shift in t minus θ·acc."""
    zero, th = _coeff_ring(F, rational)
    acc = []
    for c in reversed(coeffs):
        nxt = [zero] + acc
        for i, a in enumerate(acc):
            nxt[i] = nxt[i] - th * a
        nxt[0] = nxt[0] + c
        acc = nxt
    return BiPoly(F, acc, rational)


def _random_row(rng, F, rational):
    def poly(deg):
        return Poly(F, [rng.randrange(F.q) for _ in range(deg + 1)])

    if rng.random() < 0.2:
        return RatFrac.zero(F) if rational else Poly.zero(F)
    if not rational:
        return poly(rng.randrange(4))
    # denominators with and without the factor θ
    den = poly(rng.randrange(3)).shift(rng.randrange(2))
    if den.is_zero():
        den = Poly.one(F)
    return RatFrac(poly(rng.randrange(3)), den)


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_taylor_shift_matches_synthetic_division(q, rational):
    """Lengths up to p^2 + p + 2, so the block split recurses at least
    twice.  The shift by θ - θ^q of the twisted (t-θ)-basis
    coefficients is the (t-θ)-adic expansion of the twist."""
    import random

    F = field_for_q(q)
    p = F.p
    rng = random.Random(1000 * q + rational)
    top = p * p + p + 2
    lengths = sorted({1, 2, p, p + 1, p * p, p * p + 1, top - 1, top}
                     | {rng.randrange(1, top + 1) for _ in range(4)})
    for n in lengths:
        rows = [_random_row(rng, F, rational) for _ in range(n - 1)]
        rows.append(RatFrac.one(F) if rational else Poly.one(F))
        f = BiPoly(F, rows, rational)
        expansion = f.expand_tm_theta()
        assert expansion == _expand_by_synthetic_division(f), n
        assert _from_u_basis(F, expansion, rational) == f, n
        basis = [_random_row(rng, F, rational) for _ in range(n)]
        assert (_from_u_basis(F, basis, rational)
                == _rebuild_by_horner(F, basis, rational)), n
        twisted = taylor_shift(
            F, [a.twist(1) for a in expansion], ((1, 1), (F.neg(1), q)))
        assert twisted == _expand_by_synthetic_division(f.twist(1)), n
        for e in {1, 2, p, n - 1, n, n + 1} - {0}:
            g, gamma = _divrem_tm_theta(f, e)
            assert g == _rebuild_by_horner(F, expansion[e:], rational), (n, e)
            assert gamma == _rebuild_by_horner(F, expansion[:e], rational), (
                n, e)


# -- the A[t] product against the schoolbook on plain ints --------------------

def _schoolbook_bimul(a, b):
    """Reference A[t] product on plain ints, reduced mod p at the end."""
    F = a.field
    width = a.theta_degree() + b.theta_degree() + 1
    out = [[0] * width for _ in range(len(a.coeffs) + len(b.coeffs) - 1)]
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            row = out[i + j]
            for k, xc in enumerate(x.coeffs):
                for l, yc in enumerate(y.coeffs):
                    row[k + l] += xc * yc
    return BiPoly(F, [Poly(F, [c % F.p for c in row]) for row in out])


def _filled(F, len_t, deg, c):
    return BiPoly(F, [Poly(F, [c] * (deg + 1)) for _ in range(len_t)])


@pytest.mark.parametrize("p,worst", [
    # (t-length, θ-degree) of the two all-(p-1) factors, sized so that
    # a slot needs two bytes or more
    (2, [(16, 15), (16, 15)]),
    (3, [(8, 7), (9, 12)]),
    (5, [(4, 3), (6, 5)]),
    (7, [(3, 2), (5, 4)]),
    (251, [(9, 8), (9, 9)]),
    # above a byte: the table-driven products, checked the same way
    (257, [(9, 8), (9, 9)]),
])
def test_packed_bipoly_mul_matches_schoolbook(p, worst):
    """The A[t] product on plain ints equals `BiPoly`'s product and, on
    a packed field, the product of the rows (`_RowTerms.mul`, one
    `fpx.PackedPoly.row_product`), all-(p-1) factors at the slot
    bound included."""
    import random

    F = field_for_q(p)
    rng = random.Random(p)

    def check(a, b):
        want = _schoolbook_bimul(a, b)
        assert a * b == want
        if F.packed:
            T = _RowTerms(F)
            assert T.bipoly(T.mul(T.lay(a), T.lay(b))) == want

    (la, da), (lb, db) = worst
    a, b = _filled(F, la, da, p - 1), _filled(F, lb, db, p - 1)
    check(a, b)
    check(a, a)
    for _ in range(25):
        a, b = (
            BiPoly(F, [
                Poly(F, [rng.randrange(p) for _ in range(rng.randrange(12))])
                for _ in range(rng.randrange(1, 10))
            ] + [Poly.one(F)])
            for _ in range(2)
        )
        check(a, b)
    # a univariate product above the packing threshold: one t-row each
    a = _filled(F, 1, 80, p - 1)
    b = BiPoly(F, [Poly(F, [rng.randrange(p) for _ in range(70)] + [1])])
    assert (a.coeffs[0] * b.coeffs[0],) == _schoolbook_bimul(a, b).coeffs
