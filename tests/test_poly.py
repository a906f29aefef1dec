import pytest
from hypothesis import given, settings, strategies as st

from ffmzv.fields import field_for_q
from ffmzv.poly import BiPoly, Poly, RatFrac, TwistError


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


@given(st.sampled_from([2, 3, 5]), st.data())
def test_divmod_invariant(q, data):
    a = data.draw(polys(q))
    b = data.draw(polys(q).filter(lambda p: not p.is_zero()))
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


@given(st.sampled_from([2, 3]), st.data())
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


def test_twist_on_generator():
    F = field_for_q(3)
    th = Poly.gen(F)
    assert th.twist(1) == th ** 3
    assert th.twist(2) == th ** 9


def test_negative_twist_rejected():
    F = field_for_q(3)
    with pytest.raises(TwistError):
        Poly.gen(F).twist(-1)


@given(st.sampled_from([2, 3, 9]), st.data())
def test_eval_scalar_is_homomorphism(q, data):
    F = field_for_q(q)
    a = data.draw(polys(q))
    b = data.draw(polys(q))
    x = data.draw(st.integers(0, q - 1))
    assert (a * b).eval_scalar(x) == F.mul(a.eval_scalar(x), b.eval_scalar(x))
    assert (a + b).eval_scalar(x) == F.add(a.eval_scalar(x), b.eval_scalar(x))


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
    F = field_for_q(3)
    th = Poly.gen(F)
    assert RatFrac.from_poly(th).is_integral()
    assert not RatFrac(Poly.one(F), th).is_integral()


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


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=40)
def test_bipoly_divrem_tm_theta(q, data):
    F = field_for_q(q)
    rows = data.draw(
        st.lists(polys(q, 3), min_size=1, max_size=5)
    )
    f = BiPoly(F, rows)
    w = data.draw(st.integers(1, 3))
    g, gamma = f.divrem_tm_theta(w)
    assert gamma.deg_t < w
    back = g * BiPoly.t_minus_theta(F) ** w + gamma
    assert back == f


def test_bipoly_expand_tm_theta_roundtrip():
    F = field_for_q(3)
    th = Poly.gen(F)
    f = BiPoly(F, [th, Poly.one(F) + th, Poly.one(F)])
    coeffs = f.expand_tm_theta()
    acc = BiPoly.zero(F)
    for j, a in enumerate(coeffs):
        term = BiPoly(F, [a]) * BiPoly.t_minus_theta(F) ** j
        acc = acc + term
    assert acc == f


def test_bipoly_twist_leaves_t_alone():
    F = field_for_q(2)
    th = Poly.gen(F)
    f = BiPoly(F, [th, Poly.one(F)])  # θ + t
    g = f.twist(1)
    assert g.coeffs[0] == th * th
    assert g.coeffs[1].is_one()
