import pytest
from hypothesis import given, settings, strategies as st

from ffmzv.fields import field_for_q
from ffmzv.laurent import LaurentNumber, PrecisionError, rational_reconstruct
from ffmzv.poly import Poly, RatFrac


def polys(q, max_deg=5):
    F = field_for_q(q)
    return st.lists(
        st.integers(0, q - 1), min_size=0, max_size=max_deg + 1
    ).map(lambda cs: Poly(F, cs))


def test_from_poly_and_valuation():
    F = field_for_q(3)
    th = Poly.gen(F)
    x = LaurentNumber.from_poly(th ** 3 + th)
    assert x.top == 3 and x.unknown is None
    assert x.coeffs == (1, 0, 1)
    digits = [x.coeff_unchecked(e) for e in (4, 3, 2, 1, 0, -1)]
    assert digits == [0, 1, 0, 1, 0, 0]


@pytest.mark.parametrize("c", [-1, 9])
def test_scale_needs_an_element_code(c):
    """At q=9 an int outside range(9) is refused, not read mod 9."""
    F = field_for_q(9)
    with pytest.raises(ValueError, match="range"):
        LaurentNumber.one(F).scale(c)
    assert LaurentNumber.one(F).scale(F.neg(1)) == -LaurentNumber.one(F)


def test_inv_times_self_is_one():
    F = field_for_q(3)
    th = Poly.gen(F)
    x = LaurentNumber.from_poly(th ** 2 + Poly.one(F))
    prod = x * x.inv(10)
    assert prod.top == 0 and prod.unknown <= -8
    assert prod.coeff_unchecked(0) == 1
    for e in range(-1, -8, -1):
        assert prod.coeff_unchecked(e) == 0


@pytest.mark.parametrize("prec", [0, -2])
def test_nonpositive_precision_is_refused(prec):
    """inv and from_ratfrac name the precision, not the window."""
    F = field_for_q(3)
    th = Poly.gen(F)
    with pytest.raises(ValueError, match="precision"):
        LaurentNumber.from_poly(th + Poly.one(F)).inv(prec)
    with pytest.raises(ValueError, match="precision"):
        LaurentNumber.from_ratfrac(RatFrac(Poly.one(F), th), prec)


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=40)
def test_mul_matches_poly_mul(q, data):
    a = data.draw(polys(q))
    b = data.draw(polys(q))
    if a.is_zero() or b.is_zero():
        return
    lhs = LaurentNumber.from_poly(a) * LaurentNumber.from_poly(b)
    assert lhs == LaurentNumber.from_poly(a * b)


def test_truncation_tracks_unknown_tail():
    F = field_for_q(3)
    x = LaurentNumber.from_poly(Poly.gen(F)).truncate(-3)
    assert x.unknown == -3
    assert x.top == 1 and x.coeffs == (1, 0, 0, 0)
    assert x.coeff_unchecked(-2) == 0


def test_agrees_respects_windows():
    F = field_for_q(3)
    th = Poly.gen(F)
    a = LaurentNumber.from_poly(th).truncate(-2)
    b = LaurentNumber.from_poly(th)
    assert a.agrees(b)
    c = b + LaurentNumber.theta_power(F, -5)
    assert a.agrees(c)  # differs only below a's window
    d = b + LaurentNumber.theta_power(F, -1)
    assert not a.agrees(d)


def test_from_ratfrac_matches_division():
    F = field_for_q(3)
    th = Poly.gen(F)
    r = RatFrac(th + Poly.one(F), th ** 2 + Poly.one(F))
    x = LaurentNumber.from_ratfrac(r, 12)
    back = x * LaurentNumber.from_poly(r.den)
    assert back.agrees(LaurentNumber.from_poly(r.num))


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=30)
def test_rational_reconstruct_roundtrip(q, data):
    F = field_for_q(q)
    num = data.draw(polys(q, 3))
    den = data.draw(polys(q, 3).filter(lambda p: not p.is_zero()))
    r = RatFrac(num, den)
    if r.is_zero():
        return
    x = LaurentNumber.from_ratfrac(r, 25)
    got = rational_reconstruct(x, 4)
    assert got == r


def test_rational_reconstruct_needs_precision():
    F = field_for_q(3)
    th = Poly.gen(F)
    x = LaurentNumber.from_ratfrac(RatFrac(Poly.one(F), th + Poly.one(F)), 3)
    with pytest.raises(PrecisionError):
        rational_reconstruct(x, 5)


def test_rational_reconstruct_valuation_floor():
    # a series of valuation -9 cannot be p/q with deg q <= 4
    F = field_for_q(3)
    x = LaurentNumber.theta_power(F, -9).truncate(-40)
    assert rational_reconstruct(x, 4) is None


def test_rational_reconstruct_uses_positive_valuation():
    # valuation +v adds v usable digits to the numerator side
    F = field_for_q(3)
    th = Poly.gen(F)
    r = RatFrac(th ** 6, th ** 2 + Poly.one(F))
    x = LaurentNumber.from_ratfrac(r, 14)
    assert rational_reconstruct(x, 2) == r


def test_pow_and_shift():
    F = field_for_q(3)
    th = Poly.gen(F)
    x = LaurentNumber.from_poly(th + Poly.one(F))
    assert (x ** 3) == LaurentNumber.from_poly((th + Poly.one(F)) ** 3)
    assert x * LaurentNumber.theta_power(F, 2) == LaurentNumber.from_poly(
        th ** 2 * (th + Poly.one(F))
    )
