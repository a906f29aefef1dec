import random

import pytest
from hypothesis import given, settings, strategies as st

from ffmzv import fpx
from ffmzv.fields import field_for_q
from ffmzv.motive import Motive
from ffmzv.poly import Poly
from ffmzv.tmodule import (
    ProbeDomain,
    TModule,
    TwistedPoly,
    carlitz_tensor_module,
)


def tpolys(q, max_tau=2, max_deg=3):
    F = field_for_q(q)
    coeff = st.lists(st.integers(0, q - 1), min_size=0, max_size=max_deg + 1)
    return st.lists(
        st.tuples(st.integers(0, max_tau), coeff), min_size=0, max_size=3
    ).map(
        lambda terms: TwistedPoly(F, [(n, Poly(F, cs)) for n, cs in terms])
    )


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=50)
def test_ore_multiplication_associative(q, data):
    a = data.draw(tpolys(q))
    b = data.draw(tpolys(q))
    c = data.draw(tpolys(q))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_ore_twist_rule():
    F = field_for_q(3)
    th = Poly.gen(F)
    tau = TwistedPoly(F, [(1, Poly.one(F))])
    coeff = TwistedPoly(F, [(0, th)])
    # τ·θ = θ³·τ
    assert tau * coeff == TwistedPoly(F, [(1, th ** 3)])


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=30)
def test_twisted_apply_is_linear_over_fq(q, data):
    F = field_for_q(q)
    f = data.draw(tpolys(q))
    x = Poly(F, data.draw(st.lists(st.integers(0, q - 1), max_size=4)))
    y = Poly(F, data.draw(st.lists(st.integers(0, q - 1), max_size=4)))
    assert f.apply(x + y) == f.apply(x) + f.apply(y)


@pytest.mark.parametrize("q,s", [(3, (2, 4)), (2, (1, 2)), (3, (4, 2))])
def test_rho_is_ring_homomorphism(q, s):
    """ρ_{ab} = ρ_a ∘ ρ_b on a point."""
    F = field_for_q(q)
    motive = Motive(F, s)
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    a = Poly(F, [1, 1], var="t")
    b = Poly(F, [0, 2 % q, 1], var="t")
    lhs = tm.apply_poly(v, a * b)
    rhs = tm.apply_poly(tm.apply_poly(v, b), a)
    assert lhs == rhs


@pytest.mark.parametrize("q,s", [(3, (2, 4)), (2, (1, 2, 4)), (3, (2, 2, 2))])
def test_nilpotency(q, s):
    """ρ_t|_{τ=0} - θI is nilpotent (defining property of a t-module)."""
    F = field_for_q(q)
    tm = TModule.from_motive(Motive(F, s))
    assert tm.nilpotent_check()
    assert tm.nilpotency_index() == max(sum(s[i:]) for i in range(len(s)))


def test_frobdiff_factor_matches_expanded_polynomial():
    F = field_for_q(3)
    motive = Motive(F, (2, 4))
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    # (t³ - t)¹ applied two ways
    direct = tm.apply_frobdiff_factor(v, 1, 0)
    poly = Poly(F, [0, 2, 0, 1], var="t")
    assert direct == tm.apply_poly(v, poly)


def test_apply_annihilator_early_exit_order_independent():
    F = field_for_q(3)
    motive = Motive(F, (2, 4))
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    factors = [("frobdiff", 1, 1), ("poly", Poly(F, [0, 2, 0, 1], var="t"))]
    a = tm.apply_annihilator(v, factors)
    b = tm.apply_annihilator(v, list(reversed(factors)))
    assert tm.is_zero_point(a) == tm.is_zero_point(b)


# -- the modular probe -------------------------------------------------------

def test_probe_requires_prime_field():
    with pytest.raises(ValueError):
        ProbeDomain(field_for_q(4))


def test_probe_requires_byte_digits():
    """A digit of F_257 does not fit a byte: no probe, exact path only."""
    with pytest.raises(ValueError):
        ProbeDomain(field_for_q(257))


def test_probe_is_ring_homomorphism():
    F = field_for_q(3)
    dom = ProbeDomain(F, deg=7, seed=1)
    th = Poly.gen(F)
    a = th ** 2 + Poly.one(F)
    b = th ** 3 + th.scale(2)
    assert dom.convert(a * b) == dom.mul(dom.convert(a), dom.convert(b))
    assert dom.convert(a + b) == dom.add(dom.convert(a), dom.convert(b))


def test_probe_commutes_with_frobenius():
    F = field_for_q(3)
    dom = ProbeDomain(F, deg=7, seed=0)
    th = Poly.gen(F)
    a = th ** 2 + th + Poly.one(F)
    assert dom.convert(a.twist(1)) == dom.frob(dom.convert(a), 1)


def test_probe_agrees_with_exact_on_torsion():
    F = field_for_q(3)
    motive = Motive(F, (2, 4))
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    factors = [("frobdiff", 1, 1), ("poly", Poly(F, [0, 2, 0, 1], var="t"))]
    dom = ProbeDomain(F, deg=11, seed=0)
    out = tm.apply_annihilator(v, factors, dom)
    assert tm.is_zero_point(out, dom)


def test_probe_detects_nontorsion():
    F = field_for_q(3)
    motive = Motive(F, (4, 2))
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    factors = [("frobdiff", 1, 1), ("poly", Poly(F, [0, 2, 0, 1], var="t"))]
    dom = ProbeDomain(F, deg=21, seed=0)
    out = tm.apply_annihilator(v, factors, dom)
    assert not tm.is_zero_point(out, dom)


def test_probe_tables_built_once_per_key():
    F = field_for_q(3)
    a, b = ProbeDomain(F, 21, 0), ProbeDomain(F, 21, 0)
    assert a.modulus is b.modulus
    assert a.ring is b.ring


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("deg", [1, 2, 7, 21])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_probe_arithmetic_matches_schoolbook(p, deg, seed):
    """Every probe operation against schoolbook F_p[x] arithmetic mod
    the probe modulus, on random elements and on the all-(p-1) element,
    whose products fill the packed slots the most."""
    F = field_for_q(p)
    dom = ProbeDomain(F, deg, seed)
    m = list(dom.modulus)

    def ref_mul(a, b):
        return fpx.mod(fpx.mul(a, b, p), m, p)

    rng = random.Random(1000 * p + deg)
    elements = [[p - 1] * deg]
    elements += [[rng.randrange(p) for _ in range(deg)] for _ in range(3)]
    for a in elements:
        x = bytes(a)
        assert list(dom.neg(x)) == [(-c) % p for c in a]
        for b in elements:
            y = bytes(b)
            assert list(dom.mul(x, y)) == ref_mul(a, b)
            assert list(dom.add(x, y)) == [(c + d) % p for c, d in zip(a, b)]
        power = a
        for n in range(4):
            assert list(dom.frob(x, n)) == power, n
            # the next p-th power, by repeated multiplication
            acc = power
            for _ in range(p - 1):
                acc = ref_mul(acc, power)
            power = acc
    for c in range(p):
        assert list(dom.scalar(c)) == [c] + [0] * (deg - 1)
    coeffs = [rng.randrange(p) for _ in range(3 * deg + 2)] + [1]
    horner = [0] * deg
    for c in reversed(coeffs):
        horner = ref_mul(horner, [0, 1])
        horner = fpx.mod([(horner[0] + c) % p] + horner[1:], m, p)
    assert list(dom.convert(Poly(F, coeffs))) == horner


@pytest.mark.parametrize("p,seed,modulus", [
    (2, 0, (1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1)),
    (2, 1, (1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1)),
    (3, 0, (2, 0, 0, 1, 0, 1, 2, 0, 1, 2, 1, 2, 2, 0, 0, 1, 1, 1, 1, 0, 1, 1)),
    (3, 1, (2, 0, 1, 0, 2, 0, 1, 1, 0, 1, 2, 2, 0, 0, 2, 2, 1, 0, 2, 1, 2, 1)),
])
def test_probe_modulus_is_pinned(p, seed, modulus):
    """The seeded search draws the same modulus as before the tables
    were memoized, so a probe seed names the same field."""
    assert ProbeDomain(field_for_q(p), 21, seed).modulus == modulus


def test_carlitz_module_shape():
    F = field_for_q(3)
    tm = carlitz_tensor_module(F, 3)
    th = Poly.gen(F)
    assert tm.entry(0, 0).terms == {0: th}
    assert tm.entry(0, 1).terms == {0: Poly.one(F)}
    assert tm.entry(2, 0).terms == {1: Poly.one(F)}
    assert tm.entry(2, 1).is_zero()


def test_render_matches_golden_layout():
    F = field_for_q(3)
    tm = TModule.from_motive(Motive(F, (2, 4)))
    text = tm.render()
    lines = text.splitlines()
    assert len(lines) == 10
    assert lines[5].split() == ["τ", "0", "0", "0", "0", "θ", "2τ", "0", "0", "0"]
