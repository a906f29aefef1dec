import hashlib
import json

import pytest

from ffmzv.carlitz import cache_for_q
from ffmzv.cli import enumerate_tuples
from ffmzv.criterion import is_eulerian
from ffmzv.fields import field_for_q
from ffmzv.laurent import LaurentNumber
from ffmzv.oracle import (
    BudgetError,
    SeriesContext,
    carlitz_formula_check,
    identity_check_chen,
    identity_check_q2_13,
    identity_check_q2_35,
    identity_check_thakur,
    pi_power,
    run_identity_corpus,
    verify_verdict,
    zeta_laurent,
)
from ffmzv.poly import Poly, RatFrac


def ctx_for(q, prec=12, budget=15):
    return SeriesContext(field_for_q(q), prec=prec, degree_budget=budget)


def test_power_sum_degree_zero():
    ctx = ctx_for(3)
    # only the monic constant 1
    assert ctx.power_sum(2, 0).agrees(LaurentNumber.one(field_for_q(3)))


@pytest.mark.parametrize("q,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_power_sum_s1_is_inverse_l(q, d):
    """Σ_{deg a = d, monic} 1/a = 1/L_d (classical)."""
    ctx = ctx_for(q)
    c = cache_for_q(q)
    expected = LaurentNumber.from_ratfrac(
        RatFrac(Poly.one(ctx.field), c.big_l(d)), ctx.prec + 2
    )
    assert ctx.power_sum(1, d).agrees(expected)


def test_power_sum_budget():
    ctx = ctx_for(2, prec=10, budget=3)
    with pytest.raises(BudgetError):
        ctx.power_sum(1, 4)


def test_zeta_depth_one_leading_term():
    # ζ(s) = 1 + O(θ^{-s}) (the a=1 term dominates)
    ctx = ctx_for(3, prec=10)
    z = zeta_laurent(ctx, (2,))
    assert z.top == 0 and z.unknown < -1
    assert z.coeff_unchecked(0) == 1
    assert z.coeff_unchecked(-1) == 0


def test_zeta_rejects_bad_composition():
    ctx = ctx_for(3)
    with pytest.raises(ValueError):
        zeta_laurent(ctx, ())
    with pytest.raises(ValueError):
        zeta_laurent(ctx, (2, 0))


@pytest.mark.parametrize("q,s", [(3, (2,)), (3, (2, 4)), (2, (1, 2))])
def test_tail_bound_soundness(q, s):
    """Computing with a larger window and truncating back changes
    nothing: the degree cutoff never drops a contributing term."""
    base = ctx_for(q, prec=8)
    wide = ctx_for(q, prec=11)
    a = zeta_laurent(base, s)
    b = zeta_laurent(wide, s).truncate(-(base.prec + 1))
    assert a == b


def test_tail_bound_soundness_random():
    import random
    rng = random.Random(3)
    for _ in range(20):
        q = rng.choice([2, 3])
        depth = rng.randint(1, 3)
        s = tuple(rng.randint(1, 4) for _ in range(depth))
        base = ctx_for(q, prec=6)
        wide = ctx_for(q, prec=8)
        a = zeta_laurent(base, s)
        b = zeta_laurent(wide, s).truncate(-(base.prec + 1))
        assert a == b, (q, s)


@pytest.mark.parametrize("q", [2, 3])
def test_pi_power_law(q):
    """(period)^{w1} · (period)^{w2} = (period)^{w1+w2}."""
    ctx = ctx_for(q, prec=10)
    w1, w2 = q - 1, 2 * (q - 1)
    prod = pi_power(ctx, w1) * pi_power(ctx, w2)
    assert prod.agrees(pi_power(ctx, w1 + w2))


@pytest.mark.parametrize("q,s", [(3, (2,)), (3, (2, 2)), (2, (1, 2))])
def test_zeta_frobenius_power(q, s):
    """ζ(p·s) = ζ(s)^p in characteristic p."""
    ctx = ctx_for(q, prec=9)
    p = 2 if q == 2 else 3
    lhs = zeta_laurent(ctx, tuple(p * x for x in s))
    rhs = zeta_laurent(ctx, s) ** p
    assert lhs.agrees(rhs)


# -- identity corpus ---------------------------------------------------------

@pytest.mark.parametrize(
    "q,n", [(3, n) for n in range(2, 27, 2)] + [(2, n) for n in range(1, 9)]
)
def test_carlitz_formula(q, n):
    """ζ(n) against BC(n) from the numerator recursion, by brute-force
    power sums: a check that shares no code with the recursion."""
    assert carlitz_formula_check(ctx_for(q), n)


@pytest.mark.parametrize("q", [2, 3])
def test_thakur_identity(q):
    assert identity_check_thakur(ctx_for(q))


@pytest.mark.parametrize("q,r,ell", [(3, 2, 1), (2, 2, 1), (2, 3, 1)])
def test_chen_identity(q, r, ell):
    assert identity_check_chen(ctx_for(q), r, ell)


def test_q2_closed_forms():
    ctx = ctx_for(2)
    assert identity_check_q2_13(ctx)
    assert identity_check_q2_35(ctx)


@pytest.mark.parametrize("q", [2, 3])
def test_identity_corpus_all_pass(q):
    results = run_identity_corpus(ctx_for(q))
    assert results and all(results.values()), results


# -- verdict cross-checks ----------------------------------------------------

def test_verify_non_eulerian_consistent():
    F = field_for_q(3)
    ctx = ctx_for(3, prec=14)
    for s in [(4, 2), (2, 2)]:
        verdict = is_eulerian(F, s)
        assert not verdict.eulerian
        assert verify_verdict(ctx, s, verdict) == "consistent"


def test_verify_eulerian_consistent_at_high_precision():
    F = field_for_q(3)
    ctx = ctx_for(3, prec=22, budget=22)
    verdict = is_eulerian(F, (2, 4))
    assert verify_verdict(ctx, (2, 4), verdict) == "consistent"


def test_verify_weight_not_divisible_is_inconclusive():
    F = field_for_q(3)
    ctx = ctx_for(3)
    verdict = is_eulerian(F, (1, 2))
    assert verify_verdict(ctx, (1, 2), verdict) == "inconclusive"


def test_verify_never_reports_inconsistent_on_certified_data():
    F = field_for_q(3)
    ctx = ctx_for(3, prec=16, budget=16)
    for s in [(2, 4), (4, 2), (2, 2), (2, 6), (6, 2)]:
        verdict = is_eulerian(F, s)
        assert verify_verdict(ctx, s, verdict) != "inconsistent", s


@pytest.mark.parametrize("prec", [0, -3])
def test_series_context_rejects_nonpositive_precision(prec):
    with pytest.raises(ValueError):
        SeriesContext(field_for_q(3), prec=prec)


def test_series_context_rejects_a_negative_degree_budget():
    """Refused at construction, not at the first power sum; a budget
    of 0 still allows the degree-0 sums."""
    with pytest.raises(ValueError, match="budget"):
        SeriesContext(field_for_q(3), degree_budget=-1)
    ctx = SeriesContext(field_for_q(3), degree_budget=0)
    assert ctx.power_sum(2, 0).agrees(LaurentNumber.one(ctx.field))


# -- pinned windows --------------------------------------------------------

def _oracle_digest(q, wmax, prec):
    """sha256 of the `zeta_laurent` window (top, coeffs, unknown) and
    the `verify_verdict` outcome of every composition with entries
    divisible by q-1, weight <= wmax and depth <= 3, of `pi_power` at
    each of their weights, and of `run_identity_corpus`, all at
    precision `prec` with degree budget `prec`."""
    F = field_for_q(q)
    ctx = SeriesContext(F, prec=prec, degree_budget=prec)
    out = []
    for s in enumerate_tuples(q, wmax, 3, False):
        z = zeta_laurent(ctx, s)
        outcome = verify_verdict(ctx, s, is_eulerian(F, s))
        out.append([list(s), z.top, list(z.coeffs), z.unknown, outcome])
    for w in range(q - 1, wmax + 1, q - 1):
        pi = pi_power(ctx, w)
        out.append([w, pi.top, list(pi.coeffs), pi.unknown])
    out.append(sorted(run_identity_corpus(ctx).items()))
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@pytest.mark.parametrize("q,wmax,prec,digest", [
    (3, 26, 16, "ad1712b8a6057a39344498db0427981b1d6c1e267937704ccaa09742cb67bc28"),
    (2, 8, 14, "9e7a9c86c744f14d4ed70dc1d65835d7af5803c83b2695095f3357538d07e98e"),
])
def test_oracle_is_pinned(q, wmax, prec, digest):
    """The oracle's windows and outcomes on the two acceptance sweeps,
    recorded with the schoolbook window loops that preceded the `Poly`
    arithmetic."""
    assert _oracle_digest(q, wmax, prec) == digest
