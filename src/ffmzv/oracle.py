"""Independent numeric verification in F_q((1/θ)).

Everything here works with truncated Laurent series and never touches
the t-module machinery, so agreement between the two sides is a real
cross-check.  The central sum is

    ζ(s_1, ..., s_r) = Σ 1/(a_1^{s_1} ⋯ a_r^{s_r})

over monic a_i with deg a_1 > ... > deg a_r >= 0.  A term with degree
vector (d_1, ..., d_r) has valuation >= Σ s_i d_i, so truncating at N
known 1/θ-coefficients needs only the degree vectors with
Σ s_i d_i <= N — a finite, desk-scale enumeration (q^d monic
polynomials per degree d, computed by direct summation and cached).
The monic a of degree d are read off the base-q digits of
0 .. q^d - 1 (`carlitz.base_q_digits`), and each term is the reciprocal
of the exact a^s, to the window.

The series arithmetic is `laurent`'s, which runs on `Poly`, the plain
ring F_q[x].  Of the rest of the library the oracle takes only
`carlitz`'s closed forms (BC, Γ and the brackets, through
`CarlitzCache`) for the identity corpus: it never imports `motive`,
`tmodule` or `criterion`, so no code of the decision procedures lies
on both sides of the comparison.
"""
from __future__ import annotations

from dataclasses import dataclass

from .carlitz import base_q_digits, cache_for
from .fields import FieldSpec, composition
from .laurent import LaurentNumber, PrecisionError, rational_reconstruct
from .poly import Poly, RatFrac
from .families import eu_base, eu_canonical

DEFAULT_PREC = 12
DEFAULT_DEGREE_BUDGET = 15


class BudgetError(ValueError):
    """The requested precision needs monic enumeration beyond the budget."""


@dataclass
class SeriesContext:
    """Shared precision settings plus the power-sum cache."""

    field: FieldSpec
    prec: int = DEFAULT_PREC
    degree_budget: int = DEFAULT_DEGREE_BUDGET

    def __post_init__(self):
        if self.prec < 1:
            raise ValueError("precision must be at least 1")
        if self.degree_budget < 0:
            raise ValueError("degree budget must be at least 0")
        self._power_sums = {}

    def power_sum(self, s: int, d: int) -> LaurentNumber:
        """S_d(s) = Σ_{a monic, deg a = d} a^{-s}, to the context
        precision, by direct enumeration of the q^d monic polynomials:
        one reciprocal of the exact a^s each."""
        key = (s, d)
        hit = self._power_sums.get(key)
        if hit is not None:
            return hit
        F = self.field
        q = F.q
        if d > self.degree_budget:
            raise BudgetError(
                f"degree {d} exceeds the enumeration budget {self.degree_budget}"
            )
        window = self.prec + 2
        acc = LaurentNumber.zero(F)
        for code in range(q ** d):
            digits = base_q_digits(code, q)
            a = Poly(F, digits + [0] * (d - len(digits)) + [1])
            acc = acc + LaurentNumber.from_poly(a ** s).inv(window)
        self._power_sums[key] = acc
        return acc


def zeta_laurent(ctx: SeriesContext, s) -> LaurentNumber:
    """Truncated multizeta value, guaranteed to ctx.prec coefficients
    below the leading θ^0 term."""
    s = composition(s)
    F = ctx.field
    N = ctx.prec
    r = len(s)
    # minimal Σ s_i d_i over strictly decreasing tails below position j
    min_tail = [0] * (r + 1)
    for j in range(r - 1, -1, -1):
        # positions j..r-1 need degrees >= r-1-j, ..., 1, 0
        min_tail[j] = sum(s[i] * (r - 1 - i) for i in range(j, r))

    # f[j][d] = Σ over admissible (d_j = d > d_{j+1} > ...) of the
    # product of power sums; built from the last entry backwards
    prev = None  # f[j+1] as {d: LaurentNumber}
    for j in range(r - 1, -1, -1):
        here = {}
        tail_floor = min_tail[j + 1] if j + 1 <= r else 0
        d = r - 1 - j
        while s[j] * d + tail_floor <= N:
            term = ctx.power_sum(s[j], d)
            if prev is not None:
                suffix = None
                for d2, v in prev.items():
                    if d2 < d:
                        suffix = v if suffix is None else suffix + v
                if suffix is None:
                    d += 1
                    continue
                term = term * suffix
            here[d] = term
            d += 1
        prev = here
    total = LaurentNumber.zero(F, unknown=-(N + 1))
    for v in prev.values():
        total = total + v
    return total.truncate(-(N + 1))


def pi_power(ctx: SeriesContext, w: int) -> LaurentNumber:
    """The w-th power of the fundamental period, for (q-1) | w:
    ((−θ)^q)^{w/(q-1)} · ∏_{i>=1} (1 − θ^{1-q^i})^{-w}; the (q-1)-st
    root ambiguity cancels because (q-1) | w."""
    F = ctx.field
    q = F.q
    if w % (q - 1) != 0:
        raise ValueError(f"period power {w} not divisible by q-1 = {q - 1}")
    N = ctx.prec
    shift = q * w // (q - 1)
    sign = F.pow(F.neg(1), shift)
    out = LaurentNumber.theta_power(F, shift).scale(sign)
    i = 1
    while q ** i - 1 <= N:
        gap = q ** i - 1
        factor = LaurentNumber(F, 0, [1] + [0] * (gap - 1) + [F.neg(1)])
        out = out * factor.inv(N + 2) ** w
        i += 1
    return out.truncate(out.top - (N + 1))


def carlitz_formula_check(ctx: SeriesContext, n: int) -> bool:
    """ζ(n) = (BC(n)/Γ_{n+1})·(period)^n, compared to precision."""
    F = ctx.field
    if n % (F.q - 1) != 0:
        raise ValueError("formula needs (q-1) | n")
    cache = cache_for(F)
    factor = cache.bernoulli_carlitz(n) * RatFrac(
        Poly.one(F), cache.gamma(n + 1)
    )
    lhs = zeta_laurent(ctx, (n,))
    rhs = LaurentNumber.from_ratfrac(factor, ctx.prec + n + 2) * pi_power(ctx, n)
    return lhs.agrees(rhs)


def _ratio_identity(ctx, s, ratio: RatFrac, w: int) -> bool:
    """ζ(s) = ratio·ζ(w), compared to precision."""
    lhs = zeta_laurent(ctx, s)
    rhs = LaurentNumber.from_ratfrac(ratio, ctx.prec + 4) * zeta_laurent(
        ctx, (w,)
    )
    return lhs.agrees(rhs)


def identity_check_thakur(ctx: SeriesContext) -> bool:
    """ζ(q-1, (q-1)^2)·[1]^{q-1} = ζ(q^2-q)."""
    F = ctx.field
    q = F.q
    cache = cache_for(F)
    ratio = RatFrac(Poly.one(F), cache.bracket(1) ** (q - 1))
    return _ratio_identity(ctx, (q - 1, (q - 1) ** 2), ratio, q * q - q)


def identity_check_chen(ctx: SeriesContext, r: int, ell: int) -> bool:
    """ζ(Eu_r(ℓ)) = ζ(q^ℓ-1)·ζ(Eu_{r-1})^{q^ℓ} − ζ(Eu_{r-1}(ℓ+1))."""
    if r < 2 or ell < 1:
        raise ValueError("need r >= 2 and ℓ >= 1")
    q = ctx.field.q
    lhs = zeta_laurent(ctx, eu_canonical(q, r, ell))
    rhs = zeta_laurent(ctx, (q ** ell - 1,)) * (
        zeta_laurent(ctx, eu_base(q, r - 1)) ** (q ** ell)
    ) - zeta_laurent(ctx, eu_canonical(q, r - 1, ell + 1))
    return lhs.agrees(rhs)


def identity_check_q2_13(ctx: SeriesContext) -> bool:
    """q=2: ζ(1,3) = (1/([1][2]) + 1/[1])·ζ(4)."""
    F = ctx.field
    if F.q != 2:
        raise ValueError("q=2 identity")
    cache = cache_for(F)
    b1, b2 = cache.bracket(1), cache.bracket(2)
    ratio = RatFrac(Poly.one(F), b1 * b2) + RatFrac(Poly.one(F), b1)
    return _ratio_identity(ctx, (1, 3), ratio, 4)


def identity_check_q2_35(ctx: SeriesContext) -> bool:
    """q=2: ζ(3,5) = ([2]^2 + 1)/([1]^4·[2])·ζ(8)."""
    F = ctx.field
    if F.q != 2:
        raise ValueError("q=2 identity")
    cache = cache_for(F)
    b1, b2 = cache.bracket(1), cache.bracket(2)
    ratio = RatFrac(b2 * b2 + Poly.one(F), b1 ** 4 * b2)
    return _ratio_identity(ctx, (3, 5), ratio, 8)


def run_identity_corpus(ctx: SeriesContext) -> dict:
    """The named identities applicable at ctx's q; name -> bool."""
    q = ctx.field.q
    out = {}
    if q == 2:
        out["carlitz(n=1)"] = carlitz_formula_check(ctx, 1)
        out["q2:zeta(1,3)"] = identity_check_q2_13(ctx)
        out["q2:zeta(3,5)"] = identity_check_q2_35(ctx)
    else:
        out[f"carlitz(n={q - 1})"] = carlitz_formula_check(ctx, q - 1)
        out[f"carlitz(n={2 * (q - 1)})"] = carlitz_formula_check(
            ctx, 2 * (q - 1)
        )
    out["thakur"] = identity_check_thakur(ctx)
    out["chen(r=2,ℓ=1)"] = identity_check_chen(ctx, 2, 1)
    return out


def verify_verdict(ctx: SeriesContext, s, verdict) -> str:
    """Cross-check a torsion verdict numerically.

    The claim "Eulerian" for weight w divisible by q-1 is equivalent to
    ζ(s)/ζ(w) ∈ F_q(θ) (the depth-one value of the same weight is a
    rational multiple of the w-th period power by the classical
    formula, so this dodges the large valuation shift of dividing by
    the period directly).  The ratio is reconstructed at two adjacent
    degree bounds; a stable nonzero reconstruction contradicts a
    non-Eulerian verdict, a stable failure contradicts nothing (the
    true denominator may simply exceed the bound), so:

      Eulerian  + stable success -> consistent
      non-Eul.  + failure        -> consistent
      non-Eul.  + stable success -> inconsistent (bug signal)
      Eulerian  + failure        -> inconclusive (precision-limited)
      anything unstable / (q-1) ∤ w -> inconclusive

    The denominator bound is chosen to leave a few spare digits beyond
    the fit's degrees of freedom (any window admits a Padé fit with no
    spare digits, so an un-margined "success" would mean nothing), and
    a success counts as stable only when the same reduced fraction
    comes back at two adjacent bounds.
    """
    s = tuple(s)
    q = ctx.field.q
    w = sum(s)
    eulerian = verdict.eulerian if hasattr(verdict, "eulerian") else bool(verdict)
    if w % (q - 1) != 0:
        return "inconclusive"
    ratio = zeta_laurent(ctx, s) / zeta_laurent(ctx, (w,))
    n_known = len(ratio.coeffs)
    if n_known == 0:
        return "inconclusive"
    v = ratio.top
    margin = 4  # spare digits beyond the Padé degrees of freedom
    b1 = (n_known - 2 - v - margin) // 2
    if b1 < 2:
        return "inconclusive"
    try:
        r1 = rational_reconstruct(ratio, b1)
        r2 = rational_reconstruct(ratio, b1 - 1) if r1 is not None else None
    except PrecisionError:
        return "inconclusive"
    if r1 is None:
        # nothing with denominator degree <= b1 fits the window
        return "inconclusive" if eulerian else "consistent"
    if r2 == r1:
        return "consistent" if eulerian else "inconsistent"
    return "inconclusive"
