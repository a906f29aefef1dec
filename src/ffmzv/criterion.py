"""Decision procedures for special-value relations.

Given a composition s = (s_1, ..., s_r), the associated t-module carries
two distinguished integral points; the value attached to s satisfies a
rational relation with the period exactly when the point v is
F_q[t]-torsion.  When every s_i is divisible by q-1 an explicit
annihilator candidate a(t) exists, built from the decompositions

    w_i = p^ℓ · n · (q^h - 1),   p ∤ n,  h maximal,

of the suffix weights w_i = s_{r-i} + ... + s_r together with a
depth-one factor (Γ_{s_r+1}/Γ_{s_r})·denBC(s_r) with θ replaced by t,
and the value is Eulerian if and only if ρ_a(v) = 0.  Each w_i gives
the factor (t^{q^h} - t)^{p^ℓ}, which in characteristic p is the
two-term t^{q^h·p^ℓ} - t^{p^ℓ}; a is kept as the tuple of its factors,
each a plain polynomial in t (`AnnihilatorData`).  The polylogarithm
variant swaps the attached polynomials for the evaluation point, adds
the factor for w_0 = s_r and drops the depth-one factor; its factors
are applied smallest degree first.

The multizeta factors come as a tower: the depth-one factor, then the
factors of w_1, ..., w_{r-1}, so the first k of them are the
annihilator of the depth-k suffix as it stands, not divided by p.

`is_eulerian` decides the proper suffix first.  For a tuple s of depth
r >= 3 (after the division by p) it decides s' = (s_2, ..., s_r),
divided by p as far as it goes, the same way, down to depth 2; a
suffix of depth one that passed the q-1 precheck is Eulerian
(Carlitz).  When s' is non-Eulerian, so is s, and s's own motive is
never built.  Why this is the verdict ρ_a(v) = 0 would give:

* block ℓ's τ-terms land only in blocks 1..ℓ, so the projection π onto
  the last r-1 blocks is a map of t-modules onto the t-module of the
  suffix (s_2, ..., s_r) as it stands, and it sends v to its point v'
  (both facts are tests in `tests/test_motive.py`);
* a tuple and its quotient by p are Eulerian together (ζ(p·s) = ζ(s)^p
  and π̃^{p·w} = (π̃^w)^p), so a non-Eulerian s', divided by p or not,
  makes v' non-torsion;
* so ρ_a(v') = π(ρ_a(v)) is nonzero for every nonzero a, and so is
  ρ_a(v): s is non-Eulerian, as the paper's theorem says of a tuple
  with a non-Eulerian suffix.

The verdicts of the suffixes are kept in one memo per field
(`_SUFFIX_VERDICTS`, one bool per reduced tuple): every decision of
depth >= 2 writes to it, and only the suffix lookups read it, so a
call always decides its own tuple unless its suffix prunes it.

When the total weight is NOT divisible by q-1 the question becomes
whether some nonzero pair (a, b) satisfies ρ_a(v) + ρ_b(u) = 0; that is
a semi-decision, searched by F_q-linear algebra up to a degree bound.
The torsion-witness search (ρ_a(v) = 0 alone) is the same search with
one point; both go through `_witness_kernel`.

The torsion test `_annihilates` and the witness search run "probe,
then confirm exactly" over one list of coefficient domains
(`_ladder`): on a `packed` field (prime q < 256) and for an integral
motive, multizeta or polylogarithm at a point in F_q[θ]^r, first a
fast modular image of A, a ring homomorphism, which cannot turn a
zero into a nonzero, then A = F_p[θ] itself, on packed digits in the
one packed ring per prime (`poly.packed_ring`).  Extension fields and
primes above 255 (whose digits do not fit a byte) walk the exact
`Poly` domain alone, and a polylogarithm point with a coordinate
outside F_q[θ], whose motive is rational, the exact `RatFrac` one.
In every domain the work is the same: `_annihilates` applies ρ_a to
v, and the witness search builds its linear system from the iterates
ρ_{t^j} of the points, both through `TModule`.  The iterates stay in
the domain's plan of ρ_t and come out as the columns of the system
(`TModule.iterates`), which `linalg.nullspace` eliminates on as they
come: on packed digits a column is one packed integer.  The witness
search's probe has at least `WITNESS_ROWS_PER_COLUMN` rows per column,
so that its kernel is not nonempty by counting alone.  A nonzero
residual certifies non-torsion and an empty kernel rules out every
witness in any domain, while a zero residual counts only in the exact
domain and a witness only once an independent reduction (`vanishes`)
confirms it.
"""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .carlitz import base_q_digits, cache_for
from .fields import FieldSpec, composition, field_for_q
from .linalg import nullspace
from .motive import Motive
from .poly import BiPoly, Poly, RatFrac, packed_ring
from .tmodule import ProbeDomain, TModule

PROBE_DEGREE = 21
# the witness search's probe has at least this many rows per column
WITNESS_ROWS_PER_COLUMN = 2


@dataclass(frozen=True)
class WeightDecomp:
    """w = p^ℓ · n · (q^h - 1) with p ∤ n and h maximal."""

    w: int
    h: int
    ell: int
    n: int


def decompose_weight(q: int, w: int) -> WeightDecomp:
    """Decompose w with h the greatest integer such that (q^h - 1) | w.

    Requires (q-1) | w; every caller in the divisible-weights pipeline
    guarantees this.
    """
    if w < 1:
        raise ValueError("weight must be positive")
    if w % (q - 1) != 0:
        raise ValueError(f"(q-1) = {q - 1} does not divide weight {w}")
    p = field_for_q(q).p
    ell = 0
    m = w
    while m % p == 0:
        m //= p
        ell += 1
    h = 1
    cand = 2
    while q ** cand - 1 <= w:
        if w % (q ** cand - 1) == 0:
            h = cand
        cand += 1
    n = m // (q ** h - 1)
    assert w == p ** ell * n * (q ** h - 1) and n % p != 0
    return WeightDecomp(w, h, ell, n)


@dataclass(frozen=True)
class AnnihilatorData:
    """A factored annihilator: a tuple of polynomials in F_q[t], the
    Frobenius-difference factors (t^{q^h} - t)^{p^ℓ} in their closed
    form t^{q^h·p^ℓ} - t^{p^ℓ}, plus an optional depth-one factor, in
    the order `TModule.apply_annihilator` applies them."""

    factors: tuple  # of Poly in t

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)


def _suffix_exponents(field: FieldSpec, s: tuple, first: int) -> list:
    """The pair (q^h·p^ℓ, p^ℓ) per suffix weight w_i = s_{r-i} + ... +
    s_r = p^ℓ·n·(q^h - 1), i = first..r-1 (w_0 = s_r): the exponents of
    its Frobenius-difference factor (t^{q^h} - t)^{p^ℓ} =
    t^{q^h·p^ℓ} - t^{p^ℓ} in characteristic p."""
    q = field.q
    bad = [x for x in s if x % (q - 1) != 0]
    if bad:
        raise ValueError(f"entries {bad} not divisible by q-1 = {q - 1}")
    r = len(s)
    out = []
    for i in range(first, r):
        dec = decompose_weight(q, sum(s[r - 1 - i:]))
        out.append((q ** dec.h * field.p ** dec.ell, field.p ** dec.ell))
    return out


def _suffix_factors(field: FieldSpec, s: tuple, first: int) -> list:
    """The factors t^{q^h·p^ℓ} - t^{p^ℓ} of `_suffix_exponents`."""
    return [
        Poly.monomial(field, 1, high, "t") - Poly.monomial(field, 1, low, "t")
        for high, low in _suffix_exponents(field, s, first)
    ]


def annihilator_mzv(field: FieldSpec, s) -> AnnihilatorData:
    """Annihilator for the multizeta point of s, as the tower of its
    suffixes' annihilators.

    The depth-one factor (Γ_{s_r+1}/Γ_{s_r})·denBC(s_r) with θ replaced
    by t comes first, then one Frobenius-difference factor per suffix
    weight w_i = s_{r-i} + ... + s_r, i = 1..r-1.  So the first k
    factors are `annihilator_mzv` of the depth-k suffix
    (s_{r-k+1}, ..., s_r), as it stands.  Every entry must be
    divisible by q-1.
    """
    s = tuple(s)
    suffixes = _suffix_factors(field, s, 1)
    cache = cache_for(field)
    depth_one = cache.gamma_ratio(s[-1]) * cache.bc_denominator(s[-1])
    return AnnihilatorData((depth_one.with_var("t"), *suffixes))


def annihilator_mzv_degree(field: FieldSpec, s) -> int:
    """`annihilator_mzv(field, s).degree`, without building a factor:
    deg L_k = q + ... + q^k for (Γ_{s_r+1}/Γ_{s_r}) = ±L_k, k the
    position of the lowest nonzero base-q digit of s_r
    (`CarlitzCache.gamma_ratio`), plus deg denBC(s_r), plus q^h·p^ℓ
    for each suffix weight (`_suffix_exponents`)."""
    s = tuple(s)
    k = next(k for k, d in enumerate(base_q_digits(s[-1], field.q)) if d)
    return (
        sum(field.q ** i for i in range(1, k + 1))
        + cache_for(field).bc_denominator(s[-1]).degree
        + sum(high for high, _ in _suffix_exponents(field, s, 1))
    )


def annihilator_cmpl(field: FieldSpec, s) -> AnnihilatorData:
    """Annihilator for the polylogarithm point: factors for
    w_0 = s_r through w_{r-1}, smallest degree first, no depth-one
    polynomial factor."""
    factors = _suffix_factors(field, tuple(s), 0)
    return AnnihilatorData(tuple(sorted(factors, key=lambda f: f.degree)))


@dataclass
class Verdict:
    q: int
    s: tuple
    weight: int
    depth: int
    reduced: tuple
    eulerian: bool
    precheck: Optional[str]
    annihilator_degree: int
    elapsed_ms: int
    modulus: Optional[tuple] = None
    conditional: Optional[bool] = None

    def to_json(self) -> dict:
        out = {
            "q": self.q,
            "modulus": list(self.modulus) if self.modulus else None,
            "tuple": list(self.s),
            "weight": self.weight,
            "depth": self.depth,
            "eulerian": self.eulerian,
            "precheck": self.precheck,
            "annihilator_degree": self.annihilator_degree,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.conditional is not None:
            out["conditional"] = self.conditional
        return out


@dataclass
class ZetaLikeVerdict:
    q: int
    s: tuple
    weight: int
    depth: int
    bound: int
    outcome: str  # "zeta-like" | "none-up-to-bound" | "reduced-to-eulerian"
    witness_a: Optional[Poly]
    witness_b: Optional[Poly]
    elapsed_ms: int
    modulus: Optional[tuple] = None
    delegate: Optional[Verdict] = dc_field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "modulus": list(self.modulus) if self.modulus else None,
            "tuple": list(self.s),
            "weight": self.weight,
            "depth": self.depth,
            "eulerian": self.delegate.eulerian if self.delegate else None,
            "precheck": self.delegate.precheck if self.delegate else None,
            "annihilator_degree": (
                self.delegate.annihilator_degree if self.delegate else None
            ),
            "elapsed_ms": self.elapsed_ms,
            "outcome": self.outcome,
            "witness_a": str(self.witness_a) if self.witness_a else None,
            "witness_b": str(self.witness_b) if self.witness_b else None,
            "bound": self.bound,
        }


def _check_bound(bound: int):
    try:
        operator.index(bound)
    except TypeError:
        raise ValueError(f"the degree bound must be an int, got {bound!r}") from None
    if bound < 0:
        raise ValueError(f"the degree bound must be >= 0, got {bound}")


def _modulus_of(field: FieldSpec):
    return field.modulus if field.e > 1 else None


def _ladder(motive: Motive, probe_degree: int = 0):
    """The operator of the motive and the domains a torsion test walks,
    in order: on a `packed` field and for an integral motive (every
    multizeta motive, and a polylogarithm one at a point in F_q[θ]^r)
    the modular probe, of degree max(PROBE_DEGREE, probe_degree), then
    A = F_p[θ] on packed digits (`packed_ring`); otherwise the exact
    `Poly` domain alone, or the `RatFrac` one for a rational motive.
    The last domain is always exact."""
    tm = TModule.from_motive(motive)
    if motive.field.packed and not motive.rational:
        probe = ProbeDomain(motive.field, max(PROBE_DEGREE, probe_degree), 0)
        return tm, [probe, packed_ring(motive.field.p)]
    return tm, [tm.exact]


def _annihilates(motive: Motive, ann: AnnihilatorData) -> bool:
    """Whether ρ_a(v) = 0 for the factored annihilator a and the point
    v of the motive: a nonzero residual in any domain of `_ladder`
    certifies non-torsion, a zero counts only in the last, exact one."""
    tm, doms = _ladder(motive)
    v = motive.special_point_v()
    return all(
        tm.is_zero_point(tm.apply_annihilator(v, ann.factors, dom), dom)
        for dom in doms
    )


# suffix verdicts: {field: {reduced tuple of depth >= 2: Eulerian}}
_SUFFIX_VERDICTS: dict = {}


def _reduce(field: FieldSpec, s: tuple) -> tuple:
    """s divided by p while every entry allows it."""
    while all(x % field.p == 0 for x in s):
        s = tuple(x // field.p for x in s)
    return s


def _decide(field: FieldSpec, reduced: tuple) -> bool:
    """Whether the reduced tuple, every entry divisible by q-1, is
    Eulerian: non-Eulerian at once when its proper suffix, divided by
    p, is, else ρ_a(v) = 0 for its annihilator a, built only then.  A
    suffix of depth one is Eulerian (Carlitz); a longer one is read
    from the field's memo or decided first, and every verdict of
    depth >= 2 goes into the memo."""
    memo = _SUFFIX_VERDICTS.setdefault(field, {})
    eulerian = True
    if len(reduced) > 2:
        suffix = _reduce(field, reduced[1:])
        eulerian = memo[suffix] if suffix in memo else _decide(field, suffix)
    if eulerian:
        eulerian = _annihilates(
            Motive(field, reduced), annihilator_mzv(field, reduced)
        )
    if len(reduced) > 1:
        memo[reduced] = eulerian
    return eulerian


def is_eulerian(field: FieldSpec, s) -> Verdict:
    """Decide whether the multizeta value of s is Eulerian.

    An entry not divisible by q-1 decides "non-Eulerian" at once (the
    precheck).  Otherwise s is divided by p while every entry allows it,
    and the result is non-Eulerian if its proper suffix, decided first,
    is (the module docstring has the argument); else the verdict is
    ρ_a(v) = 0 for the annihilator a of the result.  The recorded
    `annihilator_degree` is deg a by its closed form
    (`annihilator_mzv_degree`), so a pruned tuple builds no factor.
    """
    t0 = time.perf_counter()
    s = composition(s)
    q = field.q

    def done(reduced, eulerian, why, ann_deg):
        return Verdict(
            q=q,
            s=s,
            weight=sum(s),
            depth=len(s),
            reduced=reduced,
            eulerian=eulerian,
            precheck=why,
            annihilator_degree=ann_deg,
            elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
            modulus=_modulus_of(field),
        )

    bad = [x for x in s if x % (q - 1) != 0]
    if bad:
        return done(
            s, False, f"entry {bad[0]} not divisible by q-1 = {q - 1}", 0
        )

    reduced = _reduce(field, s)
    return done(
        reduced,
        _decide(field, reduced),
        None,
        annihilator_mzv_degree(field, reduced),
    )


def is_cmpl_eulerian(field: FieldSpec, s, u) -> Verdict:
    """Decide whether the polylogarithm value at the point u is
    Eulerian.

    Every s_i must be divisible by q-1 and every u_i nonzero.  A u_i is
    a RatFrac or a Poly in θ over `field`, or an int element code in
    range(q).  The attached polynomial Q_ℓ is the coordinate as given:
    a Poly, a code or a RatFrac with denominator 1 (read as its
    numerator) gives an integral one, so a point in F_q[θ]^r, however
    given, builds an integral motive and walks `_ladder` as a multizeta
    motive does, while any other RatFrac makes the motive rational.
    When some u_i has degree >= s_i·q/(q-1) the convergence/non-vanishing
    hypotheses behind the criterion are unverified and the verdict is
    flagged conditional.
    """
    t0 = time.perf_counter()
    s = composition(s)
    q = field.q
    us, qs = [], []
    for x in u:
        if isinstance(x, int) and 0 <= x < q:
            x = Poly(field, [x])
        if isinstance(x, RatFrac) and x.den.is_one():
            x = x.num
        if isinstance(x, RatFrac):
            f = x
        elif isinstance(x, Poly):
            f = RatFrac.from_poly(x)
        else:
            raise ValueError(
                f"coordinate {x!r} is not a RatFrac, a Poly or an element "
                f"code in range({q})"
            )
        if f.field != field or f.num.var != "θ" or f.den.var != "θ":
            raise ValueError(f"coordinate {x!r} is not in {field}(θ)")
        if f.is_zero():
            raise ValueError("evaluation point has a zero coordinate")
        us.append(f)
        # Q_ℓ is the coordinate as given: integral for a Poly
        qs.append(BiPoly(field, [x], rational=isinstance(x, RatFrac)))
    if len(us) != len(s):
        raise ValueError("need one coordinate per composition entry")

    conditional = any(
        (f.num.degree - f.den.degree) * (q - 1) >= si * q
        for f, si in zip(us, s)
    )
    ann = annihilator_cmpl(field, s)
    motive = Motive(field, s, Q=qs)
    eulerian = _annihilates(motive, ann)
    return Verdict(
        q=q,
        s=s,
        weight=sum(s),
        depth=len(s),
        reduced=s,
        eulerian=eulerian,
        precheck=None,
        annihilator_degree=ann.degree,
        elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
        modulus=_modulus_of(field),
        conditional=conditional,
    )


def default_zetalike_bound(q: int, weight: int) -> int:
    """Heuristic witness-degree bound q^(⌈log_q w⌉ + 1)."""
    e = 0
    while q ** e < weight:
        e += 1
    return q ** (e + 1)


def _witness_kernel(motive: Motive, seed_groups, bound: int):
    """First kernel basis vector of (a_1, ..., a_k) ↦ Σ ρ_{a_i}(P_i) over
    deg a_i <= bound, P_i the point with seeds seed_groups[i], returned
    as the list [a_1, ..., a_k]; None if the kernel is zero.

    Each domain of `_ladder` builds the system by `TModule.iterates`:
    one column per iterate ρ_{t^j}(P_i), j <= bound, laid out as the
    domain's plan holds it.  In the probe a column is the d·deg digits
    of a point of F_{p^deg}^d, instead of d polynomials of growing
    degree, and deg is at least WITNESS_ROWS_PER_COLUMN times the
    columns per coordinate: with fewer rows than columns the probe
    kernel is nonempty by counting alone, and the search would go on
    to exact iterates whose degrees grow q-fold with j.  An empty
    kernel in any domain rules out every witness; a kernel vector
    counts once `vanishes`, a reduction independent of ρ_t, accepts
    it, which in the exact domain it must."""
    field = motive.field
    n = bound + 1
    ncols = n * len(seed_groups)
    tm, doms = _ladder(motive, -(-WITNESS_ROWS_PER_COLUMN * ncols // motive.d))
    points = [motive.reduce_point(seeds) for seeds in seed_groups]

    def split(vec):
        return [Poly(field, vec[i:i + n], var="t") for i in range(0, ncols, n)]

    def vanishes(polys):
        # Σ ρ_{a_i}(P_i) in exact arithmetic, as one reduction of the
        # a_i-multiples of the seeds (the reduction is linear)
        T = motive.domain()
        scaled = [
            (m, T.mul(f, T.t_poly(a)), ell)
            for seeds, a in zip(seed_groups, polys)
            for m, f, ell in seeds
        ]
        return all(c.is_zero() for c in motive.reduce_point(scaled))

    for dom in doms:
        basis = nullspace(field, tm.iterates(points, n, dom))
        # Each probe row is an F_p-combination of exact rows (θ ↦ ξ is
        # F_p-linear), so the exact kernel lies inside the probe kernel:
        # an empty kernel in any domain rules out every witness.
        if not basis:
            return None
        # The exact row space contains the probe row space, so the exact
        # pivot columns include the probe ones and the exact free columns
        # are among the probe free columns.  A first probe basis vector
        # (1 at the first probe free column, 0 at the others) that lies
        # in the exact kernel is therefore the first exact basis vector:
        # the answer is the exact domain's, byte for byte.
        polys = split(basis[0])
        if vanishes(polys):
            return polys
        # a kernel collision in the probe: go on to the exact domain
        assert dom is not doms[-1], "exact kernel vector fails the reduction"


def torsion_witness(field: FieldSpec, s, bound: int):
    """Smallest-support nonzero a with deg a <= bound and ρ_a(v) = 0,
    found by linear algebra over F_q; None if no witness exists up to
    the bound.  Independent of the factored annihilator path; the search
    walks the domains of `_ladder`, and a witness is always verified
    exactly."""
    _check_bound(bound)
    motive = Motive(field, s)
    witness = _witness_kernel(motive, [motive.point_v_seeds()], bound)
    return witness[0] if witness else None


def is_zeta_like(field: FieldSpec, s, bound: Optional[int] = None) -> ZetaLikeVerdict:
    """Decide (or semi-decide) whether the value of s is a rational
    multiple of the depth-one value of the same weight.

    When (q-1) | w this is equivalent to being Eulerian and the
    question is delegated.  Otherwise the procedure searches degrees
    <= bound for a nonzero pair (a, b) with ρ_a(v) + ρ_b(u) = 0; not
    finding one is only "none-up-to-bound"."""
    t0 = time.perf_counter()
    s = composition(s)
    if len(s) < 2:
        raise ValueError("zeta-like search needs depth >= 2")
    q = field.q
    weight = sum(s)
    depth = len(s)
    if bound is None:
        bound = default_zetalike_bound(q, weight)
    _check_bound(bound)

    if weight % (q - 1) == 0:
        sub = is_eulerian(field, s)
        return ZetaLikeVerdict(
            q=q,
            s=s,
            weight=weight,
            depth=depth,
            bound=bound,
            outcome="reduced-to-eulerian",
            witness_a=None,
            witness_b=None,
            elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
            modulus=_modulus_of(field),
            delegate=sub,
        )

    motive = Motive(field, s)
    witness = _witness_kernel(
        motive, [motive.point_v_seeds(), motive.point_u_seeds()], bound
    )
    return ZetaLikeVerdict(
        q=q,
        s=s,
        weight=weight,
        depth=depth,
        bound=bound,
        outcome="zeta-like" if witness else "none-up-to-bound",
        witness_a=witness[0] if witness else None,
        witness_b=witness[1] if witness else None,
        elapsed_ms=int(round((time.perf_counter() - t0) * 1000)),
        modulus=_modulus_of(field),
    )


def check_suffix_consistency(verdicts: dict) -> list:
    """Violations of "Eulerian implies every proper suffix Eulerian".

    `verdicts` maps tuples to booleans and must contain the proper
    suffix of every Eulerian tuple of depth >= 2.  Returns a list of
    (tuple, suffix) pairs where the implication fails.

    `is_eulerian` decides the proper suffix first and prunes a tuple
    of depth >= 3 whose suffix is non-Eulerian, so pruned tuples pass
    this check by construction; the independent check is
    `test_tower_verdicts_match_the_full_application`, which applies
    every sweep tuple's whole annihilator to its own motive.
    """
    out = []
    for s, eul in verdicts.items():
        if not eul or len(s) < 2:
            continue
        suffix = tuple(s[1:])
        if suffix not in verdicts:
            raise KeyError(
                f"suffix {suffix} of Eulerian tuple {s} missing from map"
            )
        if not verdicts[suffix]:
            out.append((tuple(s), suffix))
    return out
