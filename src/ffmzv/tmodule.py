"""t-module operators: applying ρ_a to points, exactly or through a
modular probe.

ρ_t is kept in the shape the motive gives it (`TModule`): θ·I, plus the
shift inside each block of coordinates, plus τ-terms c·τ^n (n >= 1) in
the first column of each block, which act on a coordinate x by
c·x^{q^n}.  The motive hands over only those τ-terms
(`Motive.rho_t_entries`); θ·I and the shift follow from the block
sizes, and `TModule.entry` rebuilds any entry as a dict {n: c}.  One
application of ρ_t is one θ-step θ·x + y per row (y the next coordinate
of the block, or 0 at its end) and one product per τ-term.  Points live
in a pluggable coefficient domain, one of two classes here or the
packed ring:

* `ExactDomain` — coordinates in A = F_q[θ] (or F_q(θ)) as `Poly` (or
  `RatFrac`) objects; fully rigorous both ways, but repeated τ's raise
  degrees q-fold, so a non-torsion point blows up quickly under a large
  annihilator.  It serves every field, the `RatFrac` coordinates of a
  rational motive (a polylogarithm point with a coordinate outside
  F_q[θ]) and the diagnostics (`TModule.entry`, `render`).
* `ProbeDomain` — the image of A under θ ↦ ξ for ξ a root of an
  irreducible of chosen degree over F_p (`packed` fields and `Poly`
  coordinates only, a polylogarithm point in F_q[θ]^r included).  The
  map is a ring homomorphism commuting with x ↦ x^q, so a NONZERO
  probe result rigorously certifies the exact result nonzero.  A zero
  probe proves nothing and must be confirmed exactly.  A probe element
  is a `bytes` of F_p digits, with a product one big-int product of
  the packed digits and x ↦ x^{q^n} a precomputed F_p-linear map
  (`fpx.PackedQuotient`, the domain's `ring`); the domain itself
  offers no element operation but `is_zero`, as ρ_t never runs on it
  row by row.  A probe point is
  one packed integer, all its rows side by side, and one application
  of ρ_t a few big-int operations on it with one reduction, plus one
  product and one grouped Barrett reduction per τ-level with
  non-constant coefficients: the probe's plan and its slot proof live
  in `fpx` (`fpx.PackedQuotient.point_plan`, `fpx._PackedPoint`).
* the packed ring `poly.packed_ring(p)` itself — the same ring
  A = F_p[θ] as `ExactDomain` on a `packed` field, each coordinate a
  `bytes` of F_p digits (`fpx.PackedPoly`).  It confirms the probe's
  zeros exactly.  A point is one packed run of rows per block, each
  block at a row width of its own, and one application of ρ_t per
  block one packed sum and one reduction: the θ-step a one-slot shift,
  the next-row add one shifted add, Horner's c·x one scaled add, and
  per (source block, level, target block) one Kronecker product of the
  twisted top coordinate and the level's coefficients laid out as
  rows (`fpx._PackedBlocks` holds both slot bounds and their proofs).
  For p > 13 the ring offers no such plan and the row loop runs.

The operator code below never asks which domain it runs in.  Each
`TModule` builds one plan of ρ_t per domain, its coefficients converted
once: the domain's own (`fpx.PackedQuotient.point_plan` for the
probe, `fpx.PackedPoly.point_plan`), or else the row loop (`_RowLoop`)
over the domain's element operations (zero, is_zero, add, mul,
theta_step, scalar, frob), which `ExactDomain` and the packed ring for
p > 13 take.  Every domain converts a list at a time
(`convert_all`).  A point enters the plan once per call and leaves it
as a list of coordinates, or, for the witness search, as columns of
its linear system (`TModule.iterates`): the first n iterates of each
point, stepped inside the plan and laid out by it (`columns`).

ρ_a for a in F_q[t] is Horner in ρ_t from the leading coefficient of a
(`TModule.apply_poly`): deg a applications of ρ_t, with the point added
back at each nonzero coefficient.  Annihilators are kept factored, a
sequence of plain polynomials in t; a Frobenius-difference factor
(t^{q^h} - t)^{p^ℓ} arrives already in closed form, the two-term
t^{q^h·p^ℓ} - t^{p^ℓ}.  Factors are applied in the order given, and
the rest are skipped once the point dies
(`TModule.apply_annihilator`).
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import compress

from . import fpx
from .carlitz import cache_for, theta_major
from .fields import FieldSpec
from .poly import Poly, RatFrac


# ---------------------------------------------------------------------------
# coefficient domains


class ExactDomain:
    """Coordinates as polynomials (or fractions) in θ."""

    def __init__(self, field: FieldSpec, rational: bool = False):
        self.field = field
        self.rational = rational
        self.theta = self.convert(Poly.gen(field))

    def zero(self):
        return RatFrac.zero(self.field) if self.rational else Poly.zero(self.field)

    def is_zero(self, x):
        return x.is_zero()

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def theta_step(self, x, y):
        """θ·x + y: a shift of the coefficients of a polynomial, a
        product by θ for a fraction."""
        if self.rational:
            return self.theta * x + y
        return x.shift(1) + y

    def scalar(self, c):
        """The constant c in F_q as a coordinate."""
        return self.convert(Poly.const(self.field, c))

    def frob(self, x, n):
        return x.twist(n)

    def convert(self, c):
        if self.rational and isinstance(c, Poly):
            return RatFrac.from_poly(c)
        return c

    def convert_all(self, cs):
        return [self.convert(c) for c in cs]


def _find_irreducible(p: int, deg: int, rng) -> tuple:
    """Random monic irreducible of degree `deg` >= 1 over F_p: the first
    draw from `rng` with a nonzero constant term that
    `fpx.is_irreducible` accepts.  That test is exact, so a seed always
    names the same modulus; most draws are rejected at a small factor,
    most of them by its root test.  Below degree 1 every draw is the
    constant 1, which the test rejects, so such a degree raises
    `ValueError` before the search."""
    if deg < 1:
        raise ValueError(f"a probe field needs degree >= 1, not {deg}")
    while True:
        m = [rng.randrange(p) for _ in range(deg)] + [1]
        if m[0] and fpx.is_irreducible(m, p):
            return tuple(m)


@lru_cache(maxsize=None)
def _probe_tables(p: int, deg: int, seed: int):
    """The probe field F_{p^deg} for a seed, as a packed quotient ring
    that holds the modulus, Barrett's μ and the Frobenius images.
    Every ProbeDomain with the same key shares it; it is found on first
    use, never at import, and fills its Frobenius images per power on
    first use too."""
    modulus = _find_irreducible(p, deg, random.Random(seed))
    return fpx.PackedQuotient(modulus, p)


class ProbeDomain:
    """A → F_{p^deg} via θ ↦ ξ (`packed` fields, `Poly` coordinates only).

    An element is a `bytes` of length deg, digit j the coefficient of
    ξ^j, and every operation is `fpx.PackedQuotient`'s (`ring`): a
    product is one big-int product of the packed digits and one Barrett
    reduction, x ↦ x^(p^n) a precomputed F_p-linear map, and
    coefficients and coordinates are converted many at a time
    (`convert_all`, `PackedQuotient.elements`): a plan's coefficients
    in one pass, a point's coordinates in another.

    A point is not a list of elements but one `bytes` of d·deg digits,
    and ρ_t acts on all its rows at once (`point_plan`, that is
    `fpx.PackedQuotient.point_plan`): the probe's plan and its slot
    proof live in `fpx`."""

    def __init__(self, field: FieldSpec, deg: int, seed: int = 0):
        if not field.packed:
            raise ValueError("modular probe supports prime q < 256 only")
        self.field = field
        self.deg = deg
        self.ring = ring = _probe_tables(field.p, deg, seed)
        self.modulus = ring.modulus
        self._zero = ring.zero
        # the plan of ρ_t is the ring's own
        self.point_plan = ring.point_plan

    def is_zero(self, x):
        return x == self._zero

    def convert_all(self, cs):
        """The images of Polys in θ, all in one pass
        (`PackedQuotient.elements`)."""
        return self.ring.elements([c.coeffs for c in cs])


class _RowLoop:
    """ρ_t row by row over a domain's element operations: one θ-step
    per row, then one product and one sum per τ-term.  The plan of
    `ExactDomain` and of the packed ring for p > 13, and the reference
    the packed plans are tested against."""

    def __init__(self, dom, blocks):
        self.dom, self.blocks = dom, blocks

    def enter(self, vec):
        return list(vec)

    def leave(self, vec):
        return vec

    def is_zero(self, vec):
        return all(map(self.dom.is_zero, vec))

    def times(self, x, c):
        """c·x for an element code c: x itself for 1."""
        if c == 1:
            return x
        dom = self.dom
        cs = dom.scalar(c)
        return [dom.mul(cs, y) for y in x]

    def columns(self, points):
        """The points as the columns of one matrix of digits: per
        coordinate, the digit of each point at every position where
        some point's digit is nonzero, found by `compress`.  Most
        positions of the exact iterates ρ_{t^j}(P) are zero, as their
        θ-degrees grow q-fold with j and a Frobenius twist spreads the
        digits apart."""
        cols = [[] for _ in points]
        for coords in zip(*points):
            digits = [getattr(x, "coeffs", x) for x in coords]
            at = sorted(set().union(*(compress(range(len(d)), d) for d in digits)))
            for col, d in zip(cols, digits):
                n = len(d)
                col += [d[j] if j < n else 0 for j in at]
        return cols

    def step(self, vec, c, x):
        """ρ_t(vec) + c·x: per row one θ-step, θ·x_i + x_{i+1} inside a
        block and θ·x_i + 0 at its end, then the τ-terms of the top
        columns (one Frobenius per level), then c·x."""
        dom = self.dom
        step, zero, is_zero = dom.theta_step, dom.zero(), dom.is_zero
        out = []
        for start, end, _ in self.blocks:
            out += map(step, vec[start:end], vec[start + 1:end])
            out.append(step(vec[end - 1], zero))
        for start, _, terms in self.blocks:
            x0 = vec[start]
            if is_zero(x0):
                continue
            level = None
            for row, n, coeff in terms:
                if n != level:
                    level, fx = n, dom.frob(x0, n)
                out[row] = dom.add(out[row], dom.mul(coeff, fx))
        if c:
            out = list(map(dom.add, out, self.times(x, c)))
        return out


def _horner(plan, x, coeffs):
    """ρ_a(x) in a plan's point type for a = Σ coeffs[i]·t^i, by Horner
    in ρ_t from the leading coefficient: deg a steps, each adding back
    its coefficient's multiple of x."""
    *rest, lead = coeffs or (0,)
    acc = plan.times(x, lead)
    for c in reversed(rest):
        acc = plan.step(acc, c, x)
    return acc


# ---------------------------------------------------------------------------
# the operator itself


class TModule:
    """ρ_t = θ·I + N + T for a d-dimensional t-module.

    The coordinates fall into blocks of sizes `weights`, block ℓ
    starting at row `starts[ℓ]`.  N is the shift inside each block: it
    adds coordinate i+1 to row i when both lie in one block.  So θ·I + N
    is one θ-step of the coefficient domain per row: θ·x_i + x_{i+1}
    inside a block, θ·x_i at its end.  T holds every τ-term, all of
    them in the first column of a block: `top[ℓ]` lists the (row, n, c)
    with n >= 1, each adding c·x^{q^n} to its row, x the coordinate at
    starts[ℓ].
    """

    def __init__(self, field: FieldSpec, weights, top, rational=False):
        self.field = field
        self.weights = tuple(weights)
        self.d = sum(self.weights)
        self.starts = tuple(
            sum(self.weights[:k]) for k in range(len(self.weights))
        )
        self.top = [sorted(terms, key=lambda t: (t[1], t[0])) for terms in top]
        self.rational = rational
        self.exact = ExactDomain(field, rational)
        self._plans = {}

    @classmethod
    def from_motive(cls, motive):
        """ρ_t of a motive: its block sizes and the top-column τ-terms
        of `Motive.rho_t_entries`."""
        return cls(
            motive.field, motive.weights, motive.rho_t_entries(),
            motive.rational,
        )

    def _plan(self, dom):
        """ρ_t in dom, built once per domain with every coefficient
        converted into it: the domain's own plan when it offers one
        (`fpx.PackedQuotient.point_plan`, a whole point in one packed value;
        `fpx.PackedPoly.point_plan`, one packed run of rows per block,
        None for p > 13), else the row loop over its element
        operations."""
        plan = self._plans.get(dom)
        if plan is None:
            coeffs = iter(dom.convert_all([c for terms in self.top for *_, c in terms]))
            blocks = [
                (start, start + w, [(row, n, next(coeffs)) for row, n, _ in terms])
                for start, w, terms in zip(self.starts, self.weights, self.top)
            ]
            build = getattr(dom, "point_plan", None)
            plan = build(blocks) if build else None
            plan = self._plans[dom] = plan or _RowLoop(dom, blocks)
        return plan

    def apply_t(self, vec, dom=None):
        """One application of ρ_t: θ·x_i + x_{i+1} inside a block and
        θ·x_i at its end, plus the τ-terms of the top columns.  The
        one-step reference that `iterates` is tested against."""
        dom = dom or self.exact
        plan = self._plan(dom)
        return plan.leave(plan.step(plan.enter(vec), 0, None))

    def iterates(self, points, n: int, dom=None):
        """The first n iterates ρ_{t^j}(P), j < n, of each point P, point
        after point, as the columns of one matrix over F_q
        (`linalg.nullspace`).  Each point enters the domain's plan once
        and takes its n - 1 applications of ρ_t there; the plan then
        lays its iterates out as columns of one length (`columns`): a
        probe point's d·deg digits as they are, the packed ring's blocks
        each at its widest width over the iterates, and the row loop's
        coordinates by their nonzero digits."""
        dom = dom or self.exact
        plan = self._plan(dom)
        out = []
        for vec in points:
            out.append(plan.enter(dom.convert_all(vec)))
            for _ in range(n - 1):
                out.append(plan.step(out[-1], 0, None))
        return plan.columns(out)

    def apply_poly(self, vec, a: Poly, dom=None):
        """ρ_a(vec) for a in F_q[t], by Horner in ρ_t from the leading
        coefficient: deg a applications of ρ_t.  A coefficient 1 adds
        vec; any other nonzero one adds its scalar multiple."""
        dom = dom or self.exact
        plan = self._plan(dom)
        return plan.leave(_horner(plan, plan.enter(vec), a.coeffs))

    def apply_annihilator(self, vec, factors, dom=None):
        """Apply a factored annihilator, a sequence of polynomials in
        F_q[t], in the order given, by Horner; the remaining factors
        are skipped once the point vanishes.  The point enters the
        domain's plan once and leaves it once, as a list of
        coordinates.  Nothing else stops the multizeta tower midway:
        `criterion.is_eulerian` decides a tuple's proper suffix before
        it builds the tuple's motive, so a tuple whose suffix is
        non-Eulerian never gets here."""
        dom = dom or self.exact
        plan = self._plan(dom)
        cur = plan.enter(dom.convert_all(vec))
        for f in factors:
            if plan.is_zero(cur):
                break
            cur = _horner(plan, cur, f.coeffs)
        return plan.leave(cur)

    def is_zero_point(self, vec, dom=None):
        dom = dom or self.exact
        return all(dom.is_zero(x) for x in vec)

    def entry(self, i: int, j: int) -> dict:
        """The (i, j) entry of ρ_t as {n: c}, each level n mapped to its
        nonzero coefficient: it acts on a coordinate x by Σ c·x^{q^n}."""
        terms = {}
        if i == j:
            terms[0] = self.exact.theta
        elif j == i + 1 and j not in self.starts:
            terms[0] = self.exact.scalar(1)
        if j in self.starts:
            terms.update(
                (n, c)
                for row, n, c in self.top[self.starts.index(j)]
                if row == i
            )
        return terms

    def render(self):
        """Text layout of ρ_t with aligned columns (θ/τ notation)."""
        cells = [
            [_format_entry(self.entry(i, j)) for j in range(self.d)]
            for i in range(self.d)
        ]
        widths = [max(len(r[j]) for r in cells) for j in range(self.d)]
        return "\n".join(
            "  ".join(x.rjust(w) for x, w in zip(r, widths)) for r in cells
        )


def _format_entry(terms):
    """An entry {n: c} of ρ_t in θ/τ notation, "0" when empty."""
    if not terms:
        return "0"
    parts = []
    for n in sorted(terms):
        cs = str(terms[n])
        if n == 0:
            parts.append(cs)
            continue
        tau = "τ" if n == 1 else f"τ^{n}"
        if cs == "1":
            parts.append(tau)
        elif "+" in cs or "/" in cs:
            parts.append(f"({cs}){tau}")
        else:
            parts.append(f"{cs}{tau}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# the n-th tensor power of the Carlitz module, built directly


def carlitz_tensor_module(field: FieldSpec, n: int) -> TModule:
    """[t]_n = θ·I + N + E·τ: one block of size n, the 1's of the shift
    on the superdiagonal and a single τ in the bottom-left corner.
    Assembled without the reduction engine, so it can serve as an
    independent cross-check for depth one.
    """
    return TModule(field, (n,), [[(n - 1, 1, Poly.one(field))]])


def depth1_special_point(field: FieldSpec, n: int):
    """The classical depth-one special point: write the canonical
    degree-(n-1) polynomial as Σ h_i(t) θ^i and push each basis vector
    (0,...,0,θ^i) through h_i under the [t]_n action."""
    cache = cache_for(field)
    h = cache.anderson_thakur(n - 1)
    tm = carlitz_tensor_module(field, n)
    dom = tm.exact
    total = [dom.zero()] * n
    for i, hi in enumerate(theta_major(h)):
        if hi.is_zero():
            continue
        vec = [Poly.zero(field)] * (n - 1) + [Poly.monomial(field, 1, i)]
        img = tm.apply_poly(vec, hi, dom)
        total = [a + b for a, b in zip(total, img)]
    return total
