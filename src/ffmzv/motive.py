"""The rank-r Frobenius module attached to a composition (s_1,...,s_r)
and its reduction to a d-dimensional t-module.

The module M' has a basis m_1,...,m_r on which σ acts through the lower
bidiagonal matrix with (t-θ)^{w_ℓ} on the diagonal and twisted versions
of the attached polynomials Q_ℓ on the subdiagonal, where
w_ℓ = s_ℓ + ... + s_r.  Over the σ-skew ring it is free of rank
d = w_1 + ... + w_r with basis

    ν_{(ℓ,j)} = (t-θ)^j m_ℓ,   j = w_ℓ-1, ..., 1, 0  (per block ℓ),

rows numbered top-down inside each block (highest power of (t-θ) first).

The t-action matrix ρ_t is θ·I plus the in-block shift
ν_{(ℓ,j)} → ν_{(ℓ,j+1)}, read off from t = θ + (t-θ); only the r top
columns j = w_ℓ-1 leave the σ-basis.  `Motive.rho_t_entries` returns
just the τ-terms of those columns, which `tmodule.TModule` takes as
they are.  They and the distinguished integral points come out of a
worklist reduction:
repeatedly split a coefficient f of m_ℓ as f = g·(t-θ)^{w_ℓ} + γ and
trade the g-part for terms one σ-level up via

    f·m_ℓ  =  σ g^{(1)} m_ℓ
             + Σ_{i=1}^{ℓ-1} (-1)^i σ g^{(1)} Q_{ℓ-1}···Q_{ℓ-i} m_{ℓ-i}
             + γ·m_ℓ,

until every coefficient has t-degree < w_ℓ and drops into the σ-basis.
Every term stays in the (t-θ)-adic basis u = t-θ from seed to finish,
so the split is a slice and a finished coefficient of u^j is the
coefficient of its row.  A seed given in t is expanded once (the Taylor
shift f(t) ↦ f(u+θ)), a canonical Q_ℓ = H_{s_ℓ-1} once per n for
every motive (`carlitz.CarlitzCache.h_expanded`), any other Q_ℓ once
per motive, and the ρ_t seed (t-θ)^{w_ℓ} is u^{w_ℓ} as it stands.  The
twist keeps t and raises θ to θ^q, so g^{(1)} is the twist of the
coefficients of g followed by the Taylor shift by θ - θ^q; in
characteristic p that shift is Horner's rule in u^m + θ^m - θ^{qm}
for m a power of p (`poly.taylor_shift`).  Products are plain products
in u.
A term finishing at σ-level n with (t-θ)-expansion coefficient a_j
contributes a_j·τ^n at its row when collecting the operator, and plainly
a_j when collecting a point (the σ-level cancels against the q^n-th
power in the quotient map, so points never see it).

The terms, seeds and worklist alike, are the H_n fill's, one type per
ring (`carlitz.terms_for`), like the coefficient domains of
`tmodule.TModule`: packed rows of F_p digits
(`carlitz._RowTerms`, on the shared `poly.packed_ring`, whose sums,
products, Frobenius and Taylor shift are `fpx.PackedPoly`'s, so no slot
bound is derived here) where the field is `packed` (prime q < 256) and
the coefficients integral, `BiPoly` terms with `Poly` or `RatFrac`
coefficients (`carlitz._BiPolyTerms`) for every other field, p >= 256
included, and for the rational motives: a motive is rational exactly
when one of its attached polynomials is a rational `BiPoly`.  Each Q_ℓ
is a term in t once the motive is built, a canonical one the cache's
term of H_n (`carlitz.CarlitzCache.h_term`), and the seeds of the
points are products of those terms, so a packed motive whose H_n are
filled builds no `BiPoly`, and keeps none.
"""
from __future__ import annotations

from functools import cached_property

from .carlitz import cache_for, terms_for
from .fields import FieldSpec, composition
from .poly import BiPoly, Poly, RatFrac

_BUDGET = 10 ** 6


class ReductionBudgetError(RuntimeError):
    """The worklist exceeded its step budget (should never happen)."""


class Motive:
    """M' for a composition s, with attached polynomials Q_ℓ.

    By default Q_ℓ is the canonical degree-(s_ℓ - 1) polynomial H_{s_ℓ-1}
    (the multizeta case).  A polylogarithm instance passes its own
    constants-in-t tuple via `Q`, one `BiPoly` per entry.  The motive
    is `rational` exactly when one of them is a rational `BiPoly`; its
    other Q_ℓ are then laid out with `RatFrac` coefficients too.
    """

    def __init__(self, field: FieldSpec, s, Q=None):
        self.field = field
        self.s = s = composition(s)
        self.r = len(s)
        self._canonical = Q is None
        Q = [] if Q is None else list(Q)
        if not self._canonical and len(Q) != self.r:
            raise ValueError("need one attached polynomial per entry")
        self.rational = any(isinstance(f, BiPoly) and f.rational for f in Q)
        self._terms = terms_for(field, self.rational)
        if self._canonical:
            # the cache's terms of H_{s_ℓ-1}
            cache = cache_for(field)
            self._laid = [cache.h_term(si - 1) for si in s]
        else:
            # each Q_ℓ laid out once, in t
            self._laid = [self._terms.lay(f) for f in Q]
        # suffix weights: weights[ℓ-1] = s_ℓ + ... + s_r
        self.weights = [sum(s[i:]) for i in range(self.r)]
        self.d = sum(self.weights)
        self._offsets = [sum(self.weights[:i]) for i in range(self.r)]

    # -- indexing ----------------------------------------------------------
    def row(self, ell: int, j: int) -> int:
        """Row of ν_{(ℓ,j)} = (t-θ)^j m_ℓ (ℓ is 1-based, 0 <= j < w_ℓ)."""
        w = self.weights[ell - 1]
        if not 0 <= j < w:
            raise IndexError("power out of range for block")
        return self._offsets[ell - 1] + (w - 1 - j)

    # -- the reduction worklist -------------------------------------------
    def domain(self):
        """The motive's terms of F_q[θ][t] (`carlitz.terms_for`): the
        seeds are terms in t, the worklist's terms in u = t-θ."""
        return self._terms

    @cached_property
    def _uq(self):
        """The u-basis Q_1, ..., Q_{r-1} that the telescoping multiplies
        by: the canonical ones from the cache, expanded once per n for
        every motive (`carlitz.CarlitzCache.h_expanded`), others
        expanded here on first use."""
        if self._canonical:
            cache = cache_for(self.field)
            return [cache.h_expanded(si - 1) for si in self.s[:-1]]
        return [self._terms.expand(f) for f in self._laid[:-1]]

    def _worklist(self, terms):
        """Drive u-basis terms (n, f, ℓ) to the σ-basis, yielding the
        finished contributions (n, a, row), a a coefficient of the
        domain; one (n, row) may come more than once."""
        dom = self.domain()
        pending = {}

        def push(n, f, ell):
            key = (n, ell)
            pending[key] = dom.add(pending[key], f) if key in pending else f

        for n, f, ell in terms:
            push(n, f, ell)

        budget = _BUDGET
        while pending:
            budget -= 1
            if budget < 0:
                raise ReductionBudgetError("reduction exceeded step budget")
            # largest (ℓ, deg_t) first, so merged terms split only once
            key = max(pending, key=lambda k: (k[1], dom.rows(pending[k])))
            n, ell = key
            f = pending.pop(key)
            w = self.weights[ell - 1]
            if dom.rows(f) > w:
                f, g = dom.split(f, w)
                for tn, tf, tl in self.telescope_expand(g, ell):
                    push(n + tn, tf, tl)
            for j, a in dom.coeffs(f):
                yield n, a, self.row(ell, j)

    def telescope_expand(self, g, ell: int):
        """One telescoping step on a u-basis term of the domain: the
        terms replacing u^{w_ℓ}·g·m_ℓ, all at σ-level 1 relative to the
        input and with no inverse twists: (1, g^{(1)}, ℓ) plus
        alternating-sign products of the attached polynomials walking
        down to block 1."""
        dom = self.domain()
        g1 = dom.twist(g)
        out = [(1, g1, ell)]
        prod = g1
        for i in range(1, ell):
            prod = dom.mul(prod, self._uq[ell - 1 - i])
            out.append((1, dom.neg(prod) if i % 2 else prod, ell - i))
        return out

    def _collect(self, terms, key):
        """The worklist's contributions summed per key(n, row) in the
        domain, zeros dropped, converted to the motive's coefficients."""
        dom = self.domain()
        acc = {}
        for n, a, row in self._worklist(terms):
            k = key(n, row)
            acc[k] = dom.add_coeff(acc[k], a) if k in acc else a
        return {k: dom.export(a) for k, a in acc.items() if a}

    def _expand_seeds(self, seeds):
        dom = self.domain()
        return [(n, dom.expand(f), ell) for n, f, ell in seeds]

    def reduce(self, seeds):
        """Drive seeds (n, f, ℓ), f a term in t of `domain()`, to the
        σ-basis.  A caller holding a `BiPoly` passes `domain().lay(f)`,
        and `domain().bipoly(f)` gives a seed's f back as a `BiPoly`;
        `reduce_point` takes, and `point_v_seeds` and `point_u_seeds`
        return, seeds of the same kind.

        Returns the finished contributions as (n, coeff, row) triples,
        one per σ-level and row, coeff a nonzero element of the
        coefficient ring of the motive.
        """
        got = self._collect(self._expand_seeds(seeds), lambda n, row: (n, row))
        return [(n, a, row) for (n, row), a in got.items()]

    # -- collectors --------------------------------------------------------
    def reduce_point(self, seeds):
        """Coordinates in the σ-basis, σ-levels discarded."""
        got = self._collect(self._expand_seeds(seeds), lambda n, row: row)
        zero = (
            RatFrac.zero(self.field) if self.rational else Poly.zero(self.field)
        )
        return [got.get(row, zero) for row in range(self.d)]

    def rho_t_entries(self):
        """The τ-terms of ρ_t: per block ℓ, the list of (row, n, c) with
        c·τ^n in its top column j = w_ℓ-1, summed per (row, n), zeros
        dropped.

        t·(t-θ)^j m_ℓ = θ·(t-θ)^j m_ℓ + (t-θ)^{j+1} m_ℓ, so the rest of
        ρ_t is θ·I plus the in-block shift ν_{(ℓ,j)} → ν_{(ℓ,j+1)}.
        Only in the top column does (t-θ)^{w_ℓ} = u^{w_ℓ} leave the
        σ-basis; its first split telescopes it whole, so every n is
        >= 1.
        """
        dom = self.domain()
        blocks = []
        for ell, w in enumerate(self.weights, 1):
            got = self._collect(
                [(0, dom.u_power(w), ell)], lambda n, row: (row, n)
            )
            blocks.append([(row, n, a) for (row, n), a in got.items()])
        return blocks

    # -- distinguished points ---------------------------------------------
    def point_v_seeds(self):
        """Seeds for the twisted top-block generator Q_r^{(-1)}(t-θ)^{s_r}m_r.

        Pre-telescoped by hand: the (t-θ)^{s_r} factor is exactly the
        diagonal entry of block r, so the seeds sit at σ-level 1.
        """
        T, laid = self._terms, self._laid
        prod = laid[-1]
        seeds = [(1, prod, self.r)]
        for i in range(1, self.r):
            prod = T.mul(prod, laid[self.r - 1 - i])
            seeds.append((1, T.neg(prod) if i % 2 else prod, self.r - i))
        return seeds

    def point_u_seeds(self):
        """Seeds for H_{w-1}^{(-1)}(t-θ)^w m_1 (the depth-collapsed point)."""
        cache, n = cache_for(self.field), self.weights[0] - 1
        if self.rational:
            return [(1, self._terms.lay(cache.anderson_thakur(n)), 1)]
        return [(1, cache.h_term(n), 1)]

    def special_point_v(self):
        return self.reduce_point(self.point_v_seeds())
