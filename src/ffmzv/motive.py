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
The split and the final expansion in powers of (t-θ) are Taylor shifts
f(t) ↦ f(u±θ), closed-form in characteristic p
(`BiPoly.divrem_tm_theta`, `BiPoly.expand_tm_theta`).
A term finishing at σ-level n with (t-θ)-expansion coefficient a_j
contributes a_j·τ^n at its row when collecting the operator, and plainly
a_j when collecting a point (the σ-level cancels against the q^n-th
power in the quotient map, so points never see it).
"""
from __future__ import annotations

from .carlitz import cache_for
from .fields import FieldSpec
from .poly import BiPoly, Poly, RatFrac

_BUDGET = 10 ** 6


class ReductionBudgetError(RuntimeError):
    """The worklist exceeded its step budget (should never happen)."""


class Motive:
    """M' for a composition s, with attached polynomials Q_ℓ.

    By default Q_ℓ is the canonical degree-(s_ℓ - 1) polynomial H_{s_ℓ-1}
    (the multizeta case).  A polylogarithm instance passes its own
    constants-in-t tuple via `Q`, possibly with rational coefficients.
    """

    def __init__(self, field: FieldSpec, s, Q=None, rational: bool = False):
        s = tuple(int(x) for x in s)
        if not s or any(x < 1 for x in s):
            raise ValueError("composition entries must be positive integers")
        self.field = field
        self.s = s
        self.r = len(s)
        self.rational = rational
        if Q is None:
            cache = cache_for(field)
            Q = [cache.anderson_thakur(si - 1) for si in s]
            if rational:
                raise ValueError("canonical Q is integral; rational=False")
        else:
            Q = list(Q)
            if len(Q) != self.r:
                raise ValueError("need one attached polynomial per entry")
        self.Q = Q
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
    def reduce(self, seeds):
        """Drive terms (n, f, ℓ) to the σ-basis.

        Returns finished contributions as a list of (n, coeff, row)
        triples with coeff in the coefficient ring of the motive.
        """
        pending = {}

        def push(n, f, ell):
            key = (n, ell)
            if key in pending:
                pending[key] = pending[key] + f
            else:
                pending[key] = f

        for n, f, ell in seeds:
            push(n, f, ell)

        finished = []
        budget = _BUDGET
        while pending:
            budget -= 1
            if budget < 0:
                raise ReductionBudgetError("reduction exceeded step budget")
            # largest (ℓ, deg_t) first, so merged terms split only once
            key = max(pending, key=lambda k: (k[1], pending[k].deg_t))
            n, ell = key
            f = pending.pop(key)
            if f.is_zero():
                continue
            w = self.weights[ell - 1]
            if f.deg_t < w:
                for j, a in enumerate(f.expand_tm_theta()):
                    if not a.is_zero():
                        finished.append((n, a, self.row(ell, j)))
                continue
            g, gamma = f.divrem_tm_theta(w)
            if not gamma.is_zero():
                push(n, gamma, ell)
            for tn, tf, tl in self.telescope_expand(g, ell):
                push(n + tn, tf, tl)
        return finished

    def telescope_expand(self, g, ell: int):
        """One telescoping step: the terms replacing g·(t-θ)^{w_ℓ}·m_ℓ,
        all at σ-level 1 relative to the input and with no inverse
        twists: (1, g^{(1)}, ℓ) plus alternating-sign products of the
        attached polynomials walking down to block 1."""
        g1 = g.twist(1)
        out = [(1, g1, ell)]
        prod = g1
        minus_one = self.field.neg(1)
        for i in range(1, ell):
            prod = prod * self._as_bipoly(self.Q[ell - 1 - i])
            out.append((1, prod.scale(minus_one) if i % 2 else prod, ell - i))
        return out

    # -- collectors --------------------------------------------------------
    def reduce_point(self, seeds):
        """Coordinates in the σ-basis, σ-levels discarded."""
        zero = (
            RatFrac.zero(self.field) if self.rational else Poly.zero(self.field)
        )
        coords = [zero] * self.d
        for _n, a, row in self.reduce(seeds):
            coords[row] = coords[row] + a
        return coords

    def rho_t_entries(self):
        """The τ-terms of ρ_t: per block ℓ, the list of (row, n, c) with
        c·τ^n in its top column j = w_ℓ-1, summed per (row, n), zeros
        dropped.

        t·(t-θ)^j m_ℓ = θ·(t-θ)^j m_ℓ + (t-θ)^{j+1} m_ℓ, so the rest of
        ρ_t is θ·I plus the in-block shift ν_{(ℓ,j)} → ν_{(ℓ,j+1)}.
        Only in the top column does (t-θ)^{w_ℓ} leave the σ-basis; its
        first split telescopes it whole, so every n is >= 1.
        """
        blocks = []
        for ell, w in enumerate(self.weights, 1):
            f = BiPoly.t_minus_theta(self.field, self.rational) ** w
            slot = {}
            for n, a, row in self.reduce([(0, f, ell)]):
                slot[row, n] = slot[row, n] + a if (row, n) in slot else a
            blocks.append(
                [(row, n, a) for (row, n), a in slot.items() if not a.is_zero()]
            )
        return blocks

    # -- distinguished points ---------------------------------------------
    def point_v_seeds(self):
        """Seeds for the twisted top-block generator Q_r^{(-1)}(t-θ)^{s_r}m_r.

        Pre-telescoped by hand: the (t-θ)^{s_r} factor is exactly the
        diagonal entry of block r, so the seeds sit at σ-level 1.
        """
        seeds = [(1, self._as_bipoly(self.Q[-1]), self.r)]
        prod = self._as_bipoly(self.Q[-1])
        minus_one = self.field.neg(1)
        for i in range(1, self.r):
            prod = prod * self._as_bipoly(self.Q[self.r - 1 - i])
            seeds.append((1, prod.scale(minus_one) if i % 2 else prod, self.r - i))
        return seeds

    def point_u_seeds(self):
        """Seeds for H_{w-1}^{(-1)}(t-θ)^w m_1 (the depth-collapsed point)."""
        cache = cache_for(self.field)
        h = cache.anderson_thakur(self.weights[0] - 1)
        if self.rational:
            h = BiPoly(
                self.field,
                [RatFrac.from_poly(c) for c in h.coeffs],
                True,
            )
        return [(1, h, 1)]

    def special_point_v(self):
        return self.reduce_point(self.point_v_seeds())

    def _as_bipoly(self, qpoly) -> BiPoly:
        if isinstance(qpoly, BiPoly):
            if qpoly.rational == self.rational:
                return qpoly
            if self.rational and not qpoly.rational:
                return BiPoly(
                    self.field,
                    [RatFrac.from_poly(c) for c in qpoly.coeffs],
                    True,
                )
            raise ValueError("rational attached polynomial in integral motive")
        raise TypeError("attached polynomial must be a BiPoly")
