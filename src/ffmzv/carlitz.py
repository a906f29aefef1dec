"""Carlitz-module combinatorics over A = F_q[θ].

Everything downstream is built out of a handful of classical quantities:

* brackets [l] = θ^{q^l} - θ and the products D_i, L_i built from them,
* the Carlitz factorial Γ_{n+1} = Π D_i^{n_i} over the base-q digits of n,
* the degree-indexed polynomials H_n in A[t] defined through the
  generating identity (1 - Σ_i G_i(θ)/D_i(t) x^{q^i})^{-1}
  = Σ_n H_n/Γ_{n+1}(t) x^n,  with G_i(θ) = Π_{j=1..i} (t^{q^i} - θ^{q^j}),
* the Bernoulli-style coefficients BC(n) from the series z/exp_C(z).

All of it is cached per field in a `CarlitzCache`.  H_n is filled
ascending by the division-free recursion
H_n = Σ_{q^i ≤ n} G_i(θ,t)·H_{n-q^i}·B_{n,i}(t), where the Carlitz
binomial coefficient B_{n,i} = Γ_{n+1}/(D_i·Γ_{n+1-q^i}) is a polynomial
(the Carlitz factorial is the Bhargava factorial of F_q[T]).  That
integrality is checked by an exact division of B_{n,i}, not assumed,
and no fraction in t is ever formed.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .fields import FieldSpec, field_for_q
from .poly import BiPoly, Poly, RatFrac

CACHE_DIR_ENV = "CARLITZ_CACHE_DIR"


def base_q_digits(n: int, q: int):
    """Digits of n in base q, least significant first (empty for 0)."""
    out = []
    while n:
        out.append(n % q)
        n //= q
    return out


def theta_major(b: BiPoly):
    """View an integral BiPoly as a polynomial in θ with F_q[t]
    coefficients: returns [c_0(t), c_1(t), ...] for b = Σ c_i(t) θ^i."""
    if b.rational:
        raise ValueError("θ-major view needs integral coefficients")
    dth = b.theta_degree()
    F = b.field
    return [
        Poly(F, [c[i] for c in b.coeffs], var="t") for i in range(dth + 1)
    ]


def from_theta_major(field: FieldSpec, tcoeffs):
    """Inverse of `theta_major`."""
    dt = max((c.degree for c in tcoeffs), default=-1)
    rows = []
    for j in range(dt + 1):
        rows.append(Poly(field, [c[j] for c in tcoeffs]))
    return BiPoly(field, rows)


class CarlitzCache:
    """Memoized Carlitz quantities for a fixed F_q."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.q = field.q
        self._bracket = {}
        self._big_d = {0: Poly.one(field)}
        self._big_l = {0: Poly.one(field)}
        self._g = {}
        self._h = self._trivial_h()
        self._bc = {}
        self._disk_loaded = False

    # -- brackets and factorials ------------------------------------------
    def bracket(self, l: int) -> Poly:
        """[l] = θ^{q^l} - θ."""
        if l < 1:
            raise ValueError("bracket index must be >= 1")
        if l not in self._bracket:
            F = self.field
            th = Poly.gen(F)
            self._bracket[l] = th.twist(l) - th
        return self._bracket[l]

    def big_d(self, i: int) -> Poly:
        """D_i = Π_{j<i} (θ^{q^i} - θ^{q^j}) = [i]·D_{i-1}^q."""
        if i not in self._big_d:
            self._big_d[i] = self.bracket(i) * self.big_d(i - 1).twist(1)
        return self._big_d[i]

    def big_l(self, i: int) -> Poly:
        """L_i = (θ - θ^q)···(θ - θ^{q^i})."""
        if i not in self._big_l:
            self._big_l[i] = self.big_l(i - 1) * (-self.bracket(i))
        return self._big_l[i]

    def gamma(self, n: int) -> Poly:
        """Carlitz factorial Γ_n (n >= 1), via the digits of n-1."""
        if n < 1:
            raise ValueError("Γ_n needs n >= 1")
        out = Poly.one(self.field)
        for i, d in enumerate(base_q_digits(n - 1, self.q)):
            if d:
                out = out * self.big_d(i) ** d
        return out

    def gamma_exponents(self, n: int):
        """Γ_n as a factored map {i: exponent of D_i}."""
        return {
            i: d for i, d in enumerate(base_q_digits(n - 1, self.q)) if d
        }

    def gamma_ratio(self, s: int) -> Poly:
        """Γ_{s+1}/Γ_s, which is always a polynomial (the negative D_i
        exponents from the base-q carry chain divide out exactly)."""
        return self._d_ratio(
            self.gamma_exponents(s + 1), self.gamma_exponents(s)
        )

    def binomial(self, n: int, i: int) -> Poly:
        """The Carlitz binomial coefficient B_{n,i} = Γ_{n+1}/(D_i·Γ_{n+1-q^i})
        for q^i <= n: 1 when digit i of n is nonzero, otherwise
        D_k/(D_i^q·Π_{i<j<k} D_j^{q-1}) for the next nonzero digit k."""
        lo = self.gamma_exponents(n + 1 - self.q ** i)
        lo[i] = lo.get(i, 0) + 1
        return self._d_ratio(self.gamma_exponents(n + 1), lo)

    def _d_ratio(self, hi, lo) -> Poly:
        """Π D_i^{hi_i - lo_i} for exponent maps hi, lo, by an exact
        division that raises on a nonzero remainder."""
        num = Poly.one(self.field)
        den = Poly.one(self.field)
        for i in set(hi) | set(lo):
            e = hi.get(i, 0) - lo.get(i, 0)
            if e > 0:
                num = num * self.big_d(i) ** e
            elif e < 0:
                den = den * self.big_d(i) ** (-e)
        return num.exact_div(den)

    # -- the H_n family ----------------------------------------------------
    def g_poly(self, i: int) -> BiPoly:
        """G_i(θ) = Π_{j=1..i} (t^{q^i} - θ^{q^j}) in F_q[t,θ]."""
        if i not in self._g:
            F = self.field
            qi = self.q ** i
            out = BiPoly.one(F)
            for j in range(1, i + 1):
                factor = BiPoly(
                    F, [-Poly.gen(F).twist(j)] + [Poly.zero(F)] * (qi - 1) + [Poly.one(F)]
                )
                out = out * factor
            self._g[i] = out
        return self._g[i]

    def anderson_thakur(self, n: int) -> BiPoly:
        """H_n in A[t]: H_n = 1 for 0 <= n <= q-1, and in general the
        coefficient of x^n in the generating identity times Γ_{n+1}(t).
        One call fills and saves every missing H_m, m <= n."""
        if n < 0:
            raise ValueError("H_n needs n >= 0")
        self._load_disk_cache()
        if n not in self._h:
            self._derive_h(self._h, n)
            self._save_disk_cache()
        return self._h[n]

    def _trivial_h(self):
        """H_0..H_{q-1} = 1, the start of every fill."""
        one = BiPoly.one(self.field)
        return {m: one for m in range(self.q)}

    def _derive_h(self, h, n: int):
        """Extend the memo h, which holds H_0..H_{q-1} = 1, to H_0..H_n.

        Ascending in m, H_m = Σ_{q^i ≤ m} G_i(θ,t)·H_{m-q^i}·B_{m,i}(t):
        the generating identity multiplied through by Γ_{m+1}(t).  Every
        term is a polynomial product; `binomial` checks by an exact
        division that B_{m,i} is a polynomial."""
        F = self.field
        q = self.q
        for m in range(q, n + 1):
            if m in h:
                continue
            acc = BiPoly.zero(F)
            i = 0
            while q ** i <= m:
                term = self.g_poly(i) * h[m - q ** i]
                b = self.binomial(m, i)
                if not b.is_one():
                    term = term.coeff_mul_t(b.with_var("t"))
                acc = acc + term
                i += 1
            assert acc.theta_degree() * (q - 1) <= m * q, (
                "H_n degree bound violated"
            )
            h[m] = acc

    # -- optional on-disk cache for the H_n family -------------------------
    def _cache_path(self):
        root = os.environ.get(CACHE_DIR_ENV)
        if not root:
            return None
        F = self.field
        tag = "-".join(str(c) for c in F.modulus)
        return Path(root) / f"at_h_p{F.p}_e{F.e}_m{tag}.json"

    def _load_disk_cache(self):
        if self._disk_loaded:
            return
        self._disk_loaded = True
        path = self._cache_path()
        if path is None or not path.exists():
            return
        try:
            raw = json.loads(path.read_text())
            if not isinstance(raw, dict):
                raise ValueError("not a JSON object")
            loaded = {}
            for key, tmajor in raw.items():
                n = int(key)
                if any(c not in range(self.q) for col in tmajor for c in col):
                    raise ValueError("coefficient code outside range(q)")
                h = from_theta_major(
                    self.field,
                    [Poly(self.field, c, var="t") for c in tmajor],
                )
                if h.theta_degree() * (self.q - 1) > n * self.q:
                    raise ValueError("degree bound violated")
                if n < self.q and h != self._h[n]:
                    raise ValueError("H_n = 1 for n < q")
                loaded[n] = h
            # corruption spot check: re-derive one nontrivial entry from
            # H_0..H_{q-1} = 1 alone, without touching the file
            probe = min((n for n in loaded if n >= self.q), default=None)
            if probe is not None:
                derived = self._trivial_h()
                self._derive_h(derived, probe)
                if derived[probe] != loaded[probe]:
                    raise ValueError("cache disagrees with re-derivation")
                self._h.update(derived)
            self._h.update(loaded)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            try:
                path.unlink()
            except OSError:
                pass

    def _save_disk_cache(self):
        path = self._cache_path()
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = {
                str(n): [list(c.coeffs) for c in theta_major(h)]
                for n, h in self._h.items()
            }
            # a private temp file per writer, so parallel workers never
            # interleave their writes; the rename is atomic
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(payload))
                os.replace(tmp, path)
            except OSError:
                os.unlink(tmp)
                raise
        except OSError:
            pass

    # -- Bernoulli-Carlitz -------------------------------------------------
    def bernoulli_carlitz(self, n: int) -> RatFrac:
        """BC(n): coefficient of z^n in z/exp_C(z), times Γ_{n+1}.

        Zero whenever n > 0 and (q-1) does not divide n.
        """
        if n < 0:
            raise ValueError("BC(n) needs n >= 0")
        if n == 0:
            return RatFrac.one(self.field)
        if n % (self.q - 1) != 0 and self.q > 2:
            return RatFrac.zero(self.field)
        if n not in self._bc:
            g = self._series_z_over_exp(n)
            self._bc[n] = g[n] * RatFrac.from_poly(self.gamma(n + 1))
        return self._bc[n]

    def _series_z_over_exp(self, order: int):
        """Coefficients g_0..g_order of z/exp_C(z) = (Σ z^{q^i-1}/D_i)^{-1}."""
        F = self.field
        support = {}
        i = 0
        while self.q ** i - 1 <= order:
            support[self.q ** i - 1] = RatFrac(
                Poly.one(F), self.big_d(i), reduce=False
            )
            i += 1
        g = [RatFrac.zero(F)] * (order + 1)
        g[0] = RatFrac.one(F)
        for m in range(1, order + 1):
            acc = RatFrac.zero(F)
            for j, fj in support.items():
                if 0 < j <= m:
                    t = g[m - j]
                    if not t.is_zero():
                        acc = acc + fj * t
            g[m] = -acc
        return g

    def bc_denominator(self, n: int) -> Poly:
        """Monic denominator of BC(n); the unit polynomial when BC(n)=0."""
        bc = self.bernoulli_carlitz(n)
        if bc.is_zero():
            return Poly.one(self.field)
        return bc.den


_caches = {}


def cache_for(field: FieldSpec) -> CarlitzCache:
    if field not in _caches:
        _caches[field] = CarlitzCache(field)
    return _caches[field]


def cache_for_q(q: int) -> CarlitzCache:
    return cache_for(field_for_q(q))
