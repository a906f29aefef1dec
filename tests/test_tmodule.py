import hashlib
import random
import signal

import pytest

from ffmzv import fpx
from ffmzv.cli import enumerate_tuples
from ffmzv.criterion import annihilator_mzv
from ffmzv.fields import field_for_q
from ffmzv.motive import Motive
from ffmzv.poly import BiPoly, Poly, RatFrac, packed_ring
from ffmzv.tmodule import (
    ProbeDomain,
    TModule,
    _horner,
    _probe_tables,
    _RowLoop,
    carlitz_tensor_module,
)


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


def _convert(dom, c):
    """One coordinate in dom: `convert_all` of a list of one."""
    return dom.convert_all([c])[0]


class _ProbeRows:
    """The probe's element operations, its ring's own (`dom.ring`), plus
    the θ-step θ·x + y by one product, which the probe itself runs on
    whole points only: the row loop's domain and the sparse-row
    reference's."""

    def __init__(self, dom):
        ring = self.ring = dom.ring
        self.is_zero = dom.is_zero
        self.add, self.mul, self.frob = ring.add, ring.mul, ring.frob
        self.theta = _convert(dom, Poly.gen(dom.field))

    def zero(self):
        return self.ring.zero

    def scalar(self, c):
        return self.ring.elements([[c]])[0]

    def theta_step(self, x, y):
        return self.add(self.mul(self.theta, x), y)


def _elements(dom):
    """The element operations of a domain: the probe's through its
    ring, every other domain's its own."""
    return _ProbeRows(dom) if isinstance(dom, ProbeDomain) else dom


def _frobdiff_rounds(tm, vec, h, ell, dom):
    """(t^{q^h} - t)^{p^ℓ} applied as p^ℓ rounds of ρ_t^{q^h} - ρ_t: the
    reference for its closed form t^{q^h·p^ℓ} - t^{p^ℓ}."""
    ops = _elements(dom)
    minus_one = ops.scalar(tm.field.neg(1))
    cur = vec
    for _ in range(tm.field.p ** ell):
        w1 = tm.apply_t(cur, dom)
        wq = w1
        for _ in range(tm.field.q ** h - 1):
            wq = tm.apply_t(wq, dom)
        cur = [ops.add(a, ops.mul(minus_one, b)) for a, b in zip(wq, w1)]
    return cur


# (q, h, ℓ, domain) with q^h·p^ℓ <= 81 applications of ρ_t
_FROBDIFF_CASES = [
    (q, h, ell, dom)
    for dom, qs in (
        ("exact", (2, 3, 4, 9)), ("probe", (2, 3, 5)), ("packed", (2, 3, 5)),
    )
    for q in qs
    for h in (1, 2)
    for ell in (0, 1, 2)
    if q ** h * field_for_q(q).p ** ell <= 81
]


@pytest.mark.parametrize("q,h,ell,dom_name", _FROBDIFF_CASES)
def test_closed_form_factor_matches_frobenius_difference_rounds(
    q, h, ell, dom_name
):
    """ρ of t^{q^h·p^ℓ} - t^{p^ℓ}, by Horner, equals p^ℓ rounds of
    ρ_t^{q^h} - ρ_t on a random point of [t]_n, n the number of ρ_t
    steps, so that θ-degrees grow q-fold about once.  At q = 9 the -1
    is the code 2."""
    F = field_for_q(q)
    low = F.p ** ell
    steps = q ** h * low
    tm = carlitz_tensor_module(F, steps)
    if dom_name == "exact":
        dom = tm.exact
    elif dom_name == "probe":
        dom = ProbeDomain(F, 21, 0)
    else:
        dom = packed_ring(F.p)
    rng = random.Random(repr((q, h, ell)))
    v = dom.convert_all(_random_point(F, tm.d, rng))
    assert not tm.is_zero_point(v, dom)
    t = Poly.gen(F, "t")
    closed = t ** steps - t ** low
    assert closed == (t ** (q ** h) - t) ** low
    assert tm.apply_poly(v, closed, dom) == _frobdiff_rounds(tm, v, h, ell, dom)


def test_apply_annihilator_early_exit_order_independent():
    F = field_for_q(3)
    motive = Motive(F, (2, 4))
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    # (t³ - t)³ = t⁹ - t³, and t³ - t
    factors = [
        Poly(F, [0, 0, 0, 2, 0, 0, 0, 0, 0, 1], var="t"),
        Poly(F, [0, 2, 0, 1], var="t"),
    ]
    a = tm.apply_annihilator(v, factors)
    b = tm.apply_annihilator(v, list(reversed(factors)))
    assert tm.is_zero_point(a) == tm.is_zero_point(b)


# -- the modular probe -------------------------------------------------------

def test_probe_requires_prime_field():
    with pytest.raises(ValueError):
        ProbeDomain(field_for_q(4), 21)


def test_probe_requires_byte_digits():
    """A digit of F_257 does not fit a byte: no probe, exact path only."""
    with pytest.raises(ValueError):
        ProbeDomain(field_for_q(257), 21)


@pytest.mark.parametrize("deg", [0, -2])
def test_probe_degree_below_one_raises(deg):
    """A probe of degree < 1 raises `ValueError` before the modulus
    search, which would draw the constant 1 forever (`fpx.is_irreducible`
    rejects it); an alarm stops a search that does not end."""

    def hang(signum, frame):
        raise TimeoutError(f"no probe of degree {deg} after 5 s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="degree"):
            ProbeDomain(field_for_q(3), deg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_probe_is_ring_homomorphism():
    F = field_for_q(3)
    dom = ProbeDomain(F, deg=7, seed=1)
    ring = dom.ring
    th = Poly.gen(F)
    a = th ** 2 + Poly.one(F)
    b = th ** 3 + th.scale(2)
    x, y, prod, total = dom.convert_all([a, b, a * b, a + b])
    assert prod == ring.mul(x, y)
    assert total == ring.add(x, y)


def test_probe_commutes_with_frobenius():
    F = field_for_q(3)
    dom = ProbeDomain(F, deg=7, seed=0)
    th = Poly.gen(F)
    a = th ** 2 + th + Poly.one(F)
    x, twisted = dom.convert_all([a, a.twist(1)])
    assert twisted == dom.ring.frob(x, 1)


def test_probe_agrees_with_exact_on_torsion():
    F = field_for_q(3)
    motive = Motive(F, (2, 4))
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    # (t³ - t)³ = t⁹ - t³, and t³ - t
    factors = [
        Poly(F, [0, 0, 0, 2, 0, 0, 0, 0, 0, 1], var="t"),
        Poly(F, [0, 2, 0, 1], var="t"),
    ]
    dom = ProbeDomain(F, deg=11, seed=0)
    out = tm.apply_annihilator(v, factors, dom)
    assert tm.is_zero_point(out, dom)


def test_probe_detects_nontorsion():
    F = field_for_q(3)
    motive = Motive(F, (4, 2))
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    # (t³ - t)³ = t⁹ - t³, and t³ - t
    factors = [
        Poly(F, [0, 0, 0, 2, 0, 0, 0, 0, 0, 1], var="t"),
        Poly(F, [0, 2, 0, 1], var="t"),
    ]
    dom = ProbeDomain(F, deg=21, seed=0)
    out = tm.apply_annihilator(v, factors, dom)
    assert not tm.is_zero_point(out, dom)


def test_probe_tables_built_once_per_key():
    F = field_for_q(3)
    a, b = ProbeDomain(F, 21, 0), ProbeDomain(F, 21, 0)
    assert a.modulus is b.modulus
    assert a.ring is b.ring


def _schoolbook_mul(a, b, p):
    """The product of two digit lists, len(a) + len(b) - 1 digits."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _schoolbook_mod(a, m, p):
    """a mod monic m, one top digit at a time, as deg m digits."""
    a, n = list(a), len(m) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        for j in range(n + 1):
            a[i - n + j] = (a[i - n + j] - c * m[j]) % p
    return (a + [0] * n)[:n]


# at degree 21 a slot is one byte for p = 2, 3, two bytes for p = 5, 7,
# 11 (one round of the byte-sliced reduction), and three for p = 131 (two
# rounds) and 251 (three rounds); at degree 1 a slot of p = 131, 251 is
# two bytes (two rounds), so the all-(p-1) element meets every slot
# width and round count of the probe
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("deg", [1, 2, 7, 21])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 131, 251])
def test_probe_arithmetic_matches_schoolbook(p, deg, seed):
    """Every probe operation against schoolbook F_p[x] arithmetic mod
    the probe modulus, on random elements and on the all-(p-1) element,
    whose products fill the packed slots the most.  The θ-step is no
    element operation of the probe: it runs on a whole packed point
    (`test_packed_point_matches_row_reference`)."""
    F = field_for_q(p)
    dom = ProbeDomain(F, deg, seed)
    ring = dom.ring
    m = list(dom.modulus)

    def ref_mul(a, b):
        return _schoolbook_mod(_schoolbook_mul(a, b, p), m, p)

    def ref_pow(a, e):
        acc, base = [1], a
        while e:
            if e & 1:
                acc = ref_mul(acc, base)
            base = ref_mul(base, base)
            e >>= 1
        return acc

    rng = random.Random(1000 * p + deg)
    elements = [[p - 1] * deg]
    elements += [[rng.randrange(p) for _ in range(deg)] for _ in range(3)]
    for a in elements:
        x = bytes(a)
        assert list(ring.neg(x)) == [(-c) % p for c in a]
        for b in elements:
            y = bytes(b)
            assert list(ring.mul(x, y)) == ref_mul(a, b)
            assert list(ring.add(x, y)) == [(c + d) % p for c, d in zip(a, b)]
        power = a
        for n in range(4):
            assert list(ring.frob(x, n)) == power, n
            power = ref_pow(power, p)
    for c in range(p):
        assert list(ring.elements([[c]])[0]) == [c] + [0] * (deg - 1)
    for coeffs in ([rng.randrange(p) for _ in range(3 * deg + 2)] + [1],
                   [p - 1] * (3 * deg + 3)):
        horner = [0] * deg
        for c in reversed(coeffs):
            horner = ref_mul(horner, [0, 1])
            horner = _schoolbook_mod([(horner[0] + c) % p] + horner[1:], m, p)
        assert list(_convert(dom, Poly(F, coeffs))) == horner


@pytest.mark.parametrize("deg", [2, 21])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 131, 251])
def test_probe_convert_matches_mod(p, deg):
    """A coordinate of length 0 to 300, converted in deg-digit chunks,
    equals its schoolbook residue, on all-(p-1) and random digits."""
    F = field_for_q(p)
    dom = ProbeDomain(F, deg, 0)
    m = list(dom.modulus)
    rng = random.Random(p + deg)
    for n in range(301):
        for coeffs in ([p - 1] * n, [rng.randrange(p) for _ in range(n)]):
            want = _schoolbook_mod(coeffs, m, p)
            assert list(_convert(dom, Poly(F, coeffs))) == want, n


@pytest.mark.parametrize("make", [
    pytest.param(lambda F: packed_ring(F.p), id="packed-exact"),
])
@pytest.mark.parametrize("c", [-1, 3, 5])
def test_scalar_needs_an_element_code(make, c):
    """A packed domain reads an int scalar as an element code in
    range(p), never mod p: -1 and 5 are not the digit 2 at p=3."""
    F = field_for_q(3)
    dom = make(F)
    with pytest.raises(ValueError, match="range"):
        dom.scalar(c)
    assert dom.scalar(2) == _convert(dom, Poly.const(F, 2))


# a product of two 300-digit elements sums up to 300 products of two
# digits per slot: two bytes or more at every p below, and the sum of
# two all-(p-1) elements needs two-byte slots from p = 131
_LONG = 300


@pytest.mark.parametrize("p", [2, 3, 5, 7, 131, 251])
def test_packed_exact_arithmetic_matches_poly(p):
    """Every operation of the packed exact domain equals the `Poly`
    operation (and a product the schoolbook one), on elements of
    length 0 to 300 including the all-(p-1) ones, whose sums and
    products fill the packed slots the most."""
    assert fpx.slot_width(_LONG * (p - 1) ** 2) >= 2
    F = field_for_q(p)
    dom = packed_ring(F.p)
    rng = random.Random(p)
    polys = [Poly.zero(F), Poly.one(F)]
    polys += [Poly(F, [p - 1] * n) for n in (1, 7, _LONG)]
    polys += [
        Poly(F, [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)])
        for n in (1, 5, 40, _LONG - 1)
    ]
    for a in polys:
        x = _convert(dom, a)
        assert x == bytes(a.coeffs) and Poly(F, x) == a
        assert dom.is_zero(x) == a.is_zero()
        assert dom.neg(x) == _convert(dom, -a)
        assert dom.add(x, dom.neg(x)) == dom.zero()
        # θ·a + b whose top digit cancels
        assert dom.theta_step(x, _convert(dom, -a.shift(1))) == dom.zero()
        for n in range(3 if p < 10 else 2):
            assert dom.frob(x, n) == _convert(dom, a.twist(n)), n
        for b in polys:
            y = _convert(dom, b)
            assert dom.add(x, y) == _convert(dom, a + b)
            assert dom.theta_step(x, y) == _convert(dom, a.shift(1) + b)
            product = dom.mul(x, y)
            assert product == _convert(dom, a * b)
            if a and b:
                assert list(product) == _schoolbook_mul(a.coeffs, b.coeffs, p)
    for c in range(p):
        assert dom.scalar(c) == _convert(dom, Poly.const(F, c))
    # the square of the all-(p-1) element of n digits sums n products
    # (p-1)^2 in its middle digit: at both sides of every length where
    # the product slot widens, each slot width and round count of the
    # byte-sliced reduction up to _LONG digits meets its worst case
    edges = [
        n for n in range(2, _LONG + 1)
        if fpx.slot_width(n * (p - 1) ** 2)
        > fpx.slot_width((n - 1) * (p - 1) ** 2)
    ]
    for n in {2, _LONG} | {e - 1 for e in edges} | set(edges):
        x = bytes([p - 1] * n)
        assert list(dom.mul(x, x)) == _schoolbook_mul(x, x, p), n


@pytest.mark.parametrize("q,s", [
    (2, (1, 1, 2)), (2, (2, 3, 4)), (2, (3, 5, 7)), (3, (2, 4, 6)),
    (3, (6, 20)), (3, (10, 12)), (5, (4, 8, 12)), (7, (6, 12)),
])
def test_packed_residual_equals_poly_residual(q, s):
    """The annihilator's residual on the multizeta point, computed on
    packed digits, converts back to the `Poly` path's residual exactly:
    zero on the torsion points (1,1,2) and (6,20), nonzero, up to 1251
    digits, on the others."""
    F = field_for_q(q)
    motive = Motive(F, s)
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    factors = annihilator_mzv(F, s).factors
    dom = packed_ring(F.p)
    packed = tm.apply_annihilator(v, factors, dom)
    exact = tm.apply_annihilator(v, factors)
    assert [Poly(F, x) for x in packed] == exact
    assert packed == [bytes(c.coeffs) for c in exact]
    assert tm.is_zero_point(packed, dom) == (s in ((1, 1, 2), (6, 20)))


@pytest.mark.parametrize("p,seed,modulus", [
    (2, 0, (1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1)),
    (2, 1, (1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1)),
    (3, 0, (2, 0, 0, 1, 0, 1, 2, 0, 1, 2, 1, 2, 2, 0, 0, 1, 1, 1, 1, 0, 1, 1)),
    (3, 1, (2, 0, 1, 0, 2, 0, 1, 1, 0, 1, 2, 2, 0, 0, 2, 2, 1, 0, 2, 1, 2, 1)),
    (5, 0, (1, 1, 1, 0, 4, 2, 3, 0, 0, 1, 1, 0, 0, 4, 3, 4, 2, 4, 1, 1, 4, 1)),
    (5, 1, (3, 0, 3, 2, 1, 2, 3, 0, 3, 4, 0, 0, 2, 4, 1, 4, 1, 1, 2, 2, 3, 1)),
    (7, 0, (6, 4, 1, 5, 3, 4, 2, 3, 1, 2, 4, 5, 0, 0, 3, 2, 3, 1, 6, 3, 0, 1)),
    (7, 1, (2, 4, 1, 5, 2, 5, 5, 2, 3, 5, 2, 3, 3, 0, 0, 2, 3, 2, 3, 6, 1, 1)),
])
def test_probe_modulus_is_pinned(p, seed, modulus):
    """The seeded search draws the same modulus as before the tables
    were memoized and before the irreducibility test changed, so a
    probe seed names the same field."""
    assert ProbeDomain(field_for_q(p), 21, seed).modulus == modulus


@pytest.mark.parametrize("p,bound", [(3, 150), (7, 1400)])
def test_probe_setup_mul_count(monkeypatch, p, bound):
    """Building the degree-21 probe tables for seed 0 makes at most
    `bound` packed products: each of the draws with a nonzero constant
    term takes the packed root test
    (round 1 of Ben-Or's test), and the survivors' later rounds run on
    packed products, with one gcd after round 3 and one after round 10.
    The counts are pinned: 13 root tests, 6 gcds and 55 packed products
    at p = 3, and 102, 42 and 714 at p = 7.  Before the root test and
    the packed rounds this took 116 schoolbook products at p = 3 and
    1086 at p = 7, and one gcd per round.  Counts, not times, so the
    guard is deterministic."""
    calls = {"_has_root": 0, "gcd": 0, "mul_rows": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("_has_root", "gcd"):
        counted(fpx, name)
    counted(fpx.PackedQuotient, "mul_rows")
    _probe_tables.cache_clear()
    _probe_tables(p, 21, 0)
    roots, gcds, products = {3: (13, 6, 55), 7: (102, 42, 714)}[p]
    assert calls == {"_has_root": roots, "gcd": gcds, "mul_rows": products}
    assert products <= bound


def test_carlitz_module_shape():
    F = field_for_q(3)
    tm = carlitz_tensor_module(F, 3)
    th = Poly.gen(F)
    assert tm.entry(0, 0) == {0: th}
    assert tm.entry(0, 1) == {0: Poly.one(F)}
    assert tm.entry(2, 0) == {1: Poly.one(F)}
    assert tm.entry(2, 1) == {}


def test_render_matches_golden_layout():
    F = field_for_q(3)
    tm = TModule.from_motive(Motive(F, (2, 4)))
    text = tm.render()
    lines = text.splitlines()
    assert len(lines) == 10
    assert lines[5].split() == ["τ", "0", "0", "0", "0", "θ", "2τ", "0", "0", "0"]


# -- the stored shape of ρ_t -------------------------------------------------

_SHAPE_FIELDS = [(3, 26), (2, 8), (4, 20), (9, 24)]


@pytest.mark.parametrize("q,wmax", _SHAPE_FIELDS)
def test_shape_round_trip(q, wmax):
    """Every motive of the field reads into θ·I + shift + top columns:
    `entry` gives θ on the diagonal, 1 on the in-block shift, the
    τ-terms of `rho_t_entries` (all at n >= 1) in each block's top
    column, and nothing else."""
    F = field_for_q(q)
    for s in enumerate_tuples(q, wmax, 3, False):
        motive = Motive(F, s)
        blocks = motive.rho_t_entries()
        tm = TModule.from_motive(motive)
        assert tm.d == motive.d and len(blocks) == motive.r, s
        th, one = Poly.gen(F), Poly.one(F)
        expected = {}
        start = 0
        for w, terms in zip(motive.weights, blocks):
            for k in range(w):
                expected[start + k, start + k] = {0: th}
                if k:
                    expected[start + k - 1, start + k] = {0: one}
            for row, n, c in terms:
                assert n >= 1 and not c.is_zero(), (s, row, n)
                expected.setdefault((row, start), {})[n] = c
            start += w
        for i in range(tm.d):
            for j in range(tm.d):
                assert tm.entry(i, j) == expected.get((i, j), {}), (s, i, j)


def test_render_is_pinned():
    """The `ffmzv tmodule` layout of every motive of q=3 w≤26, q=2 w≤8,
    q=4 w≤20, q=9 w≤24 and q=5 w≤24 (depth ≤ 3), then of the q=3
    polylog motive (2, 4) with Q = [1/θ, θ/(θ+1)], hashed in that
    order."""
    h = hashlib.sha256()
    for q, wmax in [(3, 26), (2, 8), (4, 20), (9, 24), (5, 24)]:
        F = field_for_q(q)
        for s in enumerate_tuples(q, wmax, 3, False):
            h.update(TModule.from_motive(Motive(F, s)).render().encode())
    F = field_for_q(3)
    one, th = Poly.one(F), Poly.gen(F)
    Q = [
        BiPoly(F, [RatFrac(one, th)], rational=True),
        BiPoly(F, [RatFrac(th, th + one)], rational=True),
    ]
    polylog = Motive(F, (2, 4), Q=Q)
    h.update(TModule.from_motive(polylog).render().encode())
    assert h.hexdigest() == (
        "cb79097c9027bd6c3817ccc3f70f67691058b7953151a11a7ae3fb88eea771d0"
    )


# -- the structured apply against the generic sparse-row operator ------------

def _sparse_rows(entry, d, dom):
    """ρ_t as generic sparse rows: row i lists (col, [(n, c), ...]) for
    every nonzero entry(i, col) = {n: c}."""
    rows = [[] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            slot = entry(i, j)
            if slot:
                rows[i].append(
                    (j, [(n, _convert(dom, c)) for n, c in sorted(slot.items())])
                )
    return rows


def _reference_apply_t(rows, vec, dom):
    """Every entry of ρ_t as a τ-polynomial, every term a full product,
    by the domain's element operations (`_elements`)."""
    ops = _elements(dom)
    out = []
    for row in rows:
        acc = ops.zero()
        for j, terms in row:
            x = vec[j]
            if ops.is_zero(x):
                continue
            for n, c in terms:
                acc = ops.add(acc, ops.mul(c, ops.frob(x, n)))
        out.append(acc)
    return out


def _reference_apply_poly(rows, vec, a, dom):
    ops = _elements(dom)
    acc = [ops.zero()] * len(vec)
    for c in reversed(a.coeffs if a.coeffs else (0,)):
        acc = _reference_apply_t(rows, acc, dom)
        cs = ops.scalar(c)
        acc = [ops.add(x, ops.mul(cs, y)) for x, y in zip(acc, vec)]
    return acc


def _carlitz_entries(F, n):
    """[t]_n as an entry dict, built by hand."""
    entries = {(i, i): {0: Poly.gen(F)} for i in range(n)}
    entries.update(((i, i + 1), {0: Poly.one(F)}) for i in range(n - 1))
    entries.setdefault((n - 1, 0), {})[1] = Poly.one(F)
    return entries


def _random_point(F, d, rng):
    """Coordinates of θ-degree < 5, about a third of them zero."""
    return [
        Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(5))])
        if rng.random() > 0.3 else Poly.zero(F)
        for _ in range(d)
    ]


# (5, 1) at p=2 and (10, 1) at p=3 have a top column with τ-terms at two
# σ-levels
_MODULES = [
    (p, s) for p in (2, 3, 5, 7) for s in ((3,), (2, 3), (1, 2, 2))
] + [(2, (5, 1)), (3, (10, 1))] + [
    (p, ("carlitz", n)) for p in (2, 3, 5, 7) for n in (1, 2, 4)
]


def _module(p, s):
    F = field_for_q(p)
    if s[0] == "carlitz":
        entries = _carlitz_entries(F, s[1])
        return (
            F,
            carlitz_tensor_module(F, s[1]),
            lambda i, j: entries.get((i, j), {}),
        )
    tm = TModule.from_motive(Motive(F, s))
    return F, tm, tm.entry


@pytest.mark.parametrize("p,s", _MODULES)
def test_apply_matches_sparse_rows(p, s):
    """apply_t and apply_poly equal the generic sparse-row operator
    exactly, in `Poly` arithmetic, in the probe and on packed exact
    digits."""
    F, tm, entry = _module(p, s)
    rng = random.Random(repr((p, s)))
    for dom in (tm.exact, ProbeDomain(F, 21, 0), packed_ring(F.p)):
        rows = _sparse_rows(entry, tm.d, dom)
        for _ in range(5):
            x = dom.convert_all(_random_point(F, tm.d, rng))
            a = Poly(F, [rng.randrange(p) for _ in range(4)], var="t")
            assert tm.apply_t(x, dom) == _reference_apply_t(rows, x, dom)
            assert tm.apply_poly(x, a, dom) == _reference_apply_poly(
                rows, x, a, dom
            )


@pytest.mark.parametrize("q", [4, 9])
def test_apply_poly_matches_sparse_rows_on_extension_fields(q):
    """Every element code as a coefficient of a, in `Poly` arithmetic:
    the code of -1 is 1 at q = 4 and 2 at q = 9, not q - 1, and every
    code other than 0 and 1 is a scalar product."""
    F = field_for_q(q)
    motive = Motive(F, (q - 1,))
    tm = TModule.from_motive(motive)
    rows = _sparse_rows(tm.entry, tm.d, tm.exact)
    a = Poly(F, list(range(q)), var="t")
    x = motive.special_point_v()
    assert tm.apply_poly(x, a) == _reference_apply_poly(rows, x, a, tm.exact)


@pytest.mark.parametrize("p,s", _MODULES)
def test_probe_apply_is_image_of_exact_apply(p, s):
    """Converting into a packed domain commutes with ρ_t: converting
    ρ_t(x) equals applying ρ_t to the converted x, in the probe (θ ↦ ξ,
    a ring homomorphism) and on packed exact digits (the same ring)."""
    F, tm, _ = _module(p, s)
    for dom in (ProbeDomain(F, 21, 0), packed_ring(F.p)):
        rng = random.Random(repr((p, s)))
        for _ in range(5):
            x = _random_point(F, tm.d, rng)
            assert dom.convert_all(tm.apply_t(x)) == tm.apply_t(
                dom.convert_all(x), dom
            )


# -- the probe's packed point at its worst case ------------------------------

def _stacked_module(F, k):
    """One block of 3 rows whose middle row takes k τ-terms with the
    coefficient p-1, at the levels 21, 42, …: in F_{p^21} each is the
    identity, so every term adds (p-1) times the top coordinate itself,
    plus one term with a non-constant coefficient."""
    p = F.p
    top = [(1, 21 * j, Poly.const(F, p - 1)) for j in range(1, k + 1)]
    top.append((2, 1, Poly(F, [1, p - 1, 1])))
    return TModule(F, (3,), [top])


# (q, s or the stacked module, slot width): one-byte slots at q = 2, 3,
# 5, 7 (among them the d = 214 motive (8, 10, 62)), two bytes at q = 131
# and three at q = 251, and a stacked row whose τ-term share alone
# widens its slot from one byte to two
_PACKED_POINT_CASES = [
    (2, (1, 1, 2), 1), (2, (2, 3, 4), 1), (3, (2, 4, 6), 1),
    (3, (8, 10, 62), 1), (3, (8, 18, 54), 1), (5, (4, 8, 12), 1),
    (7, (6, 12), 1), (131, (130, 130), 2), (251, (250,), 3),
    (7, ("stacked", 6), 2),
]


@pytest.mark.parametrize("q,s,slot", _PACKED_POINT_CASES)
def test_packed_point_matches_row_reference(q, s, slot):
    """The probe's packed ρ_t and Horner equal the generic sparse-row
    operator on probe elements, digit for digit, over 30 applications,
    from the all-(p-1) point: every top digit, every block-end row and
    every τ-image of the stacked module at p-1, with Horner adding
    (p-1)·v at each step.  The first application meets each part of
    the slot bound (`ProbeDomain`) at its worst; the stacked module
    carries past a one-byte slot there, so a bound without its τ-term
    share fails."""
    F = field_for_q(q)
    p = F.p
    if s[0] == "stacked":
        tm = _stacked_module(F, s[1])
    else:
        tm = TModule.from_motive(Motive(F, s))
    dom = ProbeDomain(F, 21, 0)
    assert tm._plan(dom).slot == slot
    rows = _sparse_rows(tm.entry, tm.d, dom)
    x = [bytes([p - 1] * 21)] * tm.d
    cur = want = x
    for _ in range(30):
        cur = tm.apply_t(cur, dom)
        want = _reference_apply_t(rows, want, dom)
        assert cur == want
    a = Poly(F, [p - 1] * 30 + [1], var="t")
    assert tm.apply_poly(x, a, dom) == _reference_apply_poly(rows, x, a, dom)
    # the same point as `Poly` coordinates, which convert to x
    poly_x = [Poly(F, [p - 1] * 21)] * tm.d
    assert tm.apply_annihilator(poly_x, [a], dom) == tm.apply_poly(x, a, dom)


def _crowded_module(F, rng, digits):
    """Two blocks of 5 and 3 rows whose top columns take several
    non-constant τ-coefficients per level: block 0 at level 1 in every
    row of both blocks, row 3 twice, and beside them a constant p-1 in
    row 1; at level 2 in rows 0, 2, 4 and 7.  Block 1 takes level 1 in
    rows 5 and 0.  Coefficients are 2 to 50 digits drawn by `digits`,
    so many are longer than the probe degree."""
    p = F.p

    def coeff():
        n = rng.randrange(2, 51)
        return Poly(F, [digits() for _ in range(n - 1)] + [rng.randrange(1, p)])

    top0 = [(r, 1, coeff()) for r in range(8)] + [
        (3, 1, coeff()), (1, 1, Poly.const(F, p - 1)),
    ] + [(r, 2, coeff()) for r in (0, 2, 4, 7)]
    top1 = [(5, 1, coeff()), (0, 1, coeff())]
    return TModule(F, (5, 3), [top0, top1])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 131, 251])
def test_grouped_tau_levels_match_row_loop(p):
    """The probe's packed ρ_t, whose busiest level carries 9
    non-constant coefficients into 8 rows (one product and one grouped
    reduction per level; row 3's two terms are added in the plan),
    equals the row loop on the same converted coefficients
    over 30 applications, from the all-(p-1) point and from a random
    one, and under Horner; with all-(p-1) and with random
    coefficients."""
    F = field_for_q(p)
    dom = ProbeDomain(F, 21, 0)
    rng = random.Random(p)
    for digits in (lambda: p - 1, lambda: rng.randrange(p)):
        tm = _crowded_module(F, rng, digits)
        plan = tm._plan(dom)
        assert max(
            others[1] for _, _, levels in plan._taus
            for _, _, others in levels if others
        ) == 8
        blocks = [
            (start, start + w, [(row, n, _convert(dom, c)) for row, n, c in terms])
            for start, w, terms in zip(tm.starts, tm.weights, tm.top)
        ]
        loop = _RowLoop(_ProbeRows(dom), blocks)
        for x in ([bytes([p - 1] * 21)] * tm.d,
                  [bytes(rng.randrange(p) for _ in range(21)) for _ in range(tm.d)]):
            cur, want = plan.enter(x), x
            for _ in range(30):
                cur = plan.step(cur, 0, None)
                want = loop.step(want, 0, None)
                assert plan.leave(cur) == want
            coeffs = [rng.randrange(p) for _ in range(12)] + [1]
            a = Poly(F, coeffs, var="t")
            assert tm.apply_poly(x, a, dom) == _horner(loop, x, a.coeffs)


# -- the exact packed blocks at their worst case -----------------------------

def _fan_in_module(F, k, clen, digit):
    """Block 0 of 2 rows takes a level-1 τ-term in row 0 from each of k
    one-row blocks, the coefficient clen digits `digit` mod p; returns
    the module and its entries of ρ_t written out by hand.  The one-row
    blocks take no τ-term, so their θ-degrees grow by one a step and 30
    applications stay small in F_p[θ].  (`_stacked_module` stacks its
    τ-terms at the levels 21, 42, …, which are the identity only in
    F_{p^21}: in F_p[θ] they raise a θ-degree p^21-fold.)"""
    c = Poly(F, [digit % F.p] * clen)
    top = [[]] + [[(0, 1, c)]] * k
    entries = {(i, i): {0: Poly.gen(F)} for i in range(k + 2)}
    entries[0, 1] = {0: Poly.one(F)}
    entries.update(((0, j), {1: c}) for j in range(2, k + 2))
    tm = TModule(F, (2,) + (1,) * k, top)
    return tm, lambda i, j: entries.get((i, j), {})


# (q, s or the fan-in (k, clen, digit), point slot, τ-product slots,
# length of the all-(p-1) coordinates): one-byte slots on real motives
# at q = 2 and 3; a fan-in of 254 (q = 2) or 126 (q = 3) τ-terms with
# the coefficient 1 into one row, each adding a reduced digit p-1,
# whose share alone widens the point slot to two bytes; an all-(p-1)
# coefficient of 511 (q = 2) or 192 (q = 3) digits, which widens its
# τ-product slot to two bytes against a source of 300 digits; and no
# plan (the row loop) at q = 131 and 251, where the point slot exceeds
# a byte before any τ-term.  A three-byte slot would take 32 765
# τ-terms on one row or a coefficient of 49 152 digits at q = 3.
_PACKED_BLOCK_CASES = [
    (2, (1, 1, 2), 1, {1}, 21), (2, (2, 3, 4), 1, {1}, 21),
    (3, (2, 4, 6), 1, {1}, 21), (3, (8, 18, 54), 1, {1}, 21),
    (2, ("fan-in", 254, 1, 1), 2, {1}, 21),
    (3, ("fan-in", 126, 1, 1), 2, {1}, 21),
    (2, ("fan-in", 1, 511, -1), 1, {2}, 300),
    (3, ("fan-in", 1, 192, -1), 1, {2}, 300),
    (131, (130,), None, None, 21), (251, (250,), None, None, 21),
]


@pytest.mark.parametrize("q,s,slot,tau_slots,n", _PACKED_BLOCK_CASES)
def test_packed_blocks_match_row_reference(q, s, slot, tau_slots, n):
    """ρ_t and Horner on packed exact digits equal the generic
    sparse-row operator, digit for digit, over 30 applications, from
    the all-(p-1) point, with Horner adding (p-1)·v at each step.  On
    the first application every θ-shift and in-block add reads p-1,
    the fan-ins' τ-term share of the point slot and the long
    coefficients' τ-product slot (`fpx._PackedBlocks`) meet their worst
    case, and every τ-target is re-laid, a τ-image being p-fold longer
    than its source.  The fan-ins carry past a one-byte point slot, so
    a bound without its τ-term share fails, and their one-row blocks
    outgrow their width every few steps, so a missed θ-shift re-lay
    fails.  Horner's y, packed at a narrower width than its own, is
    checked on the zero point."""
    F = field_for_q(q)
    p = F.p
    if s[0] == "fan-in":
        tm, entry = _fan_in_module(F, *s[1:])
    else:
        tm = TModule.from_motive(Motive(F, s))
        entry = tm.entry
    dom = packed_ring(p)
    plan = tm._plan(dom)
    if slot is None:
        assert dom.point_plan([(0, tm.d, [])]) is None
    else:
        assert plan.slot == slot
        assert {
            t.slot for _, levels in plan._taus for _, _, targets in levels
            for t in targets
        } == tau_slots
    rows = _sparse_rows(entry, tm.d, dom)
    x = [bytes([p - 1] * n)] * tm.d
    cur = want = x
    for _ in range(30):
        cur = tm.apply_t(cur, dom)
        want = _reference_apply_t(rows, want, dom)
        assert cur == want
    a = Poly(F, [p - 1] * 30 + [1], var="t")
    assert tm.apply_poly(x, a, dom) == _reference_apply_poly(rows, x, a, dom)
    zero = plan.enter([b""] * tm.d)
    cs = dom.scalar(p - 1)
    assert plan.leave(plan.step(zero, p - 1, plan.enter(x))) == [
        dom.mul(cs, y) for y in x
    ]


def test_stacked_module_on_packed_blocks():
    """The stacked module's τ-terms at the levels 21, 42, …, 126 in
    F_p[θ], on one application from a point whose top coordinate is the
    constant p-1, which every level leaves as it is."""
    F = field_for_q(3)
    tm = _stacked_module(F, 6)
    dom = packed_ring(3)
    rows = _sparse_rows(tm.entry, tm.d, dom)
    x = [b"\2", bytes([2] * 21), bytes([2] * 21)]
    assert tm.apply_t(x, dom) == _reference_apply_t(rows, x, dom)
    a = Poly(F, [2, 1], var="t")
    assert tm.apply_poly(x, a, dom) == _reference_apply_poly(rows, x, a, dom)


def test_packed_exact_confirm_makes_no_element_sums(monkeypatch):
    """Confirming q=3 (8,18,54) exactly on packed digits runs on whole
    blocks: no `PackedPoly.add`, where the row loop made one per
    θ-step and τ-term."""
    F = field_for_q(3)
    s = (8, 18, 54)
    motive = Motive(F, s)
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    factors = annihilator_mzv(F, s).factors
    calls = []
    add = fpx.PackedPoly.add

    def counted(self, a, b):
        calls.append(1)
        return add(self, a, b)

    monkeypatch.setattr(fpx.PackedPoly, "add", counted)
    dom = packed_ring(3)
    assert tm.is_zero_point(tm.apply_annihilator(v, factors, dom), dom)
    assert not calls
