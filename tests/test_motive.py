"""Golden tests for the reduction engine: four hand-checked t-modules
(two torsion, two non-torsion cases) with their distinguished points,
plus structural properties of the reduction."""
import hashlib
import random

import pytest

from ffmzv import carlitz, fpx, poly
from ffmzv.carlitz import CarlitzCache, _RowTerms, cache_for
from ffmzv.cli import enumerate_tuples
from ffmzv.fields import field_for_q
from ffmzv.motive import Motive
from ffmzv.poly import BiPoly, Poly, RatFrac, taylor_shift
from ffmzv.tmodule import (
    TModule,
    carlitz_tensor_module,
    depth1_special_point,
)


def _theta_poly(field, coeffs):
    return Poly(field, coeffs)


def _canonical_q(field, s):
    """The canonical attached polynomials H_{s_ℓ-1} of s as `BiPoly`s,
    from the field's cache."""
    cache = cache_for(field)
    return [cache.anderson_thakur(si - 1) for si in s]


def _rho_t_dict(tm):
    """ρ_t as {(i, j): {n: c}}, read entry by entry, empty entries left
    out."""
    return {
        (i, j): entry
        for i in range(tm.d)
        for j in range(tm.d)
        if (entry := tm.entry(i, j))
    }


def _assert_matches(tm, golden, field):
    """golden: {(i, j): [(tau_power, theta_coeffs)]}; everything else 0."""
    expected = {
        ij: {n: Poly(field, cs) for n, cs in wanted}
        for ij, wanted in golden.items()
    }
    assert _rho_t_dict(tm) == expected


def _diag_blocks(golden, weights, field):
    """Fill in the θ-diagonal and in-block superdiagonal 1's."""
    offset = 0
    for w in weights:
        for k in range(w):
            i = offset + k
            golden[(i, i)] = [(0, [0, 1])]  # θ
            if k + 1 < w:
                golden[(i, i + 1)] = [(0, [1])]
        offset += w
    return golden


def test_golden_q3_2_4():
    F = field_for_q(3)
    motive = Motive(F, (2, 4))
    tm = TModule.from_motive(motive)
    assert tm.d == 10
    golden = _diag_blocks({}, [6, 4], F)
    golden[(5, 0)] = [(1, [1])]
    golden[(5, 6)] = [(1, [2])]
    golden[(9, 6)] = [(1, [1])]
    _assert_matches(tm, golden, F)
    v = motive.special_point_v()
    expected = [
        [], [], [1], [], [1], [0, 1, 0, 2],
        [2], [], [2], [0, 2, 0, 1],
    ]
    assert v == [Poly(F, c) for c in expected]


def test_golden_q2_1_2_4():
    F = field_for_q(2)
    motive = Motive(F, (1, 2, 4))
    tm = TModule.from_motive(motive)
    assert tm.d == 17
    golden = _diag_blocks({}, [7, 6, 4], F)
    golden[(6, 0)] = [(1, [1])]
    golden[(6, 7)] = [(1, [1])]
    golden[(6, 13)] = [(1, [1])]
    golden[(12, 7)] = [(1, [1])]
    golden[(12, 13)] = [(1, [1])]
    golden[(16, 13)] = [(1, [1])]
    _assert_matches(tm, golden, F)
    v = motive.special_point_v()
    hump = [0, 1, 1]  # θ + θ²
    expected = [
        [], [], [], [], [1], [1], hump,
        [], [], [], [1], [1], hump,
        [], [1], [1], hump,
    ]
    assert v == [Poly(F, c) for c in expected]


def test_golden_q3_4_2():
    F = field_for_q(3)
    motive = Motive(F, (4, 2))
    tm = TModule.from_motive(motive)
    assert tm.d == 8
    golden = _diag_blocks({}, [6, 2], F)
    golden[(2, 6)] = [(1, [1])]
    golden[(4, 6)] = [(1, [1])]
    golden[(5, 0)] = [(1, [1])]
    golden[(5, 6)] = [(1, [0, 1, 0, 2])]  # (θ + 2θ³)τ
    golden[(7, 6)] = [(1, [1])]
    _assert_matches(tm, golden, F)
    v = motive.special_point_v()
    expected = [[], [], [1], [], [1], [0, 1, 0, 2], [], [1]]
    assert v == [Poly(F, c) for c in expected]


def test_golden_q3_2_2_2():
    F = field_for_q(3)
    motive = Motive(F, (2, 2, 2))
    tm = TModule.from_motive(motive)
    assert tm.d == 12
    golden = _diag_blocks({}, [6, 4, 2], F)
    golden[(5, 0)] = [(1, [1])]
    golden[(5, 6)] = [(1, [2])]
    golden[(5, 10)] = [(1, [1])]
    golden[(9, 6)] = [(1, [1])]
    golden[(9, 10)] = [(1, [2])]
    golden[(11, 10)] = [(1, [1])]
    _assert_matches(tm, golden, F)
    v = motive.special_point_v()
    expected = [[], [], [], [], [], [1], [], [], [], [2], [], [1]]
    assert v == [Poly(F, c) for c in expected]


# -- structural properties ---------------------------------------------------

def test_sigma_basis_ordering():
    """Row i of the σ-basis is ν_{(ℓ,j)} = (t-θ)^j m_ℓ, block by block,
    the highest (t-θ)-power of each block first."""
    F = field_for_q(3)
    motive = Motive(F, (2, 4))
    basis = [
        (1, 5), (1, 4), (1, 3), (1, 2), (1, 1), (1, 0),
        (2, 3), (2, 2), (2, 1), (2, 0),
    ]
    assert motive.d == len(basis)
    for i, (ell, j) in enumerate(basis):
        assert motive.row(ell, j) == i


@pytest.mark.parametrize("q,s", [(3, (2, 4)), (2, (1, 2)), (3, (2, 2, 2))])
def test_rho_t_compatible_with_module_t_action(q, s):
    """ρ_t of the reduced point equals the reduction of t times the
    original module element (ρ ∘ Δ = Δ ∘ t)."""
    F = field_for_q(q)
    motive = Motive(F, s)
    tm = TModule.from_motive(motive)
    seeds = motive.point_v_seeds()
    T = motive.domain()
    t = T.t_poly(Poly(F, [0, 1], var="t"))
    direct = motive.reduce_point(
        [(n, T.mul(f, t), ell) for n, f, ell in seeds]
    )
    assert tm.apply_t(motive.special_point_v()) == direct


def _rho_t_by_worklist(motive):
    """Reference ρ_t: every column (ℓ, j) is the worklist reduction of
    t·(t-θ)^j m_ℓ."""
    F = motive.field
    zero, one, th = (
        (RatFrac.zero(F), RatFrac.one(F), RatFrac.from_poly(Poly.gen(F)))
        if motive.rational
        else (Poly.zero(F), Poly.one(F), Poly.gen(F))
    )
    t = BiPoly(F, (zero, one), motive.rational)
    tmt = BiPoly(F, (-th, one), motive.rational)
    entries = {}
    for ell in range(1, motive.r + 1):
        seed = t  # t·(t-θ)^j, one factor t - θ more per column
        for j in range(motive.weights[ell - 1]):
            col = motive.row(ell, j)
            laid = motive.domain().lay(seed)
            for n, a, row in motive.reduce([(0, laid, ell)]):
                slot = entries.setdefault((row, col), {})
                slot[n] = slot[n] + a if n in slot else a
            seed = seed * tmt
    return {
        rc: {n: a for n, a in slot.items() if not a.is_zero()}
        for rc, slot in entries.items()
    }


_SHAPE_FIELDS = [(3, 26), (2, 8), (4, 20), (9, 24)]


# (3, 14) is the quick q=3 case; (3, 26) extends it to every motive of
# test_tmodule's shape fields.
@pytest.mark.parametrize("q,wmax", [(3, 14)] + _SHAPE_FIELDS)
def test_rho_t_closed_form_matches_worklist(q, wmax):
    """The whole ρ_t of every motive of the field, θ·I and the shift
    from `TModule` and the top-column τ-terms from `rho_t_entries`,
    equals the reduction of every column through the worklist."""
    F = field_for_q(q)
    for s in enumerate_tuples(q, wmax, 3, False):
        motive = Motive(F, s)
        tm = TModule.from_motive(motive)
        assert _rho_t_dict(tm) == _rho_t_by_worklist(motive), s


@pytest.mark.parametrize("q,s,us", [
    (3, (2, 4), [([1], [0, 1]), ([0, 1], [1, 1])]),
    (2, (1, 2, 1), [([1], [1, 1]), ([0, 1], [1]), ([1, 1], [0, 0, 1])]),
])
def test_rho_t_closed_form_matches_worklist_rational(q, s, us):
    """Polylog motives with non-integral attached constants, as built by
    is_cmpl_eulerian."""
    F = field_for_q(q)
    qs = [
        BiPoly(F, [RatFrac(Poly(F, num), Poly(F, den))], rational=True)
        for num, den in us
    ]
    motive = Motive(F, s, Q=qs)
    tm = TModule.from_motive(motive)
    assert _rho_t_dict(tm) == _rho_t_by_worklist(motive)


@pytest.mark.parametrize("q,s", [(3, (2, 4)), (2, (1, 2))])
def test_apply_poly_matches_seed_scaling(q, s):
    F = field_for_q(q)
    motive = Motive(F, s)
    tm = TModule.from_motive(motive)
    seeds = motive.point_v_seeds()
    a = Poly(F, [1, 0, 1, 1], var="t")
    T = motive.domain()
    via_seeds = motive.reduce_point(
        [(n, T.mul(f, T.t_poly(a)), ell) for n, f, ell in seeds]
    )
    assert tm.apply_poly(motive.special_point_v(), a) == via_seeds


@pytest.mark.parametrize("q,n", [(3, 2), (3, 4), (2, 3), (5, 4)])
def test_depth_one_matches_direct_construction(q, n):
    """The reduction engine at depth 1 reproduces the tensor-power
    module built without it."""
    F = field_for_q(q)
    motive = Motive(F, (n,))
    tm = TModule.from_motive(motive)
    direct = carlitz_tensor_module(F, n)
    for i in range(n):
        for j in range(n):
            assert tm.entry(i, j) == direct.entry(i, j)
    assert motive.special_point_v() == depth1_special_point(F, n)


def test_invalid_composition_rejected():
    F = field_for_q(3)
    with pytest.raises(ValueError):
        Motive(F, ())
    with pytest.raises(ValueError):
        Motive(F, (2, 0))


def _reduction_digest(motive):
    v = [a.coeffs for a in motive.special_point_v()]
    u = [a.coeffs for a in motive.reduce_point(motive.point_u_seeds())]
    rho = sorted(
        (rc, sorted((n, a.coeffs) for n, a in slot.items()))
        for rc, slot in _rho_t_dict(TModule.from_motive(motive)).items()
    )
    return hashlib.sha256(repr((v, u, rho)).encode()).hexdigest()


@pytest.mark.parametrize("s,digest", [
    ((8, 10, 62),
     "6bb3c1d3f66fae6ed5a41349071f4209b540f89f3a71b7b0c1d5c8bfe1cef982"),
    ((18, 62),
     "aefa1cc852a64dfa9be5820ebe813def8dd278f0234324ddd11bc350cbd11db0"),
], ids=["8-10-62", "18-62"])
def test_weight80_reduction_is_pinned(s, digest):
    """The points v and u and ρ_t at q=3, weight 80, hashed: digests
    recorded with the synthetic-division expansion and the schoolbook
    A[t] product, so any drift in the point reduction fails here."""
    assert _reduction_digest(Motive(field_for_q(3), s)) == digest


@pytest.mark.parametrize("q", [3, 4, 9])
def test_telescope_sign_is_field_minus_one(q):
    """(−1)^i in the telescoped seeds is the field's −1: the plain
    product at q=4 (characteristic 2), the product scaled by
    `field.neg(1)` at q=9, where the element q−1 is not −1."""
    F = field_for_q(q)
    m = Motive(F, (2, 3, q + 1))
    dom = m.domain()
    Q = _canonical_q(F, m.s)
    minus_one = F.neg(1)
    if q == 4:
        assert minus_one == 1
    want_v = [Q[2], (Q[2] * Q[1]).scale(minus_one), Q[2] * Q[1] * Q[0]]
    assert [dom.bipoly(a) for _n, a, _l in m.point_v_seeds()] == want_v
    g = BiPoly(F, [Poly.gen(F), Poly.one(F)])
    g1 = g.twist(1)
    want_t = [g1, (g1 * Q[1]).scale(minus_one), g1 * Q[1] * Q[0]]
    # the worklist telescopes u-basis terms, u = t-θ: compare the
    # coefficients of u^j with the expansions of the t-basis products
    got = m.telescope_expand(dom.expand(dom.lay(g)), 3)
    assert [dom.coeffs(a) for _n, a, _l in got] == [
        dom.coeffs(dom.expand(dom.lay(a))) for a in want_t
    ]


@pytest.mark.parametrize(
    "q,s", [(3, (18, 62)), (3, (8, 10, 62)), (4, (2, 3, 5))],
    ids=["q3-18,62", "q3-8,10,62", "q4-2,3,5"],
)
def test_canonical_q_is_built_on_first_read(monkeypatch, q, s):
    """A canonical motive whose H_n are filled takes its Q_ℓ from
    `CarlitzCache.h_term` alone: building it, ρ_t and the points v and
    u call no `anderson_thakur`, and on packed rows (q=3) build no
    `BiPoly`."""
    F = field_for_q(q)
    cache = CarlitzCache(F)
    monkeypatch.setitem(carlitz._caches, F, cache)
    cache.anderson_thakur(sum(s) - 1)
    calls, built = [], []
    anderson_thakur, init = CarlitzCache.anderson_thakur, BiPoly.__init__

    def counting_calls(self, n):
        calls.append(n)
        return anderson_thakur(self, n)

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CarlitzCache, "anderson_thakur", counting_calls)
    if F.packed:
        monkeypatch.setattr(BiPoly, "__init__", counting_init)
    m = Motive(F, s)
    m.rho_t_entries()
    m.special_point_v()
    m.reduce_point(m.point_u_seeds())
    assert calls == [] and built == []


def _point_by_t_basis_worklist(motive, seeds):
    """Reference point reduction: the split-and-rebuild worklist on
    t-basis terms.  Each split expands f in t-θ, rebuilds both halves
    by the shift by -θ and telescopes the high half in t, and a finished
    term is expanded again."""
    F, rational = motive.field, motive.rational
    minus_one = F.neg(1)

    def rebuild(coeffs):
        return BiPoly(F, taylor_shift(F, coeffs, ((minus_one, 1),)), rational)

    dom = motive.domain()
    Q = [dom.bipoly(x) for x in motive._laid]
    pending = {}

    def push(n, f, ell):
        key = (n, ell)
        pending[key] = pending[key] + f if key in pending else f

    for n, f, ell in seeds:
        push(n, dom.bipoly(f), ell)
    zero = RatFrac.zero(F) if rational else Poly.zero(F)
    coords = [zero] * motive.d
    while pending:
        key = max(pending, key=lambda k: (k[1], len(pending[k].coeffs)))
        n, ell = key
        f = pending.pop(key)
        if f.is_zero():
            continue
        w = motive.weights[ell - 1]
        coeffs = f.expand_tm_theta()
        if len(f.coeffs) - 1 < w:
            for j, a in enumerate(coeffs):
                coords[motive.row(ell, j)] = coords[motive.row(ell, j)] + a
            continue
        g, gamma = rebuild(coeffs[w:]), rebuild(coeffs[:w])
        if not gamma.is_zero():
            push(n, gamma, ell)
        g1 = g.twist(1)
        push(n + 1, g1, ell)
        prod = g1
        for i in range(1, ell):
            prod = prod * Q[ell - 1 - i]
            push(n + 1, prod.scale(minus_one) if i % 2 else prod, ell - i)
    return coords


def _random_q(F, rng, t_len, rational=False):
    """An attached polynomial Σ_{i<t_len} c_i(θ)·t^i + t^t_len, each c_i
    of θ-degree below 10 (over a random denominator of θ-degree below 3
    when rational)."""
    def poly(top):
        return Poly(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, top))])

    if not rational:
        return BiPoly(F, [poly(11) for _ in range(t_len)] + [Poly.one(F)])
    coeffs = []
    for _ in range(t_len):
        den = poly(4)
        coeffs.append(RatFrac(poly(11), den if den else Poly.one(F)))
    return BiPoly(F, coeffs + [RatFrac.one(F)], rational=True)


def _point_motives():
    for q, wmax in _SHAPE_FIELDS + [(5, 24), (7, 30)]:
        F = field_for_q(q)
        for s in enumerate_tuples(q, wmax, 3, False):
            yield Motive(F, s)
    # attached polynomials of t-degree 1 to 3, so that the points split
    # terms of several rows: in packed digits at p = 131 and 251 (two-
    # byte Horner slots, three-byte products reduced in two or three
    # rounds), and in `Poly` terms at q = 4, 9 and 257 and for rational
    # coefficients
    for q in (131, 251, 4, 9, 257):
        F = field_for_q(q)
        rng = random.Random(q)
        for s in [(1, 2), (2, 1), (1, 1, 2)]:
            yield Motive(F, s, Q=[_random_q(F, rng, rng.randrange(1, 4)) for _ in s])
    F = field_for_q(3)
    rng = random.Random(3)
    for s in [(2, 4), (1, 2)]:
        Q = [_random_q(F, rng, len(s) + 1 - i, rational=True)
             for i in range(len(s))]
        yield Motive(F, s, Q=Q)


def test_point_reduction_matches_t_basis_worklist():
    """The points v and u of every `_SHAPE_FIELDS` motive, of q=5 w<=24
    and q=7 w<=30, and of a few motives with attached polynomials in t
    (p = 131 and 251, q = 4, 9 and 257, and rational ones) equal those
    of the t-basis worklist.  The worklist runs on packed digits
    exactly where the field is `packed` and the motive integral."""
    count = 0
    for motive in _point_motives():
        packed = motive.field.packed and not motive.rational
        assert isinstance(motive.domain(), _RowTerms) == packed, (
            motive.field, motive.s)
        for seeds in (motive.point_v_seeds(), motive.point_u_seeds()):
            assert motive.reduce_point(seeds) == _point_by_t_basis_worklist(
                motive, seeds), motive.s
        count += 1
    assert count > 500


def test_warm_motive_builds_no_bipoly(monkeypatch):
    """On a packed field a motive whose H_n are filled, and their
    `BiPoly`s built, builds no `BiPoly` for ρ_t, v and u: each Q_ℓ is
    laid out in rows once, and the seeds are products on rows."""
    F = field_for_q(3)

    def run():
        motive = Motive(F, (8, 18, 54))
        return (
            motive.rho_t_entries(),
            motive.special_point_v(),
            motive.reduce_point(motive.point_u_seeds()),
        )

    first = run()
    built = []
    init = BiPoly.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BiPoly, "__init__", counting)
    assert run() == first
    assert built == []


@pytest.mark.parametrize("q,first,second", [
    (3, (8, 18, 54), (8, 18, 62)),
    (4, (3, 6, 9), (3, 6, 12)),
], ids=["q3-packed", "q4-bipoly"])
def test_shared_entries_are_expanded_once(monkeypatch, q, first, second):
    """The u-basis Q_1..Q_{r-1} of a canonical motive are the cache's,
    expanded once per n: a second motive whose entries other than the
    last are the first one's makes no Taylor shift for its Q's, on
    packed rows and on `BiPoly`s, and they equal the expansion of its
    own Q's."""
    F = field_for_q(q)
    Motive(F, first).rho_t_entries()
    m = Motive(F, second)
    shifts = []
    row_shift, bipoly_shift = fpx.PackedPoly.taylor_shift, poly.taylor_shift

    def counting_rows(self, *args):
        shifts.append(args)
        return row_shift(self, *args)

    def counting_bipoly(*args):
        shifts.append(args)
        return bipoly_shift(*args)

    monkeypatch.setattr(fpx.PackedPoly, "taylor_shift", counting_rows)
    monkeypatch.setattr(poly, "taylor_shift", counting_bipoly)
    uq = m._uq
    assert shifts == []
    monkeypatch.undo()
    dom = m.domain()
    assert uq == [
        dom.expand(dom.lay(f)) for f in _canonical_q(F, second[:-1])
    ]
    assert uq[0] is cache_for(F).h_expanded(second[0] - 1)


_SUFFIX_CASES = [
    (2, (1, 1, 2)), (2, (1, 3)), (2, (3, 5)), (2, (1, 2, 4)),
    (3, (2, 4)), (3, (4, 2, 2)), (3, (8, 18, 54)), (3, (2, 6, 18, 54)),
    (5, (4, 4)), (5, (4, 8, 4)),
]
_SUFFIX_IDS = [f"q{q}-" + ",".join(map(str, s)) for q, s in _SUFFIX_CASES]


@pytest.mark.parametrize("q,s", _SUFFIX_CASES, ids=_SUFFIX_IDS)
def test_rho_t_blocks_are_closed_downward(q, s):
    """Block ℓ's τ-terms of ρ_t land only in rows of blocks 1..ℓ, so
    blocks 1..k span a sub-t-module for every k."""
    motive = Motive(field_for_q(q), s)
    for ell, block in enumerate(motive.rho_t_entries(), 1):
        end = sum(motive.weights[:ell])
        assert block and all(row < end for row, _, _ in block), ell


@pytest.mark.parametrize("q,s", _SUFFIX_CASES, ids=_SUFFIX_IDS)
def test_suffix_motive_is_the_quotient_by_block_one(q, s):
    """For ℓ >= 2, the τ-terms of block ℓ of M(s_1, t) in blocks >= 2,
    their rows shifted down by w_1, are block ℓ-1 of M(t), and the
    point v of (s_1, t) on those rows is t's: the structure behind
    "ζ(s) Eulerian ⇒ ζ(t) Eulerian"."""
    F = field_for_q(q)
    whole, suffix = Motive(F, s), Motive(F, s[1:])
    w1 = whole.weights[0]
    blocks = whole.rho_t_entries()
    for ell, (block, want) in enumerate(
        zip(blocks[1:], suffix.rho_t_entries()), 2
    ):
        got = {(row - w1, n): c for row, n, c in block if row >= w1}
        assert got and got == {(row, n): c for row, n, c in want}, ell
    assert whole.special_point_v()[w1:] == suffix.special_point_v()
