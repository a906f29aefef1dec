import hashlib
import json
import operator
import os
import random
import signal
import subprocess
import sys
from functools import lru_cache, reduce
from itertools import combinations
from pathlib import Path

import pytest

from ffmzv import criterion, fpx, tmodule
from ffmzv.cli import enumerate_tuples
from ffmzv.criterion import (
    annihilator_cmpl,
    annihilator_mzv,
    check_suffix_consistency,
    decompose_weight,
    default_zetalike_bound,
    is_cmpl_eulerian,
    is_eulerian,
    is_zeta_like,
    torsion_witness,
)
from ffmzv.fields import field_for_q
from ffmzv.linalg import rref_nullspace
from ffmzv.motive import Motive
from ffmzv.oracle import SeriesContext, zeta_laurent
from ffmzv.poly import BiPoly, Poly, RatFrac, packed_ring
from ffmzv.tmodule import ProbeDomain, TModule


# -- weight decomposition ----------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_decompose_weight_q_minus_one(q):
    d = decompose_weight(q, q - 1)
    assert (d.h, d.ell, d.n) == (1, 0, 1)


def test_decompose_weight_examples():
    d = decompose_weight(3, 6)  # 6 = 3¹·1·(3¹-1)
    assert (d.h, d.ell, d.n) == (1, 1, 1)
    d = decompose_weight(3, 8)  # 8 = 3⁰·1·(3²-1)
    assert (d.h, d.ell, d.n) == (2, 0, 1)
    d = decompose_weight(2, 7)  # h must be the LARGEST valid exponent
    assert (d.h, d.ell, d.n) == (3, 0, 1)
    d = decompose_weight(2, 12)  # 12 = 2²·1·(2²-1)
    assert (d.h, d.ell, d.n) == (2, 2, 1)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_decompose_weight_reconstructs(q):
    p = 2 if q % 2 == 0 else q
    for w in range(q - 1, 60, q - 1 if q > 2 else 1):
        d = decompose_weight(q, w)
        assert w == p ** d.ell * d.n * (q ** d.h - 1)
        assert d.n % p != 0
        # maximality of h
        for h2 in range(d.h + 1, 8):
            if q ** h2 - 1 <= w:
                assert w % (q ** h2 - 1) != 0


def test_decompose_weight_rejects_bad_weight():
    with pytest.raises(ValueError):
        decompose_weight(3, 5)


# -- annihilator construction ------------------------------------------------

def _product(ann):
    """The factored annihilator as one polynomial in t."""
    return reduce(operator.mul, ann.factors)


def test_annihilator_q3_2_4():
    F = field_for_q(3)
    ann = annihilator_mzv(F, (2, 4))
    t = Poly(F, [0, 1], var="t")
    frob = t ** 3 - t
    depth_one = t ** 3 + t.scale(2)
    assert _product(ann) == frob ** 3 * depth_one
    assert ann.degree == 9 + 3


def test_annihilator_q2_1_1():
    F = field_for_q(2)
    ann = annihilator_mzv(F, (1, 1))
    t = Poly(F, [0, 1], var="t")
    assert _product(ann) == (t * t - t) ** 2 * (t * t + t)


def test_annihilator_cmpl_examples():
    F3 = field_for_q(3)
    t3 = Poly(F3, [0, 1], var="t")
    assert _product(annihilator_cmpl(F3, (2, 4))) == (t3 ** 3 - t3) ** 4
    F2 = field_for_q(2)
    t2 = Poly(F2, [0, 1], var="t")
    assert _product(annihilator_cmpl(F2, (1, 2))) == (
        (t2 * t2 - t2) ** 2 * (t2 ** 4 - t2)
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_suffix_factors_are_the_frobenius_differences(q):
    """Every suffix weight w <= 80 with (q-1) | w, as the suffixes of
    (q-1, ..., q-1): its factor, a polynomial in t, is (t^{q^h} - t)^{p^ℓ}
    for w = p^ℓ·n·(q^h - 1), and the degree is Σ q^h·p^ℓ, read off
    `decompose_weight`.  The factors come smallest degree first, the
    order they are applied in."""
    F = field_for_q(q)
    k = 80 // (q - 1)
    ann = annihilator_cmpl(F, (q - 1,) * k)
    t = Poly(F, [0, 1], var="t")
    want = []
    degree = 0
    for i in range(k):
        dec = decompose_weight(q, (i + 1) * (q - 1))
        want.append((t ** (q ** dec.h) - t) ** (F.p ** dec.ell))
        degree += q ** dec.h * F.p ** dec.ell
    assert all(f.var == "t" for f in ann.factors)
    assert ann.factors == tuple(sorted(want, key=lambda f: f.degree))
    assert ann.degree == degree


def test_annihilator_strict_rejects_odd_entries():
    F = field_for_q(3)
    with pytest.raises(ValueError):
        annihilator_mzv(F, (3, 4))


# -- the main decision procedure ---------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_depth_one_ground_truth(q):
    F = field_for_q(q)
    for n in range(1, 13):
        v = is_eulerian(F, (n,))
        assert v.eulerian == (n % (q - 1) == 0 if q > 2 else True), n


def test_certified_verdicts():
    F3 = field_for_q(3)
    F2 = field_for_q(2)
    assert is_eulerian(F3, (2, 4)).eulerian
    assert is_eulerian(F2, (1, 2, 4)).eulerian
    assert not is_eulerian(F3, (4, 2)).eulerian
    assert not is_eulerian(F3, (2, 2, 2)).eulerian


def test_precheck_shortcut_and_soundness():
    F = field_for_q(3)
    quick = is_eulerian(F, (3, 4))
    assert not quick.eulerian
    assert quick.precheck is not None
    # independently of the annihilator: no torsion witness of degree
    # <= 27 exists for tuples the precheck rejects
    for s in [(3, 4), (1, 2), (2, 3, 2), (5, 2)]:
        assert is_eulerian(F, s).precheck is not None, s
        assert torsion_witness(F, s, 27) is None, s


def test_primitive_reduction_agreement():
    rng = random.Random(7)
    for q in (2, 3):
        F = field_for_q(q)
        p = 2 if q == 2 else 3
        for _ in range(10):
            depth = rng.randint(1, 2)
            s = tuple(rng.randint(1, 4) * (q - 1) for _ in range(depth))
            if sum(s) * p > 16:
                continue
            sp = tuple(p * x for x in s)
            a = is_eulerian(F, s)
            b = is_eulerian(F, sp)
            assert a.eulerian == b.eulerian, (s, sp)
            assert b.reduced == a.reduced


def test_probe_and_exact_agree():
    F = field_for_q(3)
    for s in [(2, 4), (4, 2), (2, 2), (2, 6)]:
        motive = Motive(F, s)
        tm = TModule.from_motive(motive)
        exact = tm.apply_annihilator(
            motive.special_point_v(), annihilator_mzv(F, s).factors
        )
        assert is_eulerian(F, s).eulerian == tm.is_zero_point(exact), s


# -- the tower of suffix annihilators and the suffix-first decision -----------

@pytest.mark.parametrize("q,s", [
    (3, (2,)), (3, (2, 4)), (3, (2, 6, 18)), (3, (6, 6, 6)),
    (2, (1, 2, 4, 8)), (5, (4, 20)), (4, (3, 9)),
])
def test_tower_prefixes_are_the_suffix_annihilators(q, s):
    """The first k factors of `annihilator_mzv` are `annihilator_mzv`
    of the depth-k suffix as it stands, not divided by p."""
    F = field_for_q(q)
    ann = annihilator_mzv(F, s)
    r = len(s)
    for k in range(1, r + 1):
        assert ann.factors[:k] == annihilator_mzv(F, s[r - k:]).factors, k


def test_annihilator_degree_is_the_closed_form():
    """On every precheck-passing tuple of the q=3 w<=26 and q=2 w<=8
    sweeps (depth <= 3) and the four weight-80 tuples at q=3, reduced:
    `annihilator_mzv_degree` equals the degree of the built
    `annihilator_mzv`, and `is_eulerian` records it (the sweep)."""
    weight80 = [(18, 62), (26, 54), (8, 18, 54), (8, 10, 62)]
    cases = [(q, s) for q, wmax in [(3, 26), (2, 8)]
             for s in enumerate_tuples(q, wmax, 3, False)]
    assert len(cases) == 469
    for q, s in cases + [(3, s) for s in weight80]:
        F = field_for_q(q)
        reduced = criterion._reduce(F, s)
        degree = annihilator_mzv(F, reduced).degree
        assert criterion.annihilator_mzv_degree(F, reduced) == degree, s
        if sum(s) <= 26:
            assert is_eulerian(F, s).annihilator_degree == degree, s


def _motives_built(monkeypatch):
    """A list of the tuples whose `Motive` `criterion` builds."""
    built = []
    real = criterion.Motive

    def counted(field, s, *args, **kwargs):
        built.append(tuple(s))
        return real(field, s, *args, **kwargs)

    monkeypatch.setattr(criterion, "Motive", counted)
    return built


def _suffix_verdict(F, reduced):
    """`is_eulerian` of the proper suffix of a reduced tuple, divided by
    p; None below depth 3, where that suffix has depth one."""
    if len(reduced) < 3:
        return None
    return is_eulerian(F, criterion._reduce(F, reduced[1:])).eulerian


def test_pruned_tuples_build_no_motive(monkeypatch):
    """On the q=3 w<=26 and q=2 w<=8 sweeps, the suffix memo cleared
    first: a tuple whose proper suffix, divided by p, is non-Eulerian
    is non-Eulerian and builds no motive of its own reduced tuple, and
    every other tuple builds its own motive exactly once.  So q=3
    (2,2,2), whose suffix (2,2) is non-Eulerian, applies ρ_t 6 times
    on the motive of (2,2) (factors of degrees 3 and 3) and not once
    on its own."""
    F = field_for_q(3)
    steps = []
    weights = []
    apply = TModule.apply_annihilator
    step = fpx._PackedPoint.step

    def applied(self, *args):
        weights.append(self.weights)
        return apply(self, *args)

    def counted(self, *args):
        steps.append(weights[-1])
        return step(self, *args)

    monkeypatch.setattr(TModule, "apply_annihilator", applied)
    monkeypatch.setattr(fpx._PackedPoint, "step", counted)
    assert not is_eulerian(F, (2, 2, 2)).eulerian
    assert steps.count(tuple(Motive(F, (2, 2)).weights)) == 6
    assert steps.count(tuple(Motive(F, (2, 2, 2)).weights)) == 0
    assert [f.degree for f in annihilator_mzv(F, (2, 2, 2)).factors] == [3, 3, 9]

    built = _motives_built(monkeypatch)
    for q, wmax in [(3, 26), (2, 8)]:
        F = field_for_q(q)
        criterion._SUFFIX_VERDICTS.clear()
        pruned = 0
        for s in enumerate_tuples(q, wmax, 3, False):
            built.clear()
            verdict = is_eulerian(F, s)
            own = built.count(verdict.reduced)
            if _suffix_verdict(F, verdict.reduced) is False:
                assert own == 0 and not verdict.eulerian, s
                pruned += 1
            else:
                assert own == 1, s
        assert pruned, q


@pytest.mark.parametrize("domain", ["exact", "packed", "probe"])
def test_stopped_point_holds_the_suffix_residual(domain):
    """After the suffix's factors, the first two of q=3 (2,2,2)'s
    tower, the last two blocks of the point are the suffix (2,2)'s
    own residual ρ_{a_2}(v'), nonzero, on the row loop
    (`ExactDomain`), the packed blocks and the probe: the fact the
    suffix-first decision rests on."""
    F = field_for_q(3)
    s, suffix = (2, 2, 2), (2, 2)
    ann = annihilator_mzv(F, s)
    motive, sub = Motive(F, s), Motive(F, suffix)
    tm, tsub = TModule.from_motive(motive), TModule.from_motive(sub)
    dom = {
        "exact": tm.exact,
        "packed": packed_ring(3),
        "probe": ProbeDomain(F, criterion.PROBE_DEGREE, 0),
    }[domain]
    v = motive.special_point_v()
    out = tm.apply_annihilator(v, ann.factors[:2], dom)
    residual = tsub.apply_annihilator(
        sub.special_point_v(), annihilator_mzv(F, suffix).factors, dom
    )
    assert out[tm.starts[1]:] == residual
    assert not tsub.is_zero_point(residual, dom)


@pytest.mark.parametrize("q,wmax", [(3, 26), (2, 8)])
def test_tower_verdicts_match_the_full_application(monkeypatch, q, wmax):
    """On every tuple of the acceptance sweep (depth <= 3), in the probe
    and, where the probe's full application leaves zero, in the packed
    exact ring: `is_eulerian` is the verdict of the whole annihilator
    applied to the tuple's own motive.  A tuple is pruned (builds no
    motive of its own) only at depth >= 3 and where its proper suffix,
    divided by p, is non-Eulerian, and there the full application is
    nonzero; some tuple is pruned."""
    F = field_for_q(q)
    real = criterion.Motive
    built = _motives_built(monkeypatch)
    pruned = []
    for s in enumerate_tuples(q, wmax, 3, False):
        built.clear()
        verdict = is_eulerian(F, s)
        reduced = verdict.reduced
        was_pruned = reduced not in built
        ann = annihilator_mzv(F, reduced)
        motive = real(F, reduced)
        tm, doms = criterion._ladder(motive)
        v = motive.special_point_v()
        for dom in doms:
            full = tm.apply_annihilator(v, ann.factors, dom)
            full_zero = tm.is_zero_point(full, dom)
            if not full_zero:
                break
        assert verdict.eulerian == full_zero, s
        if was_pruned:
            assert _suffix_verdict(F, reduced) is False, s
            assert not full_zero, s
            pruned.append(s)
    assert pruned


@pytest.mark.parametrize("q,wmax,rmax", [(3, 40, 3), (2, 12, 4)])
def test_suffix_memo_leaves_the_records_unchanged(q, wmax, rmax):
    """The sweep decided in a seeded shuffled order with the suffix
    memo kept, and again with it cleared before every call: the
    records, `elapsed_ms` dropped, are the same."""
    F = field_for_q(q)
    tuples = enumerate_tuples(q, wmax, rmax, False)
    shuffled = list(tuples)
    random.Random(2035).shuffle(shuffled)

    def record(s):
        out = is_eulerian(F, s).to_json()
        del out["elapsed_ms"]
        return out

    kept = {s: record(s) for s in shuffled}
    cleared = {}
    for s in tuples:
        criterion._SUFFIX_VERDICTS.clear()
        cleared[s] = record(s)
    assert [kept[s] for s in tuples] == [cleared[s] for s in tuples]


@pytest.mark.parametrize("q,wmax,count", [
    (2, 24, 78), (3, 60, 55), (5, 120, 21), (7, 210, 15),
])
def test_unreduced_suffixes_give_the_verdict(q, wmax, count):
    """The tower takes each suffix as it stands, not divided by p.  On
    every tuple of depth <= 2 up to wmax whose entries p·(q-1) divides,
    the torsion test on the motive of the tuple itself, with its own
    annihilator, tower or not, agrees with `is_eulerian`, which
    divides by p first."""
    F = field_for_q(q)
    step = (q - 1) * F.p
    tuples = [(a,) for a in range(step, wmax + 1, step)] + [
        (a, b) for a in range(step, wmax, step)
        for b in range(step, wmax - a + 1, step)
    ]
    assert len(tuples) == count
    for s in tuples:
        ann = annihilator_mzv(F, s)
        motive = Motive(F, s)
        want = is_eulerian(F, s)
        assert want.reduced != s
        assert criterion._annihilates(motive, ann) == want.eulerian, s
        full = criterion.AnnihilatorData(ann.factors)
        assert criterion._annihilates(motive, full) == want.eulerian, s


@pytest.mark.parametrize("q,wmax,count,eulerian", [
    (4, 24, 92, [(3,), (6,), (9,), (12,), (3, 9), (15,), (3, 12), (18,),
                 (21,), (24,), (6, 18)]),
    (9, 32, 14, [(8,), (16,), (24,), (32,)]),
    (5, 24, 41, [(4,), (8,), (12,), (16,), (20,), (4, 16), (24,), (4, 20)]),
], ids=["q4-exact-only", "q9-exact-only", "q5-two-byte-slots"])
def test_sweep_verdicts_are_pinned(q, wmax, count, eulerian):
    """The Eulerian tuples of depth <= 3 on fields no benchmark workload
    runs: q=4 and q=9, decided in exact arithmetic only, and q=5, whose
    probe packs each digit in a two-byte slot."""
    F = field_for_q(q)
    tuples = enumerate_tuples(q, wmax, 3, False)
    assert len(tuples) == count
    assert [s for s in tuples if is_eulerian(F, s).eulerian] == eulerian


# -- torsion witnesses vs the factored annihilator ---------------------------

def test_witness_found_exactly_for_eulerian_q3():
    F = field_for_q(3)
    for s in [(2,), (2, 4), (4, 2), (2, 2)]:
        ann = annihilator_mzv(F, s)
        verdict = is_eulerian(F, s)
        witness = torsion_witness(F, s, 2 * ann.degree)
        assert (witness is not None) == verdict.eulerian, s


def test_witness_degree_within_annihilator_degree():
    """On Eulerian instances the minimal witness divides (in degree) the
    constructed annihilator."""
    F3, F2 = field_for_q(3), field_for_q(2)
    for F, s in [(F3, (2, 4)), (F2, (1, 1)), (F2, (1, 2))]:
        ann = annihilator_mzv(F, s)
        w = torsion_witness(F, s, ann.degree)
        assert w is not None
        assert w.degree <= ann.degree


def test_torsion_is_confirmed_on_packed_digits_where_the_probe_runs(
    monkeypatch,
):
    """A probe zero is confirmed in F_p[θ] on packed digits, in the
    shared packed ring, for prime q < 256 and an integral point, a
    polylogarithm point in F_q[θ] included, also at q=131, where a
    packed sum takes two-byte slots; an extension field is confirmed
    on `Poly` coordinates, with no probe, and a polylogarithm point
    with a coordinate outside F_q[θ] (1/θ, non-Eulerian at (2,)) is
    decided on `RatFrac` coordinates alone."""
    seen = []
    real = TModule.apply_annihilator

    def spy(self, vec, factors, dom=None):
        seen.append(type(dom).__name__)
        return real(self, vec, factors, dom)

    monkeypatch.setattr(TModule, "apply_annihilator", spy)
    F3 = field_for_q(3)
    over_theta = RatFrac(Poly.one(F3), Poly.gen(F3))
    cases = [
        (lambda: is_eulerian(F3, (2, 4)), ["ProbeDomain", "PackedPoly"], True),
        (lambda: is_eulerian(field_for_q(131), (130,)),
         ["ProbeDomain", "PackedPoly"], True),
        (lambda: is_eulerian(field_for_q(4), (3, 9)), ["ExactDomain"], True),
        (lambda: is_cmpl_eulerian(F3, (2,), (1,)),
         ["ProbeDomain", "PackedPoly"], True),
        (lambda: is_cmpl_eulerian(F3, (2,), (over_theta,)),
         ["ExactDomain"], False),
    ]
    for run, domains, eulerian in cases:
        seen.clear()
        assert run().eulerian is eulerian
        assert seen == domains


# -- polylogarithm variant ---------------------------------------------------

def test_cmpl_depth_one_at_one_is_eulerian():
    F = field_for_q(3)
    v = is_cmpl_eulerian(F, (2,), (1,))
    assert v.eulerian
    assert v.conditional is False


def test_cmpl_conditional_flag():
    F = field_for_q(3)
    th = Poly.gen(F)
    v = is_cmpl_eulerian(F, (2,), (th ** 4,))
    assert v.conditional is True


def test_cmpl_rejects_zero_coordinate():
    F = field_for_q(3)
    with pytest.raises(ValueError):
        is_cmpl_eulerian(F, (2,), (0,))


@pytest.mark.parametrize("u", [-1, 9])
def test_cmpl_rejects_int_outside_element_codes(u):
    """An int coordinate is an element code in range(q): at q=9 the
    code 8 is 2+2y, not -1 (that is `field.neg(1)` = 2), so -1 and 9
    are refused rather than read mod q."""
    F = field_for_q(9)
    with pytest.raises(ValueError, match="range"):
        is_cmpl_eulerian(F, (8,), (u,))


def test_attached_polynomials_and_coordinates_are_checked():
    """An attached polynomial or a polylogarithm coordinate over another
    field, or a coordinate in t, is refused with a ValueError; an
    attached polynomial that is not a `BiPoly` is a TypeError."""
    F3, F5 = field_for_q(3), field_for_q(5)
    with pytest.raises(ValueError):
        Motive(F3, (2,), Q=[BiPoly(F5, [Poly(F5, [4, 3])])])
    with pytest.raises(TypeError):
        Motive(F3, (2,), Q=[Poly(F3, [1])])
    for u in (
        Poly(F5, [4, 3]),
        RatFrac(Poly.one(F5), Poly.gen(F5)),
        Poly(F3, [0, 1], var="t"),
    ):
        with pytest.raises(ValueError):
            is_cmpl_eulerian(F3, (2,), [u])


@pytest.mark.parametrize("rational", [False, True])
def test_attached_polynomial_with_coefficients_in_t_is_refused(rational):
    """A `BiPoly` whose coefficients are polynomials in t, not θ, used
    to be laid out as if in θ, giving the v of the same Q in θ; it is
    refused with a ValueError, integral or rational."""
    F3 = field_for_q(3)
    c = Poly(F3, [0, 1], var="t")
    if rational:
        Q = BiPoly(F3, [RatFrac.from_poly(c)], rational=True)
    else:
        Q = BiPoly(F3, [c])
    with pytest.raises(ValueError, match="in t"):
        Motive(F3, (2,), Q=[Q])


def test_cmpl_rational_point():
    F = field_for_q(3)
    th = Poly.gen(F)
    u = RatFrac(Poly.one(F), th)
    v = is_cmpl_eulerian(F, (2,), (u,))
    assert v.conditional is False
    assert isinstance(v.eulerian, bool)


# (q, wmax) of the polylogarithm corpora
CMPL_CORPUS = [(2, 6), (3, 12), (4, 9), (5, 16), (7, 18)]


def _cmpl_points(q, wmax, rmax):
    """Every tuple of depth <= rmax and weight <= wmax whose entries are
    divisible by q-1, each with one integral point: its coordinates
    drawn by random.Random(q) from the nonzero polynomials of degree
    <= 1."""
    F = field_for_q(q)
    nonzero = [Poly(F, [a, b]) for b in range(q) for a in range(q) if a or b]
    rng = random.Random(q)
    return [
        (s, [rng.choice(nonzero) for _ in s])
        for s in enumerate_tuples(q, wmax, rmax, False)
    ]


@pytest.mark.parametrize("rmax,over_theta,count,digest", [
    (3, False, 110,
     "6509c50f343bf6067774ac8456804240ebe92ba113977cfd266ad1edc660b9a7"),
    (2, True, 64,
     "7f9064cc7f47bc106de450870300368401f4488d510e4ff85d94525ea4c70563"),
], ids=["integral", "over-theta"])
def test_cmpl_verdicts_are_pinned(rmax, over_theta, count, digest):
    """The polylogarithm records (`to_json` without `elapsed_ms`) of
    every tuple of the corpora with its seeded integral point, and at
    depth <= 2 with each coordinate divided by θ, hashed by sha256."""
    records = []
    for q, wmax in CMPL_CORPUS:
        F = field_for_q(q)
        th = Poly.gen(F)
        for s, u in _cmpl_points(q, wmax, rmax):
            if over_theta:
                u = [RatFrac(x, th) for x in u]
            rec = is_cmpl_eulerian(F, s, u).to_json()
            del rec["elapsed_ms"]
            records.append(rec)
    assert len(records) == count
    got = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("q,wmax", CMPL_CORPUS)
def test_integral_point_verdicts_match_the_ratfrac_path(q, wmax):
    """Every integral point of the pinned corpus builds an integral
    motive, decided on the ladder of its field; the same point with
    each coordinate made a `RatFrac` builds a rational motive, decided
    on `RatFrac` coordinates.  The two agree."""
    F = field_for_q(q)
    for s, u in _cmpl_points(q, wmax, 3):
        Q = [BiPoly(F, [RatFrac.from_poly(x)], rational=True) for x in u]
        motive = Motive(F, s, Q=Q)
        assert motive.rational
        old = criterion._annihilates(motive, annihilator_cmpl(F, s))
        assert is_cmpl_eulerian(F, s, u).eulerian == old, s


# -- zeta-like search --------------------------------------------------------

def test_zetalike_delegates_when_weight_divisible():
    F = field_for_q(2)
    v = is_zeta_like(F, (1, 2))
    assert v.outcome == "reduced-to-eulerian"
    assert v.delegate.eulerian


def test_zetalike_search_finds_witness():
    F = field_for_q(3)
    v = is_zeta_like(F, (1, 2))
    assert v.outcome == "zeta-like"
    assert v.witness_a is not None and not v.witness_a.is_zero()
    assert (str(v.witness_a), str(v.witness_b)) == ("t^3 + 2*t", "1")


def test_negative_bound_is_rejected():
    """A negative degree bound used to reach the row build with no
    iterates and fail there with an IndexError."""
    F = field_for_q(3)
    with pytest.raises(ValueError, match="bound"):
        torsion_witness(F, (2, 4), -1)
    with pytest.raises(ValueError, match="bound"):
        is_zeta_like(F, (1, 2), bound=-1)
    with pytest.raises(ValueError, match="bound"):
        is_zeta_like(field_for_q(2), (1, 2), bound=-1)
    # a non-int bound used to fail with a TypeError inside range()
    with pytest.raises(ValueError, match="bound"):
        is_zeta_like(F, (1, 2), bound=2.5)
    with pytest.raises(ValueError, match="bound"):
        torsion_witness(F, (2, 4), 2.0)


@pytest.mark.parametrize(
    "s", [(2.5, 4.9), (2.0, 4), ("2", 4), (2, 4.0), (2.7,)]
)
def test_composition_entries_must_be_integers(s):
    """Entries used to be read with int(), so (2.5, 4.9) was decided as
    (2, 4) and (2.7,) built the motive of (2,)."""
    F = field_for_q(3)
    with pytest.raises(ValueError, match="integers"):
        is_eulerian(F, s)
    with pytest.raises(ValueError, match="integers"):
        Motive(F, s)
    with pytest.raises(ValueError, match="integers"):
        zeta_laurent(SeriesContext(F, prec=4), s)


def test_zetalike_q5_finishes_at_default_bound():
    """Exact only, the q = 5 search grew about 5x per +2 of bound (165 s
    at bound 20, default 25); the probe kernel rules it out at once."""

    def hang(signum, frame):
        raise TimeoutError("is_zeta_like over F_5 exceeded 10 s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        v = is_zeta_like(field_for_q(5), (1, 2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert v.bound == 25
    assert v.outcome == "none-up-to-bound"


# -- witness search against an exact-only reference --------------------------

ZETALIKE_Q3 = [
    (1, 2), (1, 4), (2, 1), (4, 1), (2, 3), (3, 2), (1, 1, 1), (1, 1, 3),
    (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1),
]
WITNESS_CASES = [
    (3, (2,), 12), (3, (2, 4), 24), (3, (4, 2), 12), (3, (2, 2), 12),
    (3, (2, 4), 12), (2, (1, 1), 6), (2, (1, 2), 8), (2, (1, 2, 4), 24),
    (3, (2, 2, 2), 15),
    # extension fields, exact domain only, and q = 5 (two-digit probe
    # slots at degree 2)
    (4, (3, 9), 24), (4, (3,), 8), (4, (3, 6), 12), (9, (8, 16), 10),
    (9, (8,), 9), (5, (4,), 10), (5, (4, 8), 15),
]
ZETALIKE_OTHER_Q = [(4, (1, 1), 8), (5, (1, 2), 10), (5, (2, 1), 6)]
# the answers before the witness search iterated ρ_t in its exact stage
PINNED_WITNESSES = {
    (4, (3, 9), 24): "t^20 + t^17 + t^8 + t^5",
    (4, (3,), 8): "t^4 + t",
    (9, (8, 16), 10): None,
    (9, (8,), 9): "t^9 + 2*t",
    (5, (4,), 10): "t^5 + 4*t",
}


def _reduction_iterates(motive, seeds, count):
    """[P, ρ_t(P), ..., ρ_{t^count}(P)] for the point P with the given
    seeds, each one reduction of the t^j-multiples of the seeds: the
    reduction is linear and commutes with t, so no ρ_t is applied."""
    F = motive.field
    T = motive.domain()
    t = Poly(F, [0, 1], var="t")
    tpow = Poly.one(F, var="t")
    out = []
    for _ in range(count + 1):
        scaled = [(n, T.mul(f, T.t_poly(tpow)), ell) for n, f, ell in seeds]
        out.append(motive.reduce_point(scaled))
        tpow = tpow * t
    return out


@lru_cache(maxsize=None)
def _exact_first_kernel_vector(q, s, bound, with_u):
    """The first nullspace basis vector of the exact system, built from
    the reduction iterates, read off the list-based `rref` on every
    field (the search's packed kernel is not used) and split into one
    polynomial per point: the witness the search must reproduce."""
    F = field_for_q(q)
    motive = Motive(F, s)
    groups = [motive.point_v_seeds()]
    if with_u:
        groups.append(motive.point_u_seeds())
    iters = [
        it for g in groups for it in _reduction_iterates(motive, g, bound)
    ]
    basis = rref_nullspace(F, _whole_scan(iters), len(iters))
    if not basis:
        return None
    n = bound + 1
    return tuple(
        str(Poly(F, basis[0][i:i + n], var="t"))
        for i in range(0, len(iters), n)
    )


@pytest.mark.parametrize("probe_degree", [criterion.PROBE_DEGREE, 2])
def test_witness_search_matches_exact_reference(monkeypatch, probe_degree):
    """Probe first, then exact: the same witness as the exact system.  At
    probe degree 2, with no floor of rows per column, the probe kernel
    is often too large and the search falls back to the exact domain;
    extension fields run it alone."""
    monkeypatch.setattr(criterion, "PROBE_DEGREE", probe_degree)
    if probe_degree == 2:
        monkeypatch.setattr(criterion, "WITNESS_ROWS_PER_COLUMN", 0)
    systems = []
    nullspace = criterion.nullspace

    def counting(field, columns):
        systems.append(len(columns))
        return nullspace(field, columns)

    monkeypatch.setattr(criterion, "nullspace", counting)
    for q, s, bound in WITNESS_CASES:
        w = torsion_witness(field_for_q(q), s, bound)
        got = None if w is None else (str(w),)
        assert got == _exact_first_kernel_vector(q, s, bound, False), (q, s)
        if (q, s, bound) in PINNED_WITNESSES:
            assert (w and str(w)) == PINNED_WITNESSES[q, s, bound], (q, s)
    cases = [(3, s, 11) for s in ZETALIKE_Q3] + ZETALIKE_OTHER_Q
    for q, s, bound in cases:
        v = is_zeta_like(field_for_q(q), s, bound)
        got = (
            (str(v.witness_a), str(v.witness_b))
            if v.outcome == "zeta-like"
            else None
        )
        assert got == _exact_first_kernel_vector(q, s, bound, True), (q, s)
    v = is_zeta_like(field_for_q(4), (1, 1), 8)
    assert v.outcome == "none-up-to-bound"
    # the packed searches that fell back built a second, exact system
    falls_back = len(systems) > len(WITNESS_CASES) + len(cases) + 1
    assert falls_back == (probe_degree == 2)


def _whole_scan(vectors):
    """The rows of a witness system whose column k is the iterate
    vectors[k]: one per (coordinate, digit) that is not identically
    zero, every coordinate padded to the longest and transposed whole.
    A coordinate is a `Poly`, read by its coefficients, or a `bytes`
    of digits."""
    rows = []
    for coords in zip(*vectors):
        digits = [tuple(getattr(c, "coeffs", c)) for c in coords]
        width = max(map(len, digits))
        padded = [d + (0,) * (width - len(d)) for d in digits]
        rows += (list(r) for r in zip(*padded) if any(r))
    return rows


@pytest.mark.parametrize("q,s,bound", [
    (4, (1, 1), 6), (2, (1, 2), 10), (3, (1, 2), 8), (5, (1, 3), 6),
    (17, (1, 2), 3),
])
def test_iterate_columns_match_whole_scan(q, s, bound):
    """The columns `TModule.iterates` lays out, transposed with their
    rows of zeros dropped, are the whole-coordinate scan of the
    iterates that `apply_t` steps one at a time, in the same order, in
    every domain the search can walk: the exact `Poly` iterates and the
    packed ring's row loop (p = 17), both read by their nonzero digits,
    the packed ring's blocks (p <= 13), each re-laid at its widest
    width, and the probe's points, d·deg digits each."""
    F = field_for_q(q)
    motive = Motive(F, s)
    tm, doms = criterion._ladder(motive)
    points = [
        motive.reduce_point(motive.point_v_seeds()),
        motive.reduce_point(motive.point_u_seeds()),
    ]
    for dom in [tm.exact] + doms:
        iters = []
        for point in points:
            cur = dom.convert_all(point)
            for _ in range(bound + 1):
                iters.append(cur)
                cur = tm.apply_t(cur, dom)
        columns = tm.iterates(points, bound + 1, dom)
        assert len(columns) == len(iters)
        assert len(set(map(len, columns))) == 1
        if dom is doms[0] and F.packed:
            assert len(columns[0]) == motive.d * dom.deg
        rows = [list(r) for r in zip(*columns) if any(r)]
        assert rows == _whole_scan(iters)


def test_zetalike_default_bound():
    assert default_zetalike_bound(3, 26) == 81
    assert default_zetalike_bound(2, 3) == 8


@pytest.mark.parametrize("s,want", [
    ((3, 12), ("t^12 + 2*t^10 + 2*t^6 + t^4", "1")),
    ((3, 14), ("t^12 + 2*t^10 + 2*t^6 + t^4", "1")),
    ((5, 12), ("t^18 + t^12 + t^6", "t^6 + t^4 + t^2 + 1")),
    ((2, 11), None),
])
def test_zetalike_at_the_default_bound(s, want):
    """q = 3 searches at their default bound 81, where the witness
    systems have 164 columns: the answers the list-based elimination
    gave before the kernel ran on packed columns."""
    v = is_zeta_like(field_for_q(3), s)
    assert v.bound == 81
    if want is None:
        assert v.outcome == "none-up-to-bound"
    else:
        assert v.outcome == "zeta-like"
        assert (str(v.witness_a), str(v.witness_b)) == want


def _compositions(w, r):
    """The compositions of w into r parts, in lexicographic order."""
    for cuts in combinations(range(1, w), r - 1):
        ends = (0,) + cuts + (w,)
        yield tuple(b - a for a, b in zip(ends, ends[1:]))


# sha256 of the json.dumps of [tuple, bound, outcome, witness_a,
# witness_b] for every q = 3 search of depth 2 or 3 at odd weight <= 13
# (203 tuples), weight then depth then lexicographic order, at the
# default bound: the answers of the search before its kernel took the
# iterates as columns
PINNED_Q3_SEARCHES = "17377ad8778a5475ee7c884745c1883133b9a201c9bd45552e450f4ae3411d1c"


def test_default_bound_q3_searches_match_their_pin():
    F = field_for_q(3)
    records, zeta_like = [], []
    for w in range(3, 14, 2):
        for r in (2, 3):
            for s in _compositions(w, r):
                v = is_zeta_like(F, s)
                a, b = v.witness_a, v.witness_b
                records.append([
                    list(s), v.bound, v.outcome,
                    str(a) if a else None, str(b) if b else None,
                ])
                if v.outcome == "zeta-like":
                    zeta_like.append(s)
    assert len(records) == 203
    assert zeta_like == [(1, 2), (1, 4), (1, 6), (1, 8), (3, 6), (1, 2, 6)]
    got = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert got == PINNED_Q3_SEARCHES


# searches whose probe system had more columns than rows at probe
# degree 21: their probe kernel was never empty, and the exact fallback
# reduced multiples of degree 125 (q = 5) and 49 (q = 7)
WIDE_SEARCHES = [
    (7, (1, 1)), (5, (1, 5)), (5, (2, 4)), (5, (3, 3)), (5, (5, 1)),
    (5, (1, 1, 4)), (5, (1, 2, 3)), (5, (2, 2, 2)), (5, (1, 4, 1)),
]


def test_wide_default_bound_searches_fit_in_memory():
    """Each search of `WIDE_SEARCHES` at its default bound answers
    none-up-to-bound in a child process capped at 1 GB of address
    space and 60 s: they used to raise MemoryError under that cap."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "import resource, signal\n"
        "resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))\n"
        "signal.alarm(60)\n"
        "from ffmzv.criterion import is_zeta_like\n"
        "from ffmzv.fields import field_for_q\n"
        f"for q, s in {WIDE_SEARCHES!r}:\n"
        "    print(is_zeta_like(field_for_q(q), s).outcome, flush=True)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["none-up-to-bound"] * len(WIDE_SEARCHES)


def test_zetalike_requires_depth_two():
    F = field_for_q(3)
    with pytest.raises(ValueError):
        is_zeta_like(F, (4,))


# -- suffix consistency ------------------------------------------------------

def test_suffix_consistency_clean():
    verdicts = {(2, 4): True, (4,): True, (4, 2): False, (2,): True}
    assert check_suffix_consistency(verdicts) == []


def test_suffix_consistency_detects_violation():
    verdicts = {(2, 4): True, (4,): False}
    assert check_suffix_consistency(verdicts) == [((2, 4), (4,))]


def test_suffix_consistency_requires_closure():
    with pytest.raises(KeyError):
        check_suffix_consistency({(2, 4): True})


def test_verdict_json_schema():
    F = field_for_q(3)
    d = is_eulerian(F, (2, 4)).to_json()
    assert set(d) == {
        "q", "modulus", "tuple", "weight", "depth",
        "eulerian", "precheck", "annihilator_degree", "elapsed_ms",
    }
    assert d["q"] == 3 and d["tuple"] == [2, 4] and d["eulerian"] is True


def test_warm_zetalike_search_builds_no_bipoly(monkeypatch):
    """A second `is_zeta_like(F3, (1, 2), 11)`, its H_n filled and their
    `BiPoly`s built by the first, builds no `BiPoly`: on a packed field
    the seeds, their products and `vanishes` run on packed rows."""
    F = field_for_q(3)
    first = is_zeta_like(F, (1, 2), 11)
    built = []
    init = BiPoly.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BiPoly, "__init__", counting)
    again = is_zeta_like(F, (1, 2), 11)
    assert again.outcome == first.outcome
    assert again.witness_a == first.witness_a
    assert built == []
