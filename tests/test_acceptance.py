"""The nine acceptance criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as
they complete; the slow classification sweeps are shared fixtures.
"""
import time

import pytest

from ffmzv.cli import enumerate_tuples, run_sweep
from ffmzv.criterion import (
    annihilator_mzv,
    check_suffix_consistency,
    is_eulerian,
    torsion_witness,
)
from ffmzv.families import compare_sweep, is_primitive, predicted_eulerian
from ffmzv.fields import field_for_q
from ffmzv.motive import Motive
from ffmzv.oracle import (
    SeriesContext,
    carlitz_formula_check,
    identity_check_chen,
    identity_check_q2_13,
    identity_check_q2_35,
    identity_check_thakur,
    verify_verdict,
)
from ffmzv.poly import Poly
from ffmzv.tmodule import TModule


def report(n, ok, desc, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {n}] {status}: {desc} ({elapsed:.1f}s)")
    assert ok, f"acceptance criterion {n} failed: {desc}"


@pytest.fixture(scope="module")
def sweep_q3():
    F = field_for_q(3)
    tuples = enumerate_tuples(3, 26, 3, False)
    t0 = time.perf_counter()
    records = run_sweep(F, tuples, jobs=4)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_q2():
    F = field_for_q(2)
    tuples = enumerate_tuples(2, 8, 3, False)
    t0 = time.perf_counter()
    records = run_sweep(F, tuples, jobs=4)
    return records, time.perf_counter() - t0


def test_acceptance_1_golden_tmodules():
    """Four hand-checked t-modules and points, exact arithmetic."""
    t0 = time.perf_counter()
    cases = [(3, (2, 4), 10), (2, (1, 2, 4), 17), (3, (4, 2), 8),
             (3, (2, 2, 2), 12)]
    ok = True
    for q, s, d in cases:
        t1 = time.perf_counter()
        F = field_for_q(q)
        motive = Motive(F, s)
        tm = TModule.from_motive(motive)
        v = motive.special_point_v()
        # full golden equality is asserted in test_motive; here: shape
        # and the per-case runtime budget
        ok = ok and tm.d == d and len(v) == d
        ok = ok and (time.perf_counter() - t1) < 5.0
    report(1, ok, "golden t-modules built exactly, < 5s each",
           time.perf_counter() - t0)


def test_acceptance_2_certified_verdicts():
    """ζ(2,4), ζ(1,2,4) Eulerian; ζ(4,2), ζ(2,2,2) not; < 30s total."""
    t0 = time.perf_counter()
    F3, F2 = field_for_q(3), field_for_q(2)
    got = (
        is_eulerian(F3, (2, 4)).eulerian,
        is_eulerian(F2, (1, 2, 4)).eulerian,
        is_eulerian(F3, (4, 2)).eulerian,
        is_eulerian(F3, (2, 2, 2)).eulerian,
    )
    elapsed = time.perf_counter() - t0
    ok = got == (True, True, False, False) and elapsed < 30
    report(2, ok, "four certified verdicts reproduced, < 30s", elapsed)


def test_acceptance_3_depth_one():
    """Depth 1: Eulerian iff (q-1) | n, for q in {2,3,4,5}, n <= 30."""
    t0 = time.perf_counter()
    ok = True
    for q in (2, 3, 4, 5):
        F = field_for_q(q)
        for n in range(1, 31):
            expected = n % (q - 1) == 0 if q > 2 else True
            if is_eulerian(F, (n,)).eulerian != expected:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    report(3, ok, "depth-1 classification for q in {2,3,4,5}, n <= 30",
           elapsed)


def test_acceptance_4_sweep_q3(sweep_q3):
    """q=3 depth <= 3, weight <= 26, even entries: the primitive
    Eulerian tuples of depth >= 2 are exactly the five known ones."""
    records, elapsed = sweep_q3
    found = sorted(
        tuple(d["tuple"]) for d in records
        if d["eulerian"] and d["depth"] >= 2 and is_primitive(3, d["tuple"])
    )
    expected = sorted([(2, 4), (2, 6), (8, 18), (6, 20), (2, 6, 18)])
    ok = found == expected and elapsed < 15 * 60
    report(4, ok, f"q=3 sweep found {found}, < 15min", elapsed)


def test_acceptance_5_sweep_q2(sweep_q2):
    """q=2 depth <= 3, weight <= 8: computed Eulerian set matches the
    conjectural classification exactly."""
    records, elapsed = sweep_q2
    verdicts = {tuple(d["tuple"]): d["eulerian"] for d in records}
    predicted = predicted_eulerian(2, 8, 3)
    rep = compare_sweep(2, predicted, verdicts)
    found = sorted(
        s for s, e in verdicts.items()
        if e and len(s) >= 2 and is_primitive(2, s)
    )
    ok = rep.clean and elapsed < 10 * 60
    report(5, ok, f"q=2 sweep matches the predicted list: {found}, < 10min",
           elapsed)


def test_acceptance_6_suffix_consistency(sweep_q3, sweep_q2):
    """Across both sweeps: an Eulerian tuple's proper suffix is
    Eulerian (zero violations).  `is_eulerian` prunes a tuple whose
    suffix is non-Eulerian, so pruned tuples pass by construction; the
    independent check is `test_tower_verdicts_match_the_full_application`
    in `test_criterion.py`, the whole annihilator applied to each
    tuple's own motive."""
    t0 = time.perf_counter()
    violations = []
    for records, _ in (sweep_q3, sweep_q2):
        verdicts = {tuple(d["tuple"]): d["eulerian"] for d in records}
        violations += check_suffix_consistency(verdicts)
    report(6, not violations, f"suffix consistency, violations={violations}",
           time.perf_counter() - t0)


def test_acceptance_7_identity_corpus():
    """Named closed-form identities at precision 12."""
    t0 = time.perf_counter()
    c2 = SeriesContext(field_for_q(2), prec=12)
    c3 = SeriesContext(field_for_q(3), prec=12)
    checks = {
        "carlitz q=2 n=1": carlitz_formula_check(c2, 1),
        "carlitz q=3 n=2": carlitz_formula_check(c3, 2),
        "carlitz q=3 n=4": carlitz_formula_check(c3, 4),
        "thakur q=2": identity_check_thakur(c2),
        "thakur q=3": identity_check_thakur(c3),
        "chen q=2 r=2 l=1": identity_check_chen(c2, 2, 1),
        "chen q=3 r=2 l=1": identity_check_chen(c3, 2, 1),
        "q2 zeta(1,3)": identity_check_q2_13(c2),
        "q2 zeta(3,5)": identity_check_q2_35(c2),
    }
    elapsed = time.perf_counter() - t0
    bad = [k for k, v in checks.items() if not v]
    ok = not bad and elapsed < 5 * 60
    report(7, ok, f"identity corpus at N=12, failures={bad}", elapsed)


def test_acceptance_8_numeric_cross_validation(sweep_q3):
    """verify_verdict never returns `inconsistent` on the q=3 sweep
    tuples at N=16 (inconclusive allowed — precision-limited cases)."""
    records, _ = sweep_q3
    t0 = time.perf_counter()
    ctx = SeriesContext(field_for_q(3), prec=16, degree_budget=16)
    inconsistent = []
    inconclusive = 0
    for d in records:
        s = tuple(d["tuple"])
        outcome = verify_verdict(ctx, s, d["eulerian"])
        if outcome == "inconsistent":
            inconsistent.append(s)
        elif outcome == "inconclusive":
            inconclusive += 1
    ok = not inconsistent
    report(
        8, ok,
        f"numeric cross-validation at N=16: 0 inconsistent, "
        f"{inconclusive} inconclusive of {len(records)}",
        time.perf_counter() - t0,
    )


def test_acceptance_9_property_suites():
    """Structural properties: the heavyweight item is annihilator-vs-
    nullspace agreement (q=3, depth <= 2, weight <= 12, witness bound
    2·deg a); the rest live in the per-module test files which this
    criterion re-exercises in sampled form."""
    t0 = time.perf_counter()
    F = field_for_q(3)
    ok = True

    # twist homomorphism + ring-hom spot checks
    th = Poly.gen(F)
    a, b = th ** 2 + th, th ** 3 + Poly.one(F)
    ok = ok and (a * b).twist(1) == a.twist(1) * b.twist(1)
    motive = Motive(F, (2, 4))
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    pa = Poly(F, [1, 1], var="t")
    pb = Poly(F, [0, 1, 2], var="t")
    ok = ok and tm.apply_poly(v, pa * pb) == tm.apply_poly(
        tm.apply_poly(v, pb), pa
    )

    # primitive reduction agreement
    for s in [(2,), (2, 4), (4, 2)]:
        sp = tuple(3 * x for x in s)
        ok = ok and (
            is_eulerian(F, s).eulerian == is_eulerian(F, sp).eulerian
        )

    # annihilator-vs-nullspace agreement, q=3 depth <= 2, weight <= 12
    tuples = [s for s in enumerate_tuples(3, 12, 2, False)]
    for s in tuples:
        ann = annihilator_mzv(F, s)
        verdict = is_eulerian(F, s)
        witness = torsion_witness(F, s, 2 * ann.degree)
        if (witness is not None) != verdict.eulerian:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5 * 60
    report(9, ok, "property suites incl. annihilator-vs-nullspace "
                  "(q=3, w <= 12), < 5min", elapsed)
