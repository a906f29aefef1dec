"""The four workloads: inputs made from the seed, one pass at a time.

A run of the benchmark is a series of passes, each in a fresh
interpreter, because a command-line user pays for the H_n cache and the
probe set-up on every invocation.  A pass is a fixed amount of work so
that its wall time is comparable across passes and seeds; the seed
chooses the order of the calls (and, for `sweep`, which slice).

Untraced passes are timed against a calibration kernel (calibrate.py),
because raw pass times on a shared host drift by 10-20% from minute to
minute; so one or two passes per run are enough.

* sweep: every tuple of the two acceptance sweeps (q=3 w<=26 r<=3, then
  q=2 w<=8 r<=3; 469 tuples, about 47 s serial) is too much for one
  run, so the list in enumeration order is dealt into SWEEP_SLICES
  interleaved slices of nearly equal cost (within 6% at the commit that
  introduced the benchmark); pass i runs slice (seed + i) mod
  SWEEP_SLICES.  Many cheap verdicts, so per-call fixed costs (probe
  set-up, ρ_t) dominate.
* weight80: the three conjectural weight-80 Eulerian tuples at q=3 plus
  the non-Eulerian (8,10,62): d up to 214, annihilator degree up to
  204.  Few expensive verdicts; the only workload with real
  exact-confirm work.  One fixed non-Eulerian tuple, not a seeded draw
  of four: candidates cost 3-10 s each, so four draws would not fit a
  run and would make the pass cost depend on the seed.
* zetalike: is_zeta_like at q=3, bound 11, on all 13 compositions of
  weight 3 or 5 with depth 2-3.  Exercises point reductions and the
  linear system build; no probe.  The default bound (27 at w=5) does
  not finish.
* oracle: verify_verdict at N=20 on the 377 q=3 sweep tuples, with
  verdicts from the reference answers, so no decision-engine code runs.
  Power sums dominate.  The seed commit raises nine false alarms here.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import reference

SWEEP_SLICES = 12
WEIGHT80 = [(18, 62), (26, 54), (8, 18, 54), (8, 10, 62)]
ORACLE_PREC = 20


@dataclass(frozen=True)
class Call:
    """One public library call and the check of its result."""

    label: str
    run: Callable[[], object]
    # result -> (status, conclusive); status is "ok", "wrong" (a decision
    # differs from the reference) or "false_alarm" (the oracle calls a
    # correct verdict inconsistent)
    check: Callable[[object], tuple]
    source: str


@dataclass(frozen=True)
class Workload:
    name: str
    # about ten times the slowest call at the commit that introduced the
    # benchmark, so a regression that hangs fails the call, not the run
    call_budget_s: float
    build: Callable  # (ffmzv module, seed, pass index) -> list[Call]


def compositions(step: int, wmax: int, rmax: int, rmin: int = 1):
    """Compositions with entries divisible by `step`, weight <= wmax and
    depth rmin..rmax, by weight, then depth, then lexicographic (the
    order of the command-line sweep)."""

    def parts(weight, depth):
        if depth == 1:
            if weight % step == 0 and weight >= step:
                yield (weight,)
            return
        for first in range(step, weight - step * (depth - 1) + 1, step):
            for rest in parts(weight - first, depth - 1):
                yield (first,) + rest

    return [
        s
        for w in range(1, wmax + 1)
        for r in range(rmin, rmax + 1)
        for s in sorted(parts(w, r))
    ]


def sweep_tuples():
    """(q, s) for the two acceptance sweeps, in enumeration order."""
    return [(3, s) for s in compositions(2, 26, 3)] + [
        (2, s) for s in compositions(1, 8, 3)
    ]


def _shuffled(items, name, seed, pass_index):
    items = list(items)
    random.Random(f"{name}:{seed}:{pass_index}").shuffle(items)
    return items


def _label(q, s):
    return f"q{q}:" + ",".join(map(str, s))


def _eulerian_call(ffmzv, field, s):
    expected, source = reference.eulerian(field.q, s)
    return Call(
        _label(field.q, s),
        lambda: ffmzv.is_eulerian(field, s),
        lambda v: ("ok" if v.eulerian == expected else "wrong", True),
        source,
    )


def build_sweep(ffmzv, seed, pass_index):
    fields = {q: ffmzv.field_for_q(q) for q in (2, 3)}
    k = (seed + pass_index) % SWEEP_SLICES
    items = sweep_tuples()[k::SWEEP_SLICES]
    return [
        _eulerian_call(ffmzv, fields[q], s)
        for q, s in _shuffled(items, "sweep", seed, pass_index)
    ]


def build_weight80(ffmzv, seed, pass_index):
    field = ffmzv.field_for_q(3)
    return [
        _eulerian_call(ffmzv, field, s)
        for s in _shuffled(WEIGHT80, "weight80", seed, pass_index)
    ]


def build_zetalike(ffmzv, seed, pass_index):
    field = ffmzv.field_for_q(3)
    bound = reference.ZETALIKE_BOUND

    def call(s):
        expected, source = reference.zeta_like(s)
        return Call(
            _label(3, s),
            lambda: ffmzv.is_zeta_like(field, s, bound=bound),
            lambda z: (
                "ok" if z.outcome == expected else "wrong",
                z.outcome == "zeta-like",
            ),
            source,
        )

    tuples = [s for s in compositions(1, 5, 3, rmin=2) if sum(s) in (3, 5)]
    return [call(s) for s in _shuffled(tuples, "zetalike", seed, pass_index)]


def build_oracle(ffmzv, seed, pass_index):
    field = ffmzv.field_for_q(3)
    ctx = ffmzv.SeriesContext(
        field, prec=ORACLE_PREC, degree_budget=ORACLE_PREC
    )

    def call(s):
        verdict, source = reference.eulerian(3, s)
        return Call(
            _label(3, s),
            lambda: ffmzv.verify_verdict(ctx, s, verdict),
            lambda out: (
                "false_alarm" if out == "inconsistent" else "ok",
                out == "consistent",
            ),
            source,
        )

    return [
        call(s)
        for s in _shuffled(compositions(2, 26, 3), "oracle", seed, pass_index)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 10.0, build_sweep),
        Workload("weight80", 60.0, build_weight80),
        Workload("zetalike", 30.0, build_zetalike),
        Workload("oracle", 60.0, build_oracle),
    )
}
