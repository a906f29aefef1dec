"""Command-line front end.

Subcommands: check, sweep, tmodule, zetalike, oracle {zeta,verify,
identities}, families, at-poly, bc.  Exit codes: 0 ok, 2 bad
configuration, 10 Eulerian / 11 non-Eulerian (single check only),
3 internal assertion failure.

Sweeps enumerate tuples by weight, then depth, then lexicographically
(all s_i divisible by q-1 when q >= 3; all tuples when q = 2), write an
append-only newline-delimited JSON store with a run-manifest header,
and emit a compact CSV summary next to it.  Reruns with an identical
configuration produce identical stores up to the elapsed_ms field.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .carlitz import cache_for
from .criterion import check_suffix_consistency, is_eulerian, is_zeta_like
from .families import compare_sweep, is_primitive, predicted_eulerian
from .fields import FieldSpec, composition, field_for_q
from .motive import Motive
from .oracle import (
    SeriesContext,
    run_identity_corpus,
    verify_verdict,
    zeta_laurent,
)
from .tmodule import TModule


class ConfigError(ValueError):
    """Invalid command-line configuration (exit code 2)."""


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_field_args(p):
    p.add_argument("--q", type=int, help="field size (prime power)")
    p.add_argument("--char-p", type=int, dest="char_p", help="characteristic")
    p.add_argument("--ext-e", type=int, dest="ext_e", default=None,
                   help="extension degree over the prime field (default 1)")
    p.add_argument("--modulus", type=str, default=None,
                   help="comma-separated modulus coefficients, ascending")


def _resolve_field(args) -> FieldSpec:
    if args.q is not None:
        if (args.char_p, args.ext_e, args.modulus) != (None, None, None):
            raise ConfigError(
                "give either --q or --char-p/--ext-e/--modulus, not both"
            )
        try:
            return field_for_q(args.q)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if args.char_p is None:
        raise ConfigError("a field is required: --q or --char-p/--ext-e")
    modulus = None
    if args.modulus:
        try:
            modulus = tuple(int(c) for c in args.modulus.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --modulus: {args.modulus!r}") from exc
    try:
        e = 1 if args.ext_e is None else args.ext_e
        return FieldSpec(args.char_p, e, modulus)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_tuple(text: str) -> tuple:
    try:
        return composition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --tuple {text!r}: {exc}") from exc


def _require_tuple(args) -> tuple:
    if not getattr(args, "tuple", None):
        raise ConfigError("--tuple is required")
    return _parse_tuple(args.tuple)


def _require_rmax(args) -> int:
    if args.rmax < 1:
        raise ConfigError("--rmax must be positive")
    return args.rmax


def _print_verdict(v, fmt: str):
    if fmt == "json":
        print(json.dumps(v.to_json()))
        return
    d = v.to_json()
    label = "Eulerian" if d["eulerian"] else "non-Eulerian"
    if d.get("outcome"):
        label = d["outcome"]
    print(f"tuple {tuple(d['tuple'])}  q={d['q']}  weight={d['weight']}"
          f"  depth={d['depth']}  ->  {label}")
    if d.get("precheck"):
        print(f"  precheck: {d['precheck']}")
    if d.get("annihilator_degree"):
        print(f"  annihilator degree: {d['annihilator_degree']}")
    if d.get("witness_a") is not None:
        print(f"  witness a = {d['witness_a']}")
        print(f"  witness b = {d['witness_b']}")
    if d.get("conditional"):
        print("  (conditional: convergence hypotheses unverified)")
    print(f"  elapsed: {d['elapsed_ms']} ms")


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------

def enumerate_tuples(q: int, wmax: int, rmax: int, primitive_only: bool):
    """All candidate tuples, by weight, then depth, then lexicographic.

    For q >= 3 only tuples with every entry divisible by q-1 appear
    (others are non-Eulerian by the divisibility precheck); for q = 2
    every tuple appears.
    """
    step = q - 1 if q >= 3 else 1

    def parts(weight, depth):
        # compositions of `weight` into `depth` multiples of `step`
        if depth == 1:
            if weight % step == 0 and weight >= step:
                yield (weight,)
            return
        first = step
        while first <= weight - step * (depth - 1):
            for rest in parts(weight - first, depth - 1):
                yield (first,) + rest
            first += step

    out = []
    for w in range(step, wmax + 1):
        for r in range(1, rmax + 1):
            for s in sorted(parts(w, r)):
                if primitive_only and not is_primitive(q, s):
                    continue
                out.append(s)
    return out


_WORKER_FIELDS = {}


def _field_for(key):
    if key not in _WORKER_FIELDS:
        p, e, modulus = key
        _WORKER_FIELDS[key] = FieldSpec(p, e, modulus)
    return _WORKER_FIELDS[key]


def _sweep_one(task):
    key, s = task
    v = is_eulerian(_field_for(key), s)
    return v.to_json()


def run_sweep(field: FieldSpec, tuples, jobs: int = 1):
    """Verdict JSON records for every tuple, in input order.  At most one
    worker per tuple: the pool starts all its workers at once."""
    key = (field.p, field.e, tuple(field.modulus))
    tasks = [(key, s) for s in tuples]
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [_sweep_one(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_one, tasks, chunksize=4))


def _csv_summary(records) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["tuple", "weight", "depth", "eulerian",
                 "precheck", "annihilator_degree"])
    for d in records:
        wr.writerow([
            " ".join(str(x) for x in d["tuple"]),
            d["weight"], d["depth"], d["eulerian"],
            d.get("precheck") or "", d.get("annihilator_degree"),
        ])
    return buf.getvalue()


def _write_store(path: str, manifest: dict, records):
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        fh.write(json.dumps({"manifest": manifest}) + "\n")
        for d in records:
            fh.write(json.dumps(d) + "\n")
    csv_path = out.with_suffix(out.suffix + ".csv")
    csv_path.write_text(_csv_summary(records))
    return csv_path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    field = _resolve_field(args)
    s = _require_tuple(args)
    v = is_eulerian(field, s)
    _print_verdict(v, args.format)
    return 10 if v.eulerian else 11


def cmd_sweep(args) -> int:
    field = _resolve_field(args)
    if args.wmax is None or args.wmax < 1:
        raise ConfigError("--wmax is required and must be positive")
    rmax = _require_rmax(args)
    if args.jobs < 1:
        raise ConfigError("--jobs must be positive")
    tuples = enumerate_tuples(field.q, args.wmax, rmax, args.primitive_only)
    records = run_sweep(field, tuples, jobs=args.jobs)

    verdicts = {tuple(d["tuple"]): d["eulerian"] for d in records}
    eulerian = sorted(
        (s for s, e in verdicts.items() if e),
        key=lambda s: (sum(s), len(s), s),
    )
    manifest = {
        "version": __version__,
        "command": "sweep",
        "q": field.q,
        "modulus": list(field.modulus) if field.e > 1 else None,
        "wmax": args.wmax,
        "rmax": rmax,
        "primitive_only": bool(args.primitive_only),
        "count": len(tuples),
    }
    if args.out:
        csv_path = _write_store(args.out, manifest, records)
        print(f"store: {args.out}")
        print(f"summary: {csv_path}")
    if args.format == "json":
        print(json.dumps({"manifest": manifest,
                          "eulerian": [list(s) for s in eulerian]}))
    elif args.format == "csv":
        sys.stdout.write(_csv_summary(records))
    else:
        print(f"checked {len(tuples)} tuples "
              f"(q={field.q}, weight <= {args.wmax}, depth <= {rmax})")
        print(f"Eulerian: {len(eulerian)}")
        for s in eulerian:
            print(f"  {s}")

    violations = []
    if not args.primitive_only:
        violations = check_suffix_consistency(verdicts)
        if violations:
            print(f"suffix-consistency VIOLATIONS: {violations}",
                  file=sys.stderr)
        elif args.format == "text":
            print("suffix consistency: ok")

    predicted = predicted_eulerian(field.q, args.wmax, rmax)
    report = compare_sweep(field.q, predicted, verdicts)
    if args.format == "text":
        print("family comparison (predicted list is CONJECTURAL):")
        print(f"  matches: {report.matches}")
        print(f"  computed-not-predicted: {report.false_positives}")
        print(f"  predicted-not-computed: {report.false_negatives}")
    elif args.format == "json" and not report.clean:
        print(json.dumps({"family_mismatch": {
            "computed_not_predicted": [list(s) for s in report.false_positives],
            "predicted_not_computed": [list(s) for s in report.false_negatives],
        }}), file=sys.stderr)
    return 3 if violations else 0


def cmd_tmodule(args) -> int:
    field = _resolve_field(args)
    s = _require_tuple(args)
    motive = Motive(field, s)
    tm = TModule.from_motive(motive)
    v = motive.special_point_v()
    print(f"t-module for s = {s} over F_{field.q}(θ): dimension {tm.d}")
    print("ρ_t =")
    print(tm.render())
    print("v =")
    for i, c in enumerate(v):
        print(f"  [{i}] {c}")
    return 0


def cmd_zetalike(args) -> int:
    field = _resolve_field(args)
    s = _require_tuple(args)
    if len(s) < 2:
        raise ConfigError("zetalike needs a tuple of depth >= 2")
    v = is_zeta_like(field, s, bound=args.bound)
    _print_verdict(v, args.format)
    if v.outcome == "reduced-to-eulerian" and args.format == "text":
        print(f"  Eulerian = {v.delegate.eulerian}")
    return 0


def cmd_oracle(args) -> int:
    field = _resolve_field(args)
    try:
        ctx = SeriesContext(field, prec=args.prec)
    except ValueError as exc:
        raise ConfigError(f"--prec: {exc}") from None
    if args.oracle_cmd == "zeta":
        s = _require_tuple(args)
        print(zeta_laurent(ctx, s))
        return 0
    if args.oracle_cmd == "verify":
        s = _require_tuple(args)
        verdict = is_eulerian(field, s)
        outcome = verify_verdict(ctx, s, verdict)
        print(f"tuple {s}: exact verdict "
              f"{'Eulerian' if verdict.eulerian else 'non-Eulerian'}, "
              f"numeric cross-check: {outcome}")
        return 3 if outcome == "inconsistent" else 0
    # identities
    results = run_identity_corpus(ctx)
    ok = True
    for name, passed in sorted(results.items()):
        print(f"  {name}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 3


def cmd_families(args) -> int:
    field = _resolve_field(args)
    if args.wmax is None or args.wmax < 1:
        raise ConfigError("--wmax is required and must be positive")
    rmax = _require_rmax(args)
    fams = sorted(
        predicted_eulerian(field.q, args.wmax, rmax),
        key=lambda f: (f.weight, f.depth, f.s),
    )
    if args.format == "json":
        print(json.dumps({
            "conjectural": True,
            "q": field.q,
            "wmax": args.wmax,
            "rmax": rmax,
            "tuples": [{"s": list(f.s), "tag": f.tag} for f in fams],
        }))
    else:
        print(f"CONJECTURAL primitive Eulerian tuples, q={field.q}, "
              f"weight <= {args.wmax}, depth 2..{rmax}:")
        for f in fams:
            print(f"  {f.s}  (weight {f.weight}, {f.tag})")
    return 0


def cmd_at_poly(args) -> int:
    field = _resolve_field(args)
    if args.n is None or args.n < 0:
        raise ConfigError("--n must be a nonnegative integer")
    print(cache_for(field).anderson_thakur(args.n))
    return 0


def cmd_bc(args) -> int:
    field = _resolve_field(args)
    if args.n is None or args.n < 0:
        raise ConfigError("--n must be a nonnegative integer")
    print(cache_for(field).bernoulli_carlitz(args.n))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ffmzv",
        description="Eulerian / zeta-like decision procedures for "
                    "multizeta values over F_q(θ).",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *formats):
        _add_field_args(p)
        p.add_argument("--format", choices=["text", "json", *formats],
                       default="text")

    p = sub.add_parser("check", help="decide one tuple (exit 10/11)")
    common(p)
    p.add_argument("--tuple", type=str)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="enumerate and decide a range")
    common(p, "csv")
    p.add_argument("--wmax", type=int)
    p.add_argument("--rmax", type=int, default=3)
    p.add_argument("--primitive-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", type=str, default=None,
                   help="NDJSON store path (CSV summary written alongside)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tmodule", help="print ρ_t and the point v")
    _add_field_args(p)
    p.add_argument("--tuple", type=str)
    p.set_defaults(func=cmd_tmodule)

    p = sub.add_parser("zetalike", help="zeta-like search / delegation")
    common(p)
    p.add_argument("--tuple", type=str)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_zetalike)

    p = sub.add_parser("oracle", help="Laurent-series numeric oracle")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    for name, hlp in [("zeta", "print a truncated multizeta value"),
                      ("verify", "cross-check the exact verdict"),
                      ("identities", "run the identity corpus")]:
        op = osub.add_parser(name, help=hlp)
        _add_field_args(op)
        op.add_argument("--prec", type=int, default=12)
        if name != "identities":
            op.add_argument("--tuple", type=str)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("families", help="conjectural Eulerian families")
    common(p)
    p.add_argument("--wmax", type=int)
    p.add_argument("--rmax", type=int, default=3)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("at-poly", help="print H_n")
    _add_field_args(p)
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_at_poly)

    p = sub.add_parser("bc", help="print BC(n)")
    _add_field_args(p)
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_bc)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 3


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
