"""One pass of one workload, in a fresh interpreter.

Started by run.py with the checkout's `src` on PYTHONPATH.  Prints the
time.time() at which ffmzv is imported, the fields are built and the
inputs are made (the end of set-up), then runs every call of the pass under a
per-call time budget and prints one JSON line with the per-call records
and, for an untraced pass, the calibration (calibrate.py).
With --setup-only it times the calibration kernel after set-up and
exits.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import calibrate
import workloads


class CallTimeout(BaseException):
    """A call ran past its budget.  A BaseException, so no handler in the
    library can swallow it."""


def _on_alarm(signum, frame):
    raise CallTimeout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, required=True,
                    help="time.time() after which no call runs")
    ap.add_argument("--spans", help="file for the spans of a traced pass")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import ffmzv

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(ffmzv.__file__).resolve().parents:
        sys.exit(f"ffmzv imported from {ffmzv.__file__}, not from {src}")
    wl = workloads.WORKLOADS[args.workload]
    calls = wl.build(ffmzv, args.seed, args.pass_index)
    print(json.dumps({"ready": time.time()}), flush=True)
    if args.setup_only:
        print(json.dumps({"kernel_s": calibrate.kernel_time()}), flush=True)
        return

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install(ffmzv)
    signal.signal(signal.SIGALRM, _on_alarm)
    # untraced passes are calibrated; the sampler's own time is taken out
    # of every measured interval
    sampler = calibrate.Sampler()

    def since(t0, spent0):
        return time.perf_counter() - t0 - (sampler.spent - spent0)

    records = []
    with contextlib.nullcontext() if tracer else sampler:
        start = time.perf_counter()
        for i, call in enumerate(calls):
            budget = min(wl.call_budget_s, args.deadline - time.time())
            rec = {"label": call.label, "source": call.source}
            if budget <= 0:
                records.append({**rec, "status": "timeout", "ms": 0.0,
                                "conclusive": False})
                continue
            if tracer is not None:
                tracer.call_id = i
            t0, spent0 = time.perf_counter(), sampler.spent
            try:
                signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    result = call.run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                ms = since(t0, spent0) * 1000
                status, conclusive = call.check(result)
                rec["result"] = str(getattr(result, "outcome", None)
                                    or getattr(result, "eulerian", result))
            except CallTimeout:
                ms, status, conclusive = since(t0, spent0) * 1000, "timeout", False
            except Exception:  # a failed call is recorded, the pass goes on
                ms, status, conclusive = since(t0, spent0) * 1000, "error", False
                rec["result"] = traceback.format_exc(limit=-3)
            records.append({**rec, "status": status, "ms": ms,
                            "conclusive": conclusive})
        wall_s = since(start, 0.0)

    out = {
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": records,
    }
    if tracer is None:
        out["kernel_s"] = sampler.kernel_s()
        out["kernel_samples"] = len(sampler.samples)
        out["wall_norm"] = wall_s / out["kernel_s"]
    else:
        out["layers"] = tracer.layer_metrics(wall_s)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
