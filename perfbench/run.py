"""Benchmark of the ffmzv decision engine, run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

A run first starts SETUP_SAMPLES interpreters that only set up (import
ffmzv, build the fields, make the inputs) and time the calibration
kernel, then runs passes of the
workload, each in a fresh interpreter, while another pass still fits in
--seconds.  Untraced passes are timed against a calibration kernel
(calibrate.py).  With --trace 1 every pass is run twice, untraced and
then traced, and the per-layer metrics come from the traced copy.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a result file with the environment and
every per-call record goes to perfbench/out/.  --workload all runs the
four workloads in turn.

A call fails when it raises, runs past its time budget, returns a
decision that differs from the reference answers (then `correct` is
false as well) or, in the oracle, calls a correct verdict inconsistent.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 7
# no call starts later than this after the run began, so a run that
# hangs still ends well within three minutes
HARD_LIMIT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_norm": "kernel",
    "peak_rss_mb": "MB",
    "conclusive_share": "ratio",
}
# from the untraced passes of a traced run
UNTRACED = {
    "pass.wall_s": "s",
    "pass.kernel_ms": "ms",
    "calls.ms_p50": "ms",
    "calls.ms_p90": "ms",
    "calls.count": "count",
    "trace.overhead_s": "s",
}
PER_LAYER = {**tracer.LAYER_METRICS, **UNTRACED}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("CARLITZ_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, deadline):
    """Run worker.py once; returns (set-up seconds, last output line)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args,
           "--deadline", repr(deadline)]
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.time(), 0) + 20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a worker ran past the run's hard limit")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    setup_s = json.loads(lines[0])["ready"] - started
    return setup_s, json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    start = time.perf_counter()
    deadline = time.time() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    base = ["--workload", name, "--seed", str(seed)]
    setups = []  # set-up seconds scaled to calibrate.REFERENCE_KERNEL_S
    for _ in range(SETUP_SAMPLES):
        setup_s, out = spawn(base + ["--setup-only"], deadline)
        setups.append(setup_s * calibrate.REFERENCE_KERNEL_S / out["kernel_s"])
    passes = []  # (pass index, traced, result)
    longest = 0.0
    index = 0
    while True:
        t0 = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            args = base + ["--pass-index", str(index), "--trace", str(int(traced))]
            if traced:
                spans = OUT / f"spans-{name}-seed{seed}-pass{index}.jsonl"
                args += ["--spans", str(spans)]
            setup_s, result = spawn(args, deadline)
            passes.append((index, traced, {"setup_s": setup_s, **result}))
        longest = max(longest, time.perf_counter() - t0)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + longest > seconds or time.time() + longest > deadline:
            break
    return setups, passes


def summarize(setups, passes, trace):
    calls = [c for _, _, r in passes for c in r["calls"]]
    failures = [c for c in calls if c["status"] != "ok"]
    plain = [r for _, traced, r in passes if not traced]
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_norm": statistics.median(r["wall_norm"] for r in plain),
            "peak_rss_mb": max(r["rss_mb"] for r in plain),
            "conclusive_share": sum(c["conclusive"] for c in calls) / len(calls),
        }
        units = END_TO_END
    else:
        traced = [r for _, t, r in passes if t]
        metrics = {
            k: statistics.median(r["layers"][k] for r in traced)
            for k in tracer.LAYER_METRICS
        }
        ms = [c["ms"] for r in plain for c in r["calls"]]
        metrics["pass.wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["pass.kernel_ms"] = 1000 * statistics.median(
            r["kernel_s"] for r in plain
        )
        metrics["calls.ms_p50"] = statistics.median(ms)
        metrics["calls.ms_p90"] = statistics.quantiles(ms, n=10)[8]
        metrics["calls.count"] = len(ms)
        metrics["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced
        ) - metrics["pass.wall_s"]
        units = PER_LAYER
    return {
        "correct": not any(c["status"] == "wrong" for c in calls),
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, failures


def git_commit():
    """HEAD of the checkout's git repository, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ffmzv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "carlitz_cache_dir": "unset in every worker",
    }


def report(name, seed, seconds, trace, setups, passes):
    result, failures = summarize(setups, passes, trace)
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "result": result,
        "setup_samples_s": setups,
        "passes": [
            {"pass_index": i, "traced": t, **r} for i, t, r in passes
        ],
    }
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name}, seed {seed}, {len(passes)} passes, "
          f"{result['attempted']} calls, {result['failed']} failed -> "
          f"{path.relative_to(ROOT)}")
    for k, m in result["metrics"].items():
        print(f"  {k:34s} {m['value']:14.6f} {m['unit']}")
    plain = [r for _, traced, r in passes if not traced]
    print(f"  median pass wall time {statistics.median(r['wall_s'] for r in plain):.3f} s,"
          f" calibration kernel {1000 * statistics.median(r['kernel_s'] for r in plain):.3f} ms")
    if trace:
        top = max(tracer.SPANS, key=lambda n: result["metrics"][n + "_s"]["value"])
        print(f"  dominant layer by self time: {top}")
    seen = {}
    for c in failures:
        seen.setdefault((c["label"], c["status"]), [c, 0])[1] += 1
    for (label, status), (c, n) in seen.items():
        print(f"  FAILED {label} x{n}: {status} ({c.get('result')}; "
              f"reference: {c['source']})")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            setups, passes = run_workload(name, args.seed, args.seconds, args.trace)
            result = report(name, args.seed, args.seconds, args.trace, setups, passes)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        sys.exit(f"benchmark failed: {exc}")


if __name__ == "__main__":
    main()
