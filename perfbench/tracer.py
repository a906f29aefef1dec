"""Outside-in tracing: spans around the library's public entry points.

`install` replaces each entry point below with a wrapper that records a
span (name, start, end, parent span, top-level call id).  Nothing in the
library changes; the wrappers are set on the classes and modules from
here.  Spans stay in memory and are written once, at the end of a pass.

A layer's self time is its spans' duration minus the part covered by
their child spans; `layer_metrics` reports self times and counts under
the names listed in LAYER_METRICS.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# per-layer metric name -> unit; the traced run reports every one
LAYER_METRICS = {
    "carlitz.h_n_s": "s",
    "carlitz.h_n_calls": "count",
    "carlitz.bc_s": "s",
    "carlitz.gamma_s": "s",
    "motive.rho_t_s": "s",
    "motive.rho_t_dim_sum": "count",
    "motive.point_s": "s",
    "motive.point_calls": "count",
    "tmodule.probe_setup_s": "s",
    "tmodule.probe_setup_calls": "count",
    "tmodule.probe_apply_s": "s",
    "tmodule.probe_apply_calls": "count",
    "tmodule.probe_conclusive_ratio": "ratio",
    "tmodule.exact_confirm_s": "s",
    "tmodule.exact_confirm_calls": "count",
    "criterion.annihilator_s": "s",
    "criterion.annihilator_degree_sum": "count",
    "criterion.self_s": "s",
    "linalg.nullspace_s": "s",
    "linalg.nullspace_calls": "count",
    "linalg.nullspace_rows_sum": "count",
    "oracle.power_sum_s": "s",
    "oracle.power_sum_calls": "count",
    "oracle.monic_enumerated": "count",
    "laurent.reconstruct_s": "s",
    "laurent.reconstruct_calls": "count",
    "trace.unattributed_s": "s",
}

# span names whose self time is reported as <name>_s
SPANS = [
    "carlitz.h_n", "carlitz.bc", "carlitz.gamma", "motive.rho_t",
    "motive.point", "tmodule.probe_setup", "tmodule.probe_apply",
    "tmodule.exact_confirm", "criterion.annihilator", "criterion.self",
    "linalg.nullspace", "oracle.power_sum", "laurent.reconstruct",
]


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, call id]
        self.spans = []
        self._stack = []
        self.call_id = None
        self.counts = Counter()

    def call(self, name, fn, args, kwargs):
        rec = [
            name,
            time.perf_counter(),
            None,
            self._stack[-1] if self._stack else -1,
            self.call_id,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a traced wrapper.  `name` is a span name
        or a function of (args, kwargs) giving one; `after(args, kwargs,
        result)` updates counters outside the span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            result = self.call(label, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def self_times(self):
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
            calls[name] += 1
        return out, calls

    def layer_metrics(self, pass_wall_s):
        self_s, calls = self.self_times()
        m = {f"{n}_s": self_s[n] for n in SPANS}
        m.update((f"{n}_calls", calls[n]) for n in SPANS
                 if f"{n}_calls" in LAYER_METRICS)
        probes = calls["tmodule.probe_apply"]
        m["tmodule.probe_conclusive_ratio"] = (
            self.counts["probe_nonzero"] / probes if probes else 0.0
        )
        for key in ("motive.rho_t_dim_sum", "criterion.annihilator_degree_sum",
                    "linalg.nullspace_rows_sum", "oracle.monic_enumerated"):
            m[key] = self.counts[key]
        m["trace.unattributed_s"] = pass_wall_s - sum(self_s.values())
        return m

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, call_id) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, call_id]))
                fh.write("\n")


def install(ffmzv) -> Tracer:
    """Wrap the entry points of every layer; returns the tracer."""
    from ffmzv import carlitz, criterion, motive, oracle, tmodule

    tr = Tracer()
    counts = tr.counts

    tr.wrap(carlitz.CarlitzCache, "anderson_thakur", "carlitz.h_n")
    tr.wrap(carlitz.CarlitzCache, "bernoulli_carlitz", "carlitz.bc")
    tr.wrap(carlitz.CarlitzCache, "gamma_ratio", "carlitz.gamma")

    def rho_t_dim(args, kwargs, result):
        counts["motive.rho_t_dim_sum"] += args[0].d

    tr.wrap(motive.Motive, "rho_t_entries", "motive.rho_t", rho_t_dim)
    tr.wrap(motive.Motive, "reduce_point", "motive.point")

    tr.wrap(tmodule.ProbeDomain, "__init__", "tmodule.probe_setup")

    def apply_domain(args, kwargs):
        dom = kwargs.get("dom", args[3] if len(args) > 3 else None)
        if isinstance(dom, tmodule.ProbeDomain):
            return "tmodule.probe_apply"
        return "tmodule.exact_confirm"

    def probe_outcome(args, kwargs, result):
        if apply_domain(args, kwargs) == "tmodule.probe_apply":
            counts["probe_nonzero"] += any(any(x) for x in result)

    tr.wrap(tmodule.TModule, "apply_annihilator", apply_domain, probe_outcome)

    def ann_degree(args, kwargs, result):
        counts["criterion.annihilator_degree_sum"] += result.degree

    tr.wrap(criterion, "annihilator_mzv", "criterion.annihilator", ann_degree)
    # the benchmark calls the package names; criterion calls its own
    for owner in (ffmzv, criterion):
        tr.wrap(owner, "is_eulerian", "criterion.self")
        tr.wrap(owner, "is_zeta_like", "criterion.self")

    def rows(args, kwargs, result):
        counts["linalg.nullspace_rows_sum"] += len(args[1])

    tr.wrap(criterion, "nullspace", "linalg.nullspace", rows)

    computed = set()

    def monic(args, kwargs, result):
        # the first call for (context, s, d) enumerates; later ones hit
        # the context's cache
        ctx, s, d = args
        if (id(ctx), s, d) not in computed:
            computed.add((id(ctx), s, d))
            counts["oracle.monic_enumerated"] += ctx.field.q ** d

    tr.wrap(oracle.SeriesContext, "power_sum", "oracle.power_sum", monic)
    tr.wrap(oracle, "rational_reconstruct", "laurent.reconstruct")
    return tr
