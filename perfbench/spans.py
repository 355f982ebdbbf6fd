"""Spans and counters recorded around the calls into sphkde's layers.

The benchmark does not change the program.  In a traced round it replaces the
module and class attributes through which one layer calls the next with thin
wrappers that open a span (name, start, end, parent) and bump counters, and it
puts the originals back when the round ends.  Spans stay in memory; the run
writes them out once, at its end.  A layer's self time is the sum of its spans
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import sphkde.cli as cli
import sphkde._kernels as kernels
import sphkde.evaluation as evaluation
import sphkde.probability as probability
import sphkde.sampling as sampling
import sphkde.specfun as specfun

# Per-layer metrics: name -> unit.  Every traced run reports each of them, per
# traced round (zero where the workload leaves that layer idle).
LAYER_METRICS = {
    "cli.load_sample.s": "s",
    "cli.output.s": "s",
    "kernels.s2_kde_values.s": "s",
    "kernels.s2_kde_values.pair_terms": "count",
    "kernels.s1_kde_values.s": "s",
    "kernels.s1_kde_values.pair_terms": "count",
    "kernels.s2_prob_datasums.s": "s",
    "kernels.s2_prob_datasums.calls": "count",
    "kernels.s2_prob_datasums.terms": "count",
    "kernels.s1_prob_sums.s": "s",
    "kernels.s1_prob_sums.calls": "count",
    "probability.tables_double.s": "s",
    "probability.tables_extended.s": "s",
    "probability.rects": "count",
    "probability.quadrature.s": "s",
    "specfun.beta_mp.calls": "count",
    "specfun.beta_mp.misses": "count",
    "specfun.beta_mp.hit_ratio": "ratio",
    "specfun.beta_mp.cross_rect_hit_ratio": "ratio",
    "specfun.beta_double.calls": "count",
    "evaluation.ise.s": "s",
    "evaluation.table.s": "s",
    "sampling.sample.s": "s",
    "sampling.true_density.s": "s",
    "sampling.region_prob.s": "s",
    "trace.overhead_pct": "%",
}


def _s2_kde_terms(obs_xyz, coef, pts_xyz):
    return {"kernels.s2_kde_values.pair_terms": pts_xyz.shape[0] * obs_xyz.shape[0] * coef.size}


def _s1_kde_terms(obs, gcoef, pts):
    return {"kernels.s1_kde_values.pair_terms": pts.size * obs.size * gcoef.size}


def _datasum_terms(u, phi, nmax, phi1, phi2):
    return {"kernels.s2_prob_datasums.calls": 1,
            "kernels.s2_prob_datasums.terms": u.size * (nmax + 1) * (nmax + 2) // 2}


def _extended_rect(sample, cfg, rect, bits):
    # a cold beta-kernel cache misses once per (m, k) with 1 <= m <= k <= cutoff
    return {"probability.rects": 1,
            "specfun.beta_mp.cold_keys": cfg.cutoff * (cfg.cutoff + 1) // 2}


_DISTRIBUTIONS = (sampling.UniformDistribution, sampling.VmfDistribution,
                  sampling.VmfMixtureDistribution)

# (owner, attribute, span name or None for a counter only, counter function)
PROBES = [
    (cli, "load_sample", "cli.load_sample", None),
    (cli, "_sha256", "cli.output", None),
    (cli, "_manifest", "cli.output", None),
    (cli, "_write_csv", "cli.output", None),
    (cli, "_write_manifest", "cli.output", None),
    (cli, "_atomic_write", "cli.output", None),
    (cli, "quadrature_prob", "probability.quadrature", None),
    (kernels, "s2_kde_values", "kernels.s2_kde_values", _s2_kde_terms),
    (kernels, "s1_kde_values", "kernels.s1_kde_values", _s1_kde_terms),
    (kernels, "s2_prob_datasums", "kernels.s2_prob_datasums", _datasum_terms),
    (kernels, "s1_prob_sums", "kernels.s1_prob_sums",
     lambda *a: {"kernels.s1_prob_sums.calls": 1}),
    (probability, "_rect_coef_tables_double", "probability.tables_double", None),
    (probability, "_prob_rect_s2_extended", "probability.tables_extended", _extended_rect),
    (probability, "_prob_rect_s2_double", None, lambda *a: {"probability.rects": 1}),
    (probability, "_beta_kernel_double", None, lambda *a: {"specfun.beta_double.calls": 1}),
    (evaluation, "integrated_squared_error", "evaluation.ise", None),
    (evaluation, "run_probability_table", "evaluation.table", None),
] + [
    (cls, attr, name, None)
    for cls in _DISTRIBUTIONS
    for attr, name in (("sample", "sampling.sample"), ("density", "sampling.true_density"),
                       ("region_prob", "sampling.region_prob"))
]


class Tracer:
    """In-memory spans and counters for the traced rounds of one run."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.rounds = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``, a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts.update(counter(*args, **kwargs))
            if name is None:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Start a traced round: wrap every probe and note the beta-kernel cache."""
        self.rounds += 1
        self._cache_before = specfun._beta_kernel_mp.cache_info()
        for owner, attr, name, counter in PROBES:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        after = specfun._beta_kernel_mp.cache_info()
        self.counts["specfun.beta_mp.hits"] += after.hits - self._cache_before.hits
        self.counts["specfun.beta_mp.misses"] += after.misses - self._cache_before.misses

    def self_times(self) -> Counter:
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def layer_metrics(self, overhead_pct: float) -> dict[str, float]:
        rounds = max(self.rounds, 1)
        selft = self.self_times()
        c = self.counts
        calls = c["specfun.beta_mp.hits"] + c["specfun.beta_mp.misses"]
        cold = c["specfun.beta_mp.cold_keys"]
        values = {
            name: (selft[name[:-2]] if name.endswith(".s") else c[name]) / rounds
            for name in LAYER_METRICS
        }
        values["specfun.beta_mp.calls"] = calls / rounds
        values["specfun.beta_mp.hit_ratio"] = c["specfun.beta_mp.hits"] / calls if calls else 0.0
        values["specfun.beta_mp.cross_rect_hit_ratio"] = (
            1.0 - c["specfun.beta_mp.misses"] / cold if cold else 0.0)
        values["trace.overhead_pct"] = overhead_pct
        return values

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
