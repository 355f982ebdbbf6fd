"""End-to-end and per-layer benchmark of sphkde.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sphere-query --seed 1 --seconds 30 --trace 0

Workloads: sphere-query, density, region-map (see perfbench/README.md).  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics, taken
from every second round, the others being run untraced to measure the tracing
overhead.  The lines before it give the run's provenance and per-call timings.
The exit code is 0 when every call succeeded and every output passed its check.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / "_work"

# Median seconds of ``probe()`` on the reference host (see README).  Set-up,
# round and call times are reported at that host speed:
# measured * PROBE_REF_S / the run's median probe time.
PROBE_REF_S = 0.08

# End-to-end metrics: name -> unit.  Every workload reports each of them.
E2E_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "light_call_s": "s",
    "mid_call_s": "s",
    "heavy_call_s": "s",
}


def process_age() -> float:
    """Seconds since this process started, from /proc (0 where it is unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


def provenance() -> dict:
    import mpmath
    import numpy
    import scipy
    from sphkde import _kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": _kernels.BACKEND,
        "numba_imports": numba_imports,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS",
            "SPHKDE_DISABLE_NUMBA")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def probe() -> float:
    """Seconds of a fixed CPU task that does not touch sphkde: the host-speed probe.

    The host is shared, and its speed drifts by tens of percent over minutes.
    Timed before every round, in the same process, the probe measures that drift.
    """
    import numpy as np

    t = np.linspace(-1.0, 1.0, 256 * 1000).reshape(256, 1000)
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):              # interpreted integer work, as in mpmath
        acc += (i * i) % 7
    prev, cur = np.ones_like(t), t.copy()
    for ell in range(2, 24):              # array recurrences, as in the kernels
        prev, cur = cur, ((2.0 * ell - 1.0) * t * cur - (ell - 1.0) * prev) / ell
    return time.perf_counter() - t0


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    age_at_start = process_age()
    from spans import LAYER_METRICS, Tracer
    from workloads import TIERS, WORKLOADS

    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](seed, workdir)
        workload.prepare()
        workload.warm_up()
        setup_s = age_at_start + time.perf_counter() - T_START

        tracer = Tracer()
        calls = {"light": [], "mid": [], "heavy": [], "other": []}
        rounds = {False: [], True: []}          # traced? -> round seconds
        probes = []                             # host-speed probe before each round
        pending = []                            # (op, collected output) to verify
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        r = 0
        while r < (2 if trace else 1) or time.perf_counter() < deadline:
            traced = trace and r % 2 == 1
            ops = workload.round(r)
            probes.append(probe())
            if traced:
                tracer.install()
            round_s = 0.0
            try:
                for op in ops:
                    attempted += 1
                    t0 = time.perf_counter()
                    try:
                        result = tracer.call(f"op.{op.tier}", op.run) if traced else op.run()
                    except (Exception, SystemExit):
                        failed += 1
                        traceback.print_exc(file=sys.stderr)
                        continue
                    dt = time.perf_counter() - t0
                    round_s += dt
                    calls[op.tier].append(dt)
                    pending.append((op, op.collect(result)))
            finally:
                if traced:
                    tracer.uninstall()
            rounds[traced].append(round_s)
            r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors = []
        for op, output in pending:
            errors += op.verify(output)
        for line in errors:
            print(f"check failed: {line}", file=sys.stderr)

        if trace:
            overhead = 100.0 * (statistics.median(rounds[True]) / statistics.median(rounds[False]) - 1.0)
            values = tracer.layer_metrics(overhead)
            units = LAYER_METRICS
            tracer.dump(WORK / f"spans-{workload_name}-seed{seed}.json")
        else:
            measured = {
                "setup_s": setup_s,
                "round_s": statistics.median(rounds[False]),
                **{f"{tier}_call_s": statistics.median(calls[tier]) if calls[tier] else float("nan")
                   for tier in ("light", "mid", "heavy")},
            }
            speed = PROBE_REF_S / statistics.median(probes)
            values = {"peak_rss_mb": peak_rss_mb, **{name: v * speed for name, v in measured.items()}}
            units = E2E_METRICS
        summary = {
            "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
            "rounds": r, "round_s": {"untraced": rounds[False], "traced": rounds[True]},
            "attempted": attempted, "failed": failed, "check_errors": len(errors),
            "probe_s": probes, "measured_s": None if trace else measured,
            "calls": {tier: {"what": TIERS[workload_name].get(tier, "rest of the round"),
                             "count": len(ts), "median_s": statistics.median(ts) if ts else None}
                      for tier, ts in calls.items()},
        }
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        return {"summary": summary, "result": result}, not errors and failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sphere-query", "density", "region-map"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "sphkde" / "__init__.py").is_file():
        print(f"sphkde sources not found under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    out, ok = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out["summary"]["wall_s"] = process_age() or time.perf_counter() - T_START
    print(json.dumps({"provenance": provenance()}))
    print(json.dumps(out["summary"]))
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out, indent=1) + "\n")
    print(json.dumps(out["result"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
