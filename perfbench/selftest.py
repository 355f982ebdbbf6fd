"""Fast self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

It shows that the reference agrees with a direct sum, that every output
check accepts sphkde's real output and rejects it once perturbed by more than
the check's tolerance, and that a run prints exactly the metrics, with the
units, that BENCHMARK.json lists.  Exit code 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from scipy import special  # noqa: E402

import reference as ref  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def rejects(op, output, perturbed, what: str, needles: str) -> None:
    """The check passes on the real output and fails on the perturbed one."""
    good = op.verify(output)
    bad = op.verify(perturbed)
    expect(not good, f"{what}: real output passes {good[:1]}")
    expect(bool(bad) and all(n in "\n".join(bad) for n in needles.split("|")),
           f"{what}: perturbed output rejected {bad[:2]}")


def check_reference() -> None:
    rng = np.random.default_rng(3)
    xyz = ref.sample_vmf_mixture_s2(rng, 300, **wl.CLUSTERS)
    g = ref.symbol(2, 0.5, 300)
    exp = ref.SphereExpansion(xyz, g)
    theta, phi = rng.uniform(0, math.pi, 40), rng.uniform(-math.pi, math.pi, 40)
    st = np.sin(theta)
    pts = np.column_stack((st * np.cos(phi), st * np.sin(phi), np.cos(theta)))
    ells = np.arange(g.size)
    coef = g * (2 * ells + 1) / ref.FOUR_PI
    direct = np.array([(coef[:, None] * special.eval_legendre(ells[:, None], (xyz @ p)[None, :])).sum() / 300
                       for p in pts])
    worst = float(np.max(np.abs(exp.density(theta, phi) - direct)))
    expect(worst < 1e-12, f"sphere synthesis equals the direct Legendre sum ({worst:.1e})")
    full = exp.prob_rect((0.0, math.pi, -math.pi, math.pi))
    expect(abs(full - 1.0) < 1e-12, f"sphere full-domain probability is 1 ({full - 1:.1e})")
    thetas = rng.uniform(-math.pi, math.pi, 300)
    g1 = ref.symbol(1, 0.5, 300)
    cexp = ref.CircleExpansion(thetas, g1)
    t = rng.uniform(-math.pi, math.pi, 25)
    l1 = np.arange(1, g1.size + 1)
    direct1 = 1 / (2 * math.pi) + (g1[:, None, None] * np.cos(l1[:, None, None] * (t[None, :, None] - thetas[None, None, :]))
                                   ).sum(axis=(0, 2)) / (math.pi * 300)
    worst = float(np.max(np.abs(cexp.density(t) - direct1)))
    expect(worst < 1e-12, f"circle synthesis equals the direct cosine sum ({worst:.1e})")
    full = cexp.prob_arc((-math.pi, math.pi))
    expect(abs(full - 1.0) < 1e-12, f"circle full-domain probability is 1 ({full - 1:.1e})")


def check_sphere_query(tmp: Path) -> None:
    w = wl.SphereQuery(5, tmp)
    w.prepare()
    op = w._query("light", "clusters_1000.csv", ("1", None), (-10.0, 30.0, 170.0, -175.0), "t")
    op.run()
    report = op.collect(None)
    rejects(op, report, {**report, "probability": report["probability"] + 2 * wl.PROB_TOL},
            "sphere-query prob", "prob")
    rejects(op, report, {**report, "cutoff": report["cutoff"] + 1}, "sphere-query cutoff", "cutoff")


def check_density(tmp: Path) -> None:
    w = wl.Density(5, tmp)
    w.prepare()
    op = w._eval("warm_64.csv", (5, 9))
    op.run()
    cutoff, rows = op.collect(None)
    bumped = rows.copy()
    bumped[7, 2] += 2 * wl.DENSITY_TOL
    rejects(op, (cutoff, rows), (cutoff, bumped), "density eval grid", "eval grid")
    op = w._quad("warm_64.csv", (-70.0, -40.0, 100.0, 150.0), "t")
    op.run()
    report = op.collect(None)
    rejects(op, report, {**report, "probability": report["probability"] - 2 * wl.PROB_TOL},
            "density quadrature prob", "quadrature")
    for d, study in ((2, w.MISE_S2), (1, w.MISE_S1)):
        op = w._mise("heavy", d, study, 77, 64, 3, f"t{d}")
        op.run()
        report = op.collect(None)
        for field in ("mise_mean", "mise_stderr"):
            rows = [dict(r) for r in report["rows"]]
            rows[-1][field] *= 1 + 2 * wl.ISE_REL_TOL * rows[-1]["mise_mean"] / rows[-1][field]
            rejects(op, report, {**report, "rows": rows}, f"density mise d={d} {field}", field[5:])


def check_region_map(tmp: Path) -> None:
    w = wl.RegionMap(5, tmp)
    circle, sphere = wl._circle_dist(wl.TABLE4), wl._sphere_dist(wl.CLUSTERS)
    cases = [
        (1, circle, wl.TABLE4, w._months(0.3, 5)),
        (2, sphere, wl.CLUSTERS, w._tiles([0.0, 1.1, math.pi], 3, 0.4)),
    ]
    for d, dist, spec, regions in cases:
        op = w._table("heavy", d, dist, spec, (1.0, 2.0), 200, regions, 9)
        rows = op.collect(op.run())
        first = rows[0]
        for what, changed, needle in (
            ("kde probability", dataclasses.replace(
                first, kde_probs={**first.kde_probs, 1.0: first.kde_probs[1.0] + 2 * wl.SUM_TOL}),
             "table d|sum of kde"),
            ("true probability", dataclasses.replace(first, true_prob=first.true_prob + 2 * wl.SUM_TOL),
             "true prob|sum of true"),
            ("frequency", dataclasses.replace(first, frequency=first.frequency + 1.0 / 200),
             "frequency|sum of frequencies"),
        ):
            rejects(op, rows, [changed] + rows[1:], f"region-map d={d} {what}", needle)


class TinyQuery(wl.SphereQuery):
    name = "tiny"
    CASES = wl.SphereQuery.CASES[:1]
    WARM = wl.SphereQuery.WARM[:1]


def check_metric_names() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS),
           "BENCHMARK.json names the workloads that run.py runs")
    wl.WORKLOADS["tiny"], wl.TIERS["tiny"] = TinyQuery, wl.TIERS["sphere-query"]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        out, ok = bench.run("tiny", 3, 0.0, trace)
        printed = {k: v["unit"] for k, v in out["result"]["metrics"].items()}
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(ok and printed == listed,
               f"a --trace {int(trace)} run prints the {key} metrics of BENCHMARK.json "
               f"(missing {sorted(set(listed) - set(printed))}, extra {sorted(set(printed) - set(listed))})")
    expect(set(bench.E2E_METRICS) == {m["name"] for m in spec["end_to_end"]}
           and set(spans.LAYER_METRICS) == {m["name"] for m in spec["per_layer"]},
           "run.py and spans.py list the metrics of BENCHMARK.json")


def main() -> int:
    check_reference()
    bench.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
        check_sphere_query(Path(tmp))
        check_density(Path(tmp))
        check_region_map(Path(tmp))
    check_metric_names()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
