"""The benchmark's three workloads and the checks on their outputs.

Each workload is one process with one caller (a closed loop).  It runs whole
rounds; every round makes the same public calls, on inputs drawn from the
benchmark seed and the round number.  Each call is an ``Op`` with three
parts: ``run`` is the timed call into sphkde, ``collect`` reads what it
wrote (untimed, right after), and ``verify`` compares that with the
reference module once the timed loop is over.

Every call sits in a tier -- light, mid or heavy -- that names the same
metric on every workload; ``TIERS`` says which call that is on each.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
import sphkde.cli as cli
from sphkde import evaluation
from sphkde.geometry import arc_region, point_from_angle, rect_region, sphere_from_xyz
from sphkde.sampling import SeededRng, VmfMixtureDistribution, VmfMixtureSpec, VmfSpec

# Check tolerances.  The reference agrees with sphkde to ~1e-15 on
# probabilities and densities and ~1e-14 relative on ISE; acceptance
# criterion 4 asks for 1e-6 up to cutoff 20 and 1e-8 at cutoff 92, and
# criterion 3 for a full-domain sum within 1e-9.
PROB_TOL = 1e-10
DENSITY_TOL = 1e-10
ISE_REL_TOL = 1e-9
SUM_TOL = 1e-9
TRUE_PROB_TOL = 1e-9

# Clustered three-component sphere mixture (sphere-query, density eval and
# quadrature, region-map on the sphere).
CLUSTERS = dict(weights=(0.5, 0.3, 0.2), mus=((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, -0.6, -0.8)),
                kappas=(8.0, 12.0, 20.0))
# Acceptance criterion 7's two-component sphere mixture.
CRIT7 = dict(weights=(0.5, 0.5), mus=((0.0, 0.0, 1.0), (0.0, -1.0, 0.0)), kappas=(12.0, 10.0))
# The paper's Table-4 circle mixture (mean angles in radians).
TABLE4 = dict(weights=(0.2, 0.3, 0.1, 0.4), mus=(0.0, math.pi / 3, math.pi / 4, -math.pi / 2),
              kappas=(4.0, 6.0, 10.0, 12.0))

TIERS = {
    "sphere-query": {"light": "prob, cutoff 8", "mid": "prob, cutoff 19",
                     "heavy": "prob, cutoff 92"},
    "density": {"light": "eval --grid 33x65, cutoff 19", "mid": "prob --method quadrature, cutoff 19",
                "heavy": "mise, sphere criterion-7 mixture"},
    "region-map": {"light": "table, circle months", "mid": "table, sphere zonal bands",
                   "heavy": "table, sphere lat/lon tiles"},
}


@dataclass
class Op:
    tier: str                        # "light", "mid", "heavy" or "other" (round time only)
    run: Callable[[], Any]           # the timed call; raises on failure
    collect: Callable[[Any], Any]    # untimed: read the call's output
    verify: Callable[[Any], list]    # after the loop: list of error strings


def cli_main(argv: list[str]) -> None:
    """One in-process ``sphkde`` command; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"sphkde {argv[0]} exited {rc}")


def _sphere_dist(spec) -> VmfMixtureDistribution:
    comps = tuple(VmfSpec(d=2, mu=sphere_from_xyz(*mu), kappa=k)
                  for mu, k in zip(spec["mus"], spec["kappas"]))
    return VmfMixtureDistribution(VmfMixtureSpec(weights=spec["weights"], components=comps))


def _circle_dist(spec) -> VmfMixtureDistribution:
    comps = tuple(VmfSpec(d=1, mu=point_from_angle(mu), kappa=k)
                  for mu, k in zip(spec["mus"], spec["kappas"]))
    return VmfMixtureDistribution(VmfMixtureSpec(weights=spec["weights"], components=comps))


def _close(what: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{what}: got {got!r}, reference {want!r}, |diff| {abs(got - want):.3e} > {tol:g}"]
    return []


def _write_sample_csv(path: Path, xyz: np.ndarray) -> None:
    lines = ["x1,x2,x3"] + [",".join(format(float(v), ".17g") for v in row) for row in xyz]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_sample_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.rng = np.random.default_rng([seed, 0])
        self._expansions: dict = {}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def round_rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r + 1])

    def round_seed(self, r: int) -> int:
        """A seed for the program's own sampler; round -1 is the warm-up."""
        return self.seed * 10000 + 10 * (r + 1)

    def sphere_expansion(self, csv: str, s: float, r: int | None = None) -> ref.SphereExpansion:
        key = (csv, s, r)
        if key not in self._expansions:
            xyz = _read_sample_csv(Path(csv))
            self._expansions[key] = ref.SphereExpansion(xyz, ref.symbol(2, s, xyz.shape[0], r))
        return self._expansions[key]

    def prepare(self) -> None:
        """Write the input files (part of set-up)."""

    def warm_up(self) -> None:
        """One untimed call per operation kind, on inputs no timed call uses."""

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sphere-query

class SphereQuery(Workload):
    """One-shot ``sphkde prob`` calls on a clustered sphere sample read from CSV.

    Every box gets its own theta-bounds: the 256-bit path caches beta kernels
    by theta-bounds only, and a CLI user starts each query with a cold cache.
    """
    name = "sphere-query"
    # (tier, data file, estimator flags, base boxes as lat_min, lat_max, lon_min, lon_max)
    CASES = [
        ("light", "clusters_1000.csv", ("1", None),
         [(-35.0, 5.0, -70.0, -10.0), (15.0, 50.0, 140.0, -160.0), (-80.0, -45.0, 20.0, 110.0)]),
        ("mid", "clusters_1000.csv", ("0.5", None),
         [(-20.0, 25.0, 60.0, 130.0), (30.0, 70.0, 160.0, -150.0), (-60.0, -20.0, -150.0, -80.0)]),
        ("heavy", "clusters_1630.csv", ("0.05", "6"), [(-25.0, 15.0, -50.0, 20.0)]),
    ]
    WARM = [("clusters_1000.csv", ("1", None), (40.0, 75.0, -100.0, -30.0)),
            ("clusters_1000.csv", ("0.5", None), (-50.0, -5.0, 100.0, 170.0))]
    # Enough to give every query its own theta-bounds, small enough that every
    # round does the same work.
    JITTER_DEG = 0.01
    SIZES = {"clusters_1000.csv": 1000, "clusters_1630.csv": 1630}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.theta_bounds: set = set()

    def prepare(self):
        for name, n in self.SIZES.items():
            _write_sample_csv(self.dir / name, ref.sample_vmf_mixture_s2(self.rng, n, **CLUSTERS))

    def _query(self, tier, data, flags, box, tag) -> Op:
        if box[:2] in self.theta_bounds:
            raise ValueError(f"theta-bounds {box[:2]} reused; every query needs its own")
        self.theta_bounds.add(box[:2])
        s, r = flags
        out = self.path(f"prob_{tag}.json")
        argv = ["prob", f"--data={self.path(data)}", "--d=2", f"--s={s}",
                f"--latlon-box={','.join(map(repr, box))}", f"--out={out}"]
        if r is not None:
            argv.append(f"--r={r}")

        def verify(report):
            expansion = self.sphere_expansion(self.path(data), float(s), None if r is None else int(r))
            h, cutoff, _ = ref.estimator_config(2, float(s), self.SIZES[data], None if r is None else int(r))
            errors = [] if report["cutoff"] == cutoff else [f"cutoff {report['cutoff']} != {cutoff}"]
            errors += _close(f"bandwidth for {box}", report["h"], h, 1e-12 * h)
            return errors + _close(f"prob {box} cutoff {cutoff}", report["probability"],
                                   expansion.prob_latlon_box(box), PROB_TOL)

        return Op(tier, lambda: cli_main(argv), lambda _: json.loads(Path(out).read_text()), verify)

    def warm_up(self):
        for i, (data, flags, box) in enumerate(self.WARM):
            op = self._query("warm", data, flags, box, f"warm{i}")
            op.run()

    def round(self, r):
        rng = self.round_rng(r)
        ops = []
        for tier, data, flags, boxes in self.CASES:
            for i, base in enumerate(boxes):
                box = tuple(float(v) for v in np.asarray(base) + rng.uniform(-1, 1, 4) * self.JITTER_DEG)
                ops.append(self._query(tier, data, flags, box, f"{tier}{i}"))
        return ops


# ---------------------------------------------------------------------------
# density

class Density(Workload):
    """Pointwise evaluation: a density grid, the quadrature oracle and two MISE studies."""
    name = "density"
    GRID = (33, 65)
    QUAD_BOX = (10.0, 45.0, 20.0, 80.0)
    MISE_S2 = dict(spec=CRIT7, s=(0.5, 2.0), n=1000, reps=2)
    MISE_S1 = dict(spec=TABLE4, s=(0.5, 1.0, 2.0), n=1000, reps=10)

    def prepare(self):
        _write_sample_csv(self.dir / "clusters_1000.csv", ref.sample_vmf_mixture_s2(self.rng, 1000, **CLUSTERS))
        _write_sample_csv(self.dir / "warm_64.csv", ref.sample_vmf_mixture_s2(self.rng, 64, **CLUSTERS))

    def _eval(self, data, grid) -> Op:
        out = self.path("grid.csv")
        argv = ["eval", f"--data={self.path(data)}", "--d=2", "--s=0.5",
                f"--grid={grid[0]}x{grid[1]}", f"--out={out}"]

        def collect(_):
            text = Path(out).read_text()
            cutoff = int(text.split("cutoff=", 1)[1].split()[0])
            return cutoff, np.loadtxt(io.StringIO(text), delimiter=",", comments="#", skiprows=3)

        def verify(result):
            cutoff, rows = result
            expansion = self.sphere_expansion(self.path(data), 0.5)
            errors = [] if cutoff == expansion.lmax else [f"eval cutoff {cutoff} != {expansion.lmax}"]
            if rows.shape != (grid[0] * grid[1], 3):
                return errors + [f"eval grid has shape {rows.shape}"]
            worst = float(np.max(np.abs(rows[:, 2] - expansion.density(rows[:, 0], rows[:, 1]))))
            return errors + _close("eval grid, worst point", worst, 0.0, DENSITY_TOL)

        return Op("light", lambda: cli_main(argv), collect, verify)

    def _quad(self, data, box, tag) -> Op:
        out = self.path(f"quad_{tag}.json")
        argv = ["prob", "--method=quadrature", f"--data={self.path(data)}", "--d=2", "--s=0.5",
                f"--latlon-box={','.join(map(repr, box))}", f"--out={out}"]

        def verify(report):
            want = self.sphere_expansion(self.path(data), 0.5).prob_latlon_box(box)
            return _close(f"quadrature prob {box}", report["probability"], want, PROB_TOL)

        return Op("mid", lambda: cli_main(argv), lambda _: json.loads(Path(out).read_text()), verify)

    def _mise(self, tier, d, study, seed, n, reps, tag) -> Op:
        spec = study["spec"]
        out = self.path(f"mise_{tag}.json")
        mus = ";".join(",".join(map(repr, mu)) if d == 2 else f"{math.cos(mu)!r},{math.sin(mu)!r}"
                       for mu in spec["mus"])
        argv = ["mise", "--true=vmf-mixture", f"--d={d}", f"--s={','.join(map(repr, study['s']))}",
                f"--n={n}", f"--reps={reps}", f"--seed={seed}", f"--mus={mus}", f"--out={out}",
                f"--weights={','.join(map(repr, spec['weights']))}",
                f"--kappas={','.join(map(repr, spec['kappas']))}"]

        def verify(report):
            # the replicate samples are drawn again with sphkde's seeded sampler
            # (they are the study's input); each ISE comes from the reference
            dist = (_sphere_dist if d == 2 else _circle_dist)(spec)
            samples = [dist.sample(n, SeededRng(seed, stream=k)) for k in range(reps)]
            errors = []
            for row, s in zip(report["rows"], study["s"]):
                if d == 2:
                    ise = [ref.sphere_ise_vmf_mixture(x.xyz, ref.symbol(2, s, n), **spec) for x in samples]
                else:
                    ise = [ref.circle_ise_vm_mixture(x.thetas, ref.symbol(1, s, n), **spec) for x in samples]
                mean = float(np.mean(ise))
                errors += _close(f"mise d={d} s={s} mean", row["mise_mean"], mean, ISE_REL_TOL * mean)
                if reps > 1:
                    stderr = float(np.std(ise, ddof=1) / math.sqrt(reps))
                    errors += _close(f"mise d={d} s={s} stderr", row["mise_stderr"], stderr,
                                     ISE_REL_TOL * mean)
            if len(report["rows"]) != len(study["s"]):
                errors.append(f"mise d={d} returned {len(report['rows'])} rows")
            return errors

        return Op(tier, lambda: cli_main(argv), lambda _: json.loads(Path(out).read_text()), verify)

    def warm_up(self):
        warm_seed = self.round_seed(-1)
        for op in (self._eval("warm_64.csv", (5, 9)),
                   self._quad("warm_64.csv", (-70.0, -40.0, 100.0, 150.0), "warm"),
                   self._mise("warm", 2, self.MISE_S2, warm_seed, 64, 1, "warm2"),
                   self._mise("warm", 1, self.MISE_S1, warm_seed, 64, 1, "warm1")):
            op.run()

    def round(self, r):
        rng = self.round_rng(r)
        box = tuple(float(v) for v in np.asarray(self.QUAD_BOX) + rng.uniform(-0.01, 0.01, 4))
        seed = self.round_seed(r)
        s2, s1 = self.MISE_S2, self.MISE_S1
        return [self._eval("clusters_1000.csv", self.GRID),
                self._quad("clusters_1000.csv", box, f"r{r}"),
                self._mise("heavy", 2, s2, seed, s2["n"], s2["reps"], "s2"),
                self._mise("other", 1, s1, seed, s1["n"], s1["reps"], "s1")]


# ---------------------------------------------------------------------------
# region-map

class RegionMap(Workload):
    """``evaluation.run_probability_table`` on partitions of the circle and the sphere.

    Regions of one table share a sample, and each latitude band recurs across
    longitudes and smoothness levels, so the beta-kernel cache is reused within
    a table.  Band edges and sector offsets move by a small random amount every
    round: no table reuses another's cache entries, yet every round does the
    same work.  One month arc and one lon sector cross +-pi.
    """
    name = "region-map"
    S_VALUES = (0.5, 1.0, 2.0)
    ZONAL_BANDS = 4
    TILE_BANDS, TILE_SECTORS = 3, 4
    MONTHS = 12
    MONTH_TABLES = 3
    JITTER_RAD = 1e-4

    def _table(self, tier, d, dist, spec, s_values, n, regions, seed) -> Op:
        def run():
            return evaluation.run_probability_table(dist, s_values, n, regions, seed)

        def verify(rows):
            sample = dist.sample(n, SeededRng(seed, stream=0))   # the table's input, drawn again
            if d == 1:
                expansions = {s: ref.CircleExpansion(sample.thetas, ref.symbol(1, s, n)) for s in s_values}
                pieces = [list(reg.arcs) for reg in regions]
                truth = [sum(ref.vm_mixture_prob_arc(a, **spec) for a in p) for p in pieces]
                inside = [sum(_in_interval(sample.thetas, *a).sum() for a in p) for p in pieces]
            else:
                expansions = {s: ref.SphereExpansion(sample.xyz, ref.symbol(2, s, n)) for s in s_values}
                pieces = [list(reg.rects) for reg in regions]
                truth = [sum(ref.vmf_mixture_prob_rect(rc, **spec) for rc in p) for p in pieces]
                inside = [sum(_in_rect(sample, rc).sum() for rc in p) for p in pieces]
            errors = []
            for row, p, want_true, count in zip(rows, pieces, truth, inside):
                for s in s_values:
                    want = sum(expansions[s].prob_arc(a) if d == 1 else expansions[s].prob_rect(a)
                               for a in p)
                    errors += _close(f"table d={d} s={s} {p}", row.kde_probs[s], want, PROB_TOL)
                errors += _close(f"true prob d={d} {p}", row.true_prob, want_true, TRUE_PROB_TOL)
                errors += _close(f"frequency d={d} {p}", row.frequency * n, float(count), 1e-6)
            for s in s_values:
                errors += _close(f"table d={d} s={s}: sum of kde probabilities",
                                 sum(row.kde_probs[s] for row in rows), 1.0, SUM_TOL)
            errors += _close(f"table d={d}: sum of true probabilities",
                             sum(row.true_prob for row in rows), 1.0, SUM_TOL)
            errors += _close(f"table d={d}: sum of frequencies",
                             sum(row.frequency for row in rows), 1.0, SUM_TOL)
            return errors

        return Op(tier, run, lambda rows: rows, verify)

    def _months(self, offset, count=MONTHS):
        edges = [-math.pi + offset + 2.0 * math.pi * j / count for j in range(count + 1)]
        return [arc_region((lo, hi - 2.0 * math.pi if hi > math.pi else hi))
                for lo, hi in zip(edges, edges[1:])]

    @staticmethod
    def _tiles(edges, sectors, offset):
        """Lat bands between ``edges``, each cut into ``sectors`` lon sectors (1: whole rings)."""
        if sectors == 1:
            lons = [(-math.pi, math.pi)]
        else:
            phis = [-math.pi + offset + 2.0 * math.pi * j / sectors for j in range(sectors + 1)]
            lons = [(lo, hi - 2.0 * math.pi if hi > math.pi else hi) for lo, hi in zip(phis, phis[1:])]
        return [rect_region((tlo, thi, plo, phi))
                for tlo, thi in zip(edges, edges[1:]) for plo, phi in lons]

    def _edges(self, rng, bands):
        inner = np.linspace(0.0, math.pi, bands + 1)[1:-1] + rng.uniform(-1, 1, bands - 1) * self.JITTER_RAD
        return [0.0, *map(float, inner), math.pi]

    def _offset(self, rng, count):
        return 2.0 * math.pi / count * 0.3 + float(rng.uniform(-1, 1)) * self.JITTER_RAD

    def warm_up(self):
        warm_seed = self.round_seed(-1)
        circle, sphere = _circle_dist(TABLE4), _sphere_dist(CLUSTERS)
        self._table("warm", 1, circle, TABLE4, self.S_VALUES, 64,
                    [arc_region((-1.0, 2.0)), arc_region((2.0, -1.0))], warm_seed).run()
        self._table("warm", 2, sphere, CLUSTERS, (1.0, 2.0), 2000,
                    self._tiles([0.0, 1.2345, math.pi], 1, 0.0), warm_seed).run()

    def round(self, r):
        rng = self.round_rng(r)
        seed = self.round_seed(r)
        circle, sphere = _circle_dist(TABLE4), _sphere_dist(CLUSTERS)
        zonal = self._tiles(self._edges(rng, self.ZONAL_BANDS), 1, 0.0)
        tiles = self._tiles(self._edges(rng, self.TILE_BANDS), self.TILE_SECTORS,
                            self._offset(rng, self.TILE_SECTORS))
        months = [self._table("light", 1, circle, TABLE4, self.S_VALUES, 1000,
                              self._months(self._offset(rng, self.MONTHS)), seed + k)
                  for k in range(self.MONTH_TABLES)]
        return [*months,
                self._table("mid", 2, sphere, CLUSTERS, self.S_VALUES, 2000, zonal, seed),
                self._table("heavy", 2, sphere, CLUSTERS, self.S_VALUES, 2000, tiles, seed)]


def _in_interval(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Half-open [lo, hi), closed at pi: the convention of the program's frequencies."""
    return (x >= lo) & ((x <= hi) if hi >= math.pi else (x < hi))


def _in_rect(sample, rect) -> np.ndarray:
    tlo, thi, plo, phi = rect
    return _in_interval(sample.thetas, tlo, thi) & _in_interval(sample.phis, plo, phi)


WORKLOADS = {cls.name: cls for cls in (SphereQuery, Density, RegionMap)}
