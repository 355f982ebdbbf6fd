"""Command-line interface: sampling, density evaluation, region probabilities,
data ingestion, MISE studies and the integration benchmark.

Conventions shared by every command:
  * CSV outputs are UTF-8, comma separated, one header row, '.' decimal,
    values at 17 significant digits (lossless float round trip).  Parameter
    echo lines start with '#' and precede the header.
  * Each output file is accompanied by ``<out>.manifest.json`` recording the
    command, parameters, seeds, input digests, version and timestamps; JSON
    reports embed the manifest instead.  Reruns with identical manifests are
    bit-identical except for timing fields, which live only in manifests.
  * Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
  * Angles in flags are radians; degrees enter only through --latlon-box and
    the ingest command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from datetime import date, datetime, timezone

import numpy as np

from . import __version__
from .geometry import (
    angle_of_cartesian,
    arc_region,
    latlon_to_cartesian,
    normalize_angle,
    rect_region,
)
from .kde import SampleS1, SampleS2, kde_grid_eval, make_config
from .probability import prob_arc_s1, prob_rect_s2, quadrature_prob
from .sampling import (
    CirclePoint,
    SeededRng,
    SpherePoint,
    UniformDistribution,
    VmfDistribution,
    VmfMixtureDistribution,
    VmfMixtureSpec,
    VmfSpec,
)
from .specfun import NumericalError
from .evaluation import bench_integration, estimate_mise


class DataError(ValueError):
    """Malformed or unusable input data."""


@dataclass
class RunManifest:
    command: str
    parameters: dict
    seeds: dict
    inputs: dict
    version: str
    started: str
    finished: str


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows, comments: list[str] | None = None) -> None:
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_manifest(out_path: str, manifest: RunManifest) -> None:
    _atomic_write(
        out_path + ".manifest.json",
        json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n",
    )


def _manifest(command: str, args: argparse.Namespace, started: str, inputs: dict) -> RunManifest:
    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func",) and v is not None
    }
    seeds = {k: params[k] for k in ("seed", "stream") if k in params}
    return RunManifest(
        command=command,
        parameters={k: repr(v) if not isinstance(v, (int, float, str, bool, list)) else v
                    for k, v in params.items()},
        seeds=seeds,
        inputs=inputs,
        version=__version__,
        started=started,
        finished=_utcnow(),
    )


def read_csv(path: str):
    """Read a CSV written by this tool (or similar): header row plus rows of fields.

    '#'-prefixed lines are skipped.  Returns (header, rows of strings).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path} is empty")
    header = [h.strip() for h in lines[0].split(",")]
    return header, [ln.split(",") for ln in lines[1:]]


def _column_index(header: list[str], name: str | None, path: str, default_idx: int = 0) -> int:
    if name is None:
        return default_idx
    if name not in header:
        raise DataError(f"{path} has no column {name!r}; columns are {header}")
    return header.index(name)


def load_sample(path: str, d: int):
    """Load an observation CSV: theta_rad for the circle, x1,x2,x3 for the sphere."""
    header, rows = read_csv(path)
    if d == 1:
        idx = _column_index(header, "theta_rad" if "theta_rad" in header else None, path)
        try:
            thetas = np.array([float(r[idx]) for r in rows])
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}: malformed angle data ({exc})") from exc
        return SampleS1.from_angles(thetas, source=path)
    if all(c in header for c in ("x1", "x2", "x3")):
        ix = [header.index(c) for c in ("x1", "x2", "x3")]
    elif len(header) < 3:
        raise DataError(f"{path}: sphere data needs x1,x2,x3 columns")
    else:
        ix = [0, 1, 2]
    try:
        xyz = np.array([[float(r[i]) for i in ix] for r in rows])
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed Cartesian data ({exc})") from exc
    try:
        return SampleS2.from_xyz(xyz, source=path)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_floats(text: str, expect: int | None = None) -> list[float]:
    try:
        vals = [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc
    if expect is not None and len(vals) != expect:
        raise ValueError(f"expected {expect} numbers, got {text!r}")
    return vals


def _parse_mu(text: str, d: int) -> CirclePoint | SpherePoint:
    vals = _parse_floats(text, expect=d + 1)
    nrm = math.sqrt(sum(v * v for v in vals))
    if nrm == 0.0:
        raise ValueError("mean direction must be a nonzero vector")
    vals = [v / nrm for v in vals]
    if d == 1:
        return CirclePoint(angle_of_cartesian(vals[0], vals[1]))
    return SpherePoint(
        vals[0], vals[1], vals[2],
        math.acos(max(-1.0, min(1.0, vals[2]))),
        normalize_angle(math.atan2(vals[1], vals[0])) if (vals[0], vals[1]) != (0.0, 0.0) else math.pi,
    )


def _parse_n_range(text: str) -> list[int]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"ranges are start:stop:step, got {text!r}")
        start, stop, step = (int(p) for p in parts)
        return list(range(start, stop + 1, step))
    return [int(x) for x in text.split(",") if x]


def _mixture_spec(args, d: int) -> VmfMixtureSpec:
    if args.weights is None or args.kappas is None or args.mus is None:
        raise ValueError("vmf-mixture needs --weights, --kappas and --mus")
    weights = _parse_floats(args.weights)
    kappas = _parse_floats(args.kappas)
    mus = [_parse_mu(part, d) for part in args.mus.split(";") if part]
    if not (len(weights) == len(kappas) == len(mus)):
        raise ValueError("--weights, --kappas and --mus must have matching lengths")
    comps = tuple(VmfSpec(d=d, mu=m, kappa=k) for m, k in zip(mus, kappas))
    return VmfMixtureSpec(weights=tuple(weights), components=comps)


def _distribution(args):
    d = args.d
    if args.dist == "uniform":
        return UniformDistribution(d)
    if args.dist == "vmf":
        if args.kappa is None or args.mu is None:
            raise ValueError("vmf needs --kappa and --mu")
        return VmfDistribution(VmfSpec(d=d, mu=_parse_mu(args.mu, d), kappa=args.kappa))
    return VmfMixtureDistribution(_mixture_spec(args, d))


def _parse_regions(args, d: int):
    arcs = []
    rects = []
    for spec in args.arc or []:
        lo, hi = _parse_floats(spec, expect=2)
        arcs.append((lo, hi))
    for spec in args.rect or []:
        rects.append(tuple(_parse_floats(spec, expect=4)))
    for spec in getattr(args, "latlon_box", None) or []:
        lat_min, lat_max, lon_min, lon_max = _parse_floats(spec, expect=4)
        if not (lat_min < lat_max):
            raise ValueError(f"latitude bounds must increase, got {spec!r}")
        tlo = math.pi / 2.0 - math.radians(lat_max)
        thi = math.pi / 2.0 - math.radians(lat_min)
        plo = math.radians(lon_min)
        phi = math.radians(lon_max)
        rects.append((tlo, thi, plo, phi))
    for spec in getattr(args, "days", None) or []:
        vals = _parse_floats(spec)
        if len(vals) not in (2, 3):
            raise ValueError(f"--days takes startday,endday[,periodlength], got {spec!r}")
        start, end = vals[0], vals[1]
        length = vals[2] if len(vals) == 3 else 365.0
        if not (1 <= start <= end <= length):
            raise ValueError(f"day range must satisfy 1 <= start <= end <= period, got {spec!r}")
        arcs.append((
            2.0 * math.pi * (start - 1.0) / length - math.pi,
            2.0 * math.pi * end / length - math.pi,
        ))
    if d == 1:
        if rects:
            raise ValueError("rectangle regions apply to d=2 only")
        if not arcs:
            raise ValueError("no region given: use --arc or --days")
        return arc_region(*arcs)
    if arcs:
        raise ValueError("arc regions apply to d=1 only")
    if not rects:
        raise ValueError("no region given: use --rect or --latlon-box")
    return rect_region(*rects)


# ---------------------------------------------------------------------------
# commands

def cmd_sample(args) -> int:
    started = _utcnow()
    dist = _distribution(args)
    sample = dist.sample(args.n, SeededRng(args.seed, stream=args.stream))
    if args.d == 1:
        header = ["theta_rad"]
        rows = [(float(t),) for t in sample.thetas]
    else:
        header = ["x1", "x2", "x3", "theta_rad", "phi_rad"]
        rows = [
            (float(x[0]), float(x[1]), float(x[2]), float(t), float(p))
            for x, t, p in zip(sample.xyz, sample.thetas, sample.phis)
        ]
    _write_csv(args.out, header, rows)
    _write_manifest(args.out, _manifest("sample", args, started, {}))
    print(f"wrote {len(rows)} observations to {args.out}")
    return 0


def cmd_eval(args) -> int:
    started = _utcnow()
    sample = load_sample(args.data, args.d)
    cfg = make_config(args.d, args.s, sample.n, args.r)
    params = (
        f"n={cfg.n_obs} s={_fmt(cfg.smoothness)} r={cfg.decay} "
        f"h={_fmt(cfg.bandwidth)} cutoff={cfg.cutoff}"
    )
    if args.grid is None:
        args.grid = "512" if args.d == 1 else "33x65"
    if args.d == 1:
        n_points = int(args.grid)
        thetas, vals = kde_grid_eval(sample, cfg, n_points=n_points)
        header = ["theta_rad", "density"]
        rows = [(float(t), float(v)) for t, v in zip(thetas, vals)]
        comments = [params, f"grid={n_points} equispaced over the full circle"]
    else:
        try:
            nt, np_ = (int(x) for x in args.grid.lower().split("x"))
        except ValueError as exc:
            raise ValueError(f"sphere grids are THETAxPHI, e.g. 33x65; got {args.grid!r}") from exc
        thetas, phis, vals = kde_grid_eval(sample, cfg, n_theta=nt, n_phi=np_)
        header = ["theta_rad", "phi_rad", "density"]
        rows = [
            (float(thetas[i]), float(phis[j]), float(vals[i, j]))
            for i in range(nt)
            for j in range(np_)
        ]
        comments = [params, f"grid={nt}x{np_} row-major (theta outer, phi inner), inclusive endpoints"]
    _write_csv(args.out, header, rows, comments)
    _write_manifest(args.out, _manifest("eval", args, started, {args.data: _sha256(args.data)}))
    print(params)
    return 0


def cmd_prob(args) -> int:
    started = _utcnow()
    sample = load_sample(args.data, args.d)
    cfg = make_config(args.d, args.s, sample.n, args.r)
    region = _parse_regions(args, args.d)
    if args.method == "quadrature":
        est = quadrature_prob(sample, cfg, region)
    elif args.d == 1:
        est = prob_arc_s1(sample, cfg, region)
    else:
        est = prob_rect_s2(sample, cfg, region)
    report = {
        "probability": est.value,
        "method": est.method,
        "precision": "double:53",
        "elapsed_seconds": est.elapsed,
        "region": str(est.region),
        "n": cfg.n_obs,
        "s": cfg.smoothness,
        "r": cfg.decay,
        "h": cfg.bandwidth,
        "cutoff": cfg.cutoff,
        "manifest": asdict(_manifest("prob", args, started, {args.data: _sha256(args.data)})),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    print(f"probability = {_fmt(est.value)} ({est.method}, {report['precision']}, "
          f"{est.elapsed:.4f}s)")
    return 0


def _ingest_rows(args):
    header, rows = read_csv(args.infile)
    if args.kind == "degrees-to-angle":
        idx = _column_index(header, args.column, args.infile)
        out_header = ["theta_rad"]

        def convert(r):
            return (normalize_angle(math.radians(float(r[idx]))),)
    elif args.kind == "latlon-to-sphere":
        lat_i = _column_index(header, args.lat_column, args.infile, 0)
        lon_i = _column_index(header, args.lon_column, args.infile, 1)
        out_header = ["x1", "x2", "x3", "theta_rad", "phi_rad"]

        def convert(r):
            lat = float(r[lat_i])
            lon = float(r[lon_i])
            p = latlon_to_cartesian(lat, 180.0 if lon == -180.0 else lon)
            return (p.x1, p.x2, p.x3, p.theta, p.phi)
    else:
        # dates-to-angle: per-year period, 366 days on leap years
        idx = _column_index(header, args.date_column, args.infile)
        anchor = {"start": 0.0, "midpoint": 0.5, "end": 1.0}[args.day_anchor]
        out_header = ["theta_rad"]

        def convert(r):
            day = date.fromisoformat(r[idx].strip())
            year_start = date(day.year, 1, 1)
            length = 366.0 if day.year % 4 == 0 and (day.year % 100 != 0 or day.year % 400 == 0) else 365.0
            # the year start itself belongs to this period: keep it just above -pi
            t = max((day - year_start).days + anchor, 1e-9)
            return (normalize_angle(2.0 * math.pi * t / length - math.pi),)
    skipped = 0
    out_rows = []
    for i, r in enumerate(rows):
        try:
            out_rows.append(convert(r))
        except (ValueError, IndexError) as exc:
            if args.on_error == "fail":
                raise DataError(f"{args.infile}:{i + 2}: {exc}") from exc
            skipped += 1
    return out_header, out_rows, skipped


def cmd_ingest(args) -> int:
    started = _utcnow()
    header, out_rows, skipped = _ingest_rows(args)
    if not out_rows:
        raise DataError(f"{args.infile}: no usable rows")
    _write_csv(args.out, header, out_rows)
    _write_manifest(args.out, _manifest("ingest", args, started, {args.infile: _sha256(args.infile)}))
    print(f"wrote {len(out_rows)} rows to {args.out}" + (f" ({skipped} skipped)" if skipped else ""))
    return 0


def _write_report(args, command: str, started: str, header: list[str], rows: list[dict]) -> None:
    """Write study rows to ``--out``: a CSV with a manifest sidecar when it ends
    in .csv (a missing value becomes an empty field), else a JSON report that
    embeds the manifest."""
    if not args.out:
        return
    manifest = _manifest(command, args, started, {})
    if args.out.endswith(".csv"):
        _write_csv(args.out, header, [tuple("" if r[k] is None else r[k] for k in header) for r in rows])
        _write_manifest(args.out, manifest)
    else:
        _atomic_write(args.out, json.dumps({"rows": rows, "manifest": asdict(manifest)}, indent=2) + "\n")


def cmd_mise(args) -> int:
    started = _utcnow()
    args.dist = args.true
    dist = _distribution(args)
    reports = [
        estimate_mise(dist, s, args.n, args.reps, args.seed, args.r)
        for s in _parse_floats(args.s)
    ]
    rows = [
        {
            "s": rep.smoothness,
            "n": rep.n,
            "reps": rep.reps,
            "mise_mean": rep.mean,
            "mise_stderr": rep.stderr,
        }
        for rep in reports
    ]
    _write_report(args, "mise", started, ["s", "n", "reps", "mise_mean", "mise_stderr"], rows)
    for r in rows:
        err = "" if r["mise_stderr"] is None else f" +- {r['mise_stderr']:.3g}"
        print(f"s={r['s']:g}: MISE = {r['mise_mean']:.6g}{err}")
    return 0


def cmd_bench(args) -> int:
    started = _utcnow()
    n_values = _parse_n_range(args.n)
    report = bench_integration(
        n_values, s=args.s, r=args.r, seed=args.seed, repeats=args.repeats
    )
    rows = [
        {
            "n": row.n,
            "cutoff": row.cutoff,
            "closed_seconds": row.closed_seconds,
            "quadrature_seconds": row.quadrature_seconds,
            "speedup": row.quadrature_seconds / row.closed_seconds,
        }
        for row in report.rows
    ]
    _write_report(
        args, "bench", started, ["n", "cutoff", "closed_seconds", "quadrature_seconds", "speedup"], rows
    )
    for r in rows:
        print(
            f"n={r['n']}: closed {r['closed_seconds']:.4f}s, "
            f"quadrature {r['quadrature_seconds']:.4f}s, speedup {r['speedup']:.1f}x"
        )
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphkde",
        description="Finite-order density and probability estimation on the circle and sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a seeded sample and write it as CSV")
    p.add_argument("--dist", required=True, choices=["uniform", "vmf", "vmf-mixture"])
    p.add_argument("--d", type=int, required=True, choices=[1, 2])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--kappa", type=float)
    p.add_argument("--mu", help="mean direction, Cartesian components: x,y or x,y,z")
    p.add_argument("--weights", help="mixture weights: w1,w2,...")
    p.add_argument("--kappas", help="mixture concentrations: k1,k2,...")
    p.add_argument("--mus", help="mixture mean directions: x,y;x,y;...")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="evaluate the estimator on an angular grid")
    p.add_argument("--data", required=True)
    p.add_argument("--d", type=int, required=True, choices=[1, 2])
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--grid", default=None, help="circle: point count; sphere: THETAxPHI (e.g. 33x65)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("prob", help="estimate the probability of an angular region")
    p.add_argument("--data", required=True)
    p.add_argument("--d", type=int, required=True, choices=[1, 2])
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--arc", action="append",
                   help="circle arc lo,hi in radians (repeatable; lo>hi wraps); "
                        "write a leading minus as --arc=-1,2")
    p.add_argument("--rect", action="append",
                   help="sphere rectangle tlo,thi,plo,phi in radians (repeatable); "
                        "write a leading minus as --rect=0,1,-3,3")
    p.add_argument("--latlon-box", action="append",
                   help="sphere box latmin,latmax,lonmin,lonmax in degrees (repeatable); "
                        "write a leading minus as --latlon-box=-40,-10,110,155")
    p.add_argument("--days", action="append",
                   help="circle arc as day-of-year range start,end[,period] (repeatable)")
    p.add_argument("--method", choices=["closed", "quadrature"], default="closed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("ingest", help="normalize raw observation files")
    p.add_argument("--kind", required=True,
                   choices=["degrees-to-angle", "latlon-to-sphere", "dates-to-angle"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--column", default=None, help="angle column for degrees-to-angle")
    p.add_argument("--lat-column", default="latitude")
    p.add_argument("--lon-column", default="longitude")
    p.add_argument("--date-column", default="date")
    p.add_argument("--day-anchor", choices=["start", "midpoint", "end"], default="midpoint")
    p.add_argument("--on-error", choices=["fail", "skip"], default="fail")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("mise", help="replicated mean integrated squared error study")
    p.add_argument("--true", required=True, choices=["uniform", "vmf", "vmf-mixture"])
    p.add_argument("--d", type=int, required=True, choices=[1, 2])
    p.add_argument("--s", required=True, help="smoothness values: s1,s2,...")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kappa", type=float)
    p.add_argument("--mu")
    p.add_argument("--weights")
    p.add_argument("--kappas")
    p.add_argument("--mus")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mise)

    p = sub.add_parser("bench", help="closed-form vs quadrature timing benchmark")
    p.add_argument("--n", required=True, help="sample sizes: start:stop:step or n1,n2,...")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--r", type=int, default=6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
