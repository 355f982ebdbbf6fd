import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphkde.cli import build_parser, main, read_csv


def run(argv):
    return main([str(a) for a in argv])


def read_floats(path, col):
    header, rows = read_csv(str(path))
    idx = header.index(col)
    return np.array([float(r[idx]) for r in rows])


class TestSampleCommand:
    def test_uniform_sphere(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run(["sample", "--dist", "uniform", "--d", "2", "--n", "1000",
                    "--seed", "7", "--out", out]) == 0
        header, rows = read_csv(str(out))
        assert header == ["x1", "x2", "x3", "theta_rad", "phi_rad"]
        assert len(rows) == 1000
        xyz = np.array([[float(v) for v in r[:3]] for r in rows])
        assert np.max(np.abs(np.einsum("ij,ij->i", xyz, xyz) - 1.0)) < 1e-12
        assert os.path.exists(str(out) + ".manifest.json")

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sample", "--dist", "vmf", "--d", "2", "--mu", "0,0,1", "--kappa", "1",
                "--n", "200", "--seed", "7"]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mixture_flags(self, tmp_path):
        out = tmp_path / "mix.csv"
        code = run([
            "sample", "--dist", "vmf-mixture", "--d", "1", "--n", "500", "--seed", "3",
            "--weights", "0.2,0.3,0.1,0.4",
            "--kappas", "4,6,10,12",
            "--mus", "1,0;0.5,0.8660254037844387;0.7071067811865476,0.7071067811865476;0,-1",
            "--out", out,
        ])
        assert code == 0
        thetas = read_floats(out, "theta_rad")
        assert thetas.size == 500
        assert np.all((thetas > -math.pi) & (thetas <= math.pi))

    def test_missing_vmf_params_is_usage_error(self, tmp_path):
        code = run(["sample", "--dist", "vmf", "--d", "2", "--n", "10", "--seed", "1",
                    "--out", tmp_path / "x.csv"])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()


class TestEvalCommand:
    def test_circle_header_reports_derived_params(self, tmp_path, capsys):
        data = tmp_path / "angles.csv"
        run(["sample", "--dist", "vmf", "--d", "1", "--mu", "1,0", "--kappa", "2",
             "--n", "691", "--seed", "5", "--out", data])
        out = tmp_path / "grid.csv"
        assert run(["eval", "--data", data, "--d", "1", "--s", "1", "--out", out]) == 0
        text = out.read_text()
        assert "cutoff=14" in text and "r=5" in text
        h = float(next(ln for ln in text.splitlines() if ln.startswith("#")).split("h=")[1].split()[0])
        assert abs(h - 0.113) < 5e-4
        manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
        assert manifest["command"] == "eval"
        assert str(data) in manifest["inputs"]

    def test_sphere_grid_row_major(self, tmp_path):
        data = tmp_path / "pts.csv"
        run(["sample", "--dist", "uniform", "--d", "2", "--n", "50", "--seed", "2",
             "--out", data])
        out = tmp_path / "grid2.csv"
        assert run(["eval", "--data", data, "--d", "2", "--s", "1", "--grid", "33x65",
                    "--out", out]) == 0
        header, rows = read_csv(str(out))
        assert header == ["theta_rad", "phi_rad", "density"]
        assert len(rows) == 33 * 65
        # theta outer, phi inner
        assert float(rows[0][0]) == float(rows[1][0]) == 0.0
        assert float(rows[64][1]) == pytest.approx(math.pi)

    def test_parse_failure_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("theta_rad\nnot-a-number\n")
        assert run(["eval", "--data", bad, "--d", "1", "--s", "1",
                    "--out", tmp_path / "o.csv"]) == 3


class TestProbCommand:
    def test_full_domain_is_one(self, tmp_path):
        data = tmp_path / "pts.csv"
        run(["sample", "--dist", "uniform", "--d", "2", "--n", "150", "--seed", "4",
             "--out", data])
        out = tmp_path / "report.json"
        assert run(["prob", "--data", data, "--d", "2", "--s", "1",
                    "--rect", "0,%.17g,%.17g,%.17g" % (math.pi, -math.pi, math.pi),
                    "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["probability"] == pytest.approx(1.0, abs=1e-9)
        assert report["method"] == "closed-form"
        assert "manifest" in report and report["elapsed_seconds"] >= 0.0

    def test_latlon_box_and_quadrature(self, tmp_path):
        data = tmp_path / "pts.csv"
        run(["sample", "--dist", "uniform", "--d", "2", "--n", "100", "--seed", "6",
             "--out", data])
        out1 = tmp_path / "c.json"
        out2 = tmp_path / "q.json"
        box = ["--latlon-box", "31,45.5,129.4,145.5"]
        assert run(["prob", "--data", data, "--d", "2", "--s", "0.5"] + box + ["--out", out1]) == 0
        assert run(["prob", "--data", data, "--d", "2", "--s", "0.5", "--method", "quadrature"]
                   + box + ["--out", out2]) == 0
        closed = json.loads(out1.read_text())
        quad = json.loads(out2.read_text())
        assert closed["probability"] == pytest.approx(quad["probability"], abs=1e-6)
        assert quad["method"] == "quadrature"

    def test_leading_minus_region_value(self, tmp_path):
        data = tmp_path / "pts.csv"
        run(["sample", "--dist", "uniform", "--d", "2", "--n", "100", "--seed", "6",
             "--out", data])
        out = tmp_path / "sw.json"
        assert run(["prob", "--data", data, "--d", "2", "--s", "0.5",
                    "--latlon-box=-40,-10,-75,-40", "--out", out]) == 0
        assert 0.0 < json.loads(out.read_text())["probability"] < 1.0

    def test_report_precision_is_double(self, tmp_path):
        data = tmp_path / "pts.csv"
        run(["sample", "--dist", "uniform", "--d", "2", "--n", "60", "--seed", "8",
             "--out", data])
        out = tmp_path / "p.json"
        assert run(["prob", "--data", data, "--d", "2", "--s", "0.05",
                    "--rect", "0,1.2,-1,2", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["cutoff"] > 8 and report["precision"] == "double:53"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["prob", "--data", str(data), "--d", "2", "--s", "1",
                                       "--rect", "0,1,0,1", "--precision", "double"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    @pytest.mark.parametrize("d,rows", [
        (1, "theta_rad\n0.7\n"),
        (1, "theta_rad\n3.14159\n3.14159\n3.14159\n"),
        (2, "x1,x2,x3\n0.6,0,0.8\n"),
        (2, "x1,x2,x3\n0,0,1\n0,0,1\n0,0,1\n0,0,1\n"),
    ], ids=["circle-n1", "circle-repeated", "sphere-n1", "sphere-repeated-pole"])
    def test_single_and_repeated_points(self, tmp_path, d, rows, method):
        data = tmp_path / "edge.csv"
        data.write_text(rows)
        if d == 1:
            regions = (["--arc=-1,2"], ["--arc=%.17g,%.17g" % (-math.pi, math.pi)])
        else:
            regions = (["--rect", "0.2,1.3,-1,2"],
                       ["--rect=0,%.17g,%.17g,%.17g" % (math.pi, -math.pi, math.pi)])
        values = []
        for region in regions:
            out = tmp_path / "p.json"
            assert run(["prob", "--data", data, "--d", d, "--s", "1", "--method", method]
                       + region + ["--out", out]) == 0
            values.append(json.loads(out.read_text())["probability"])
        assert math.isfinite(values[0])
        assert values[1] == pytest.approx(1.0, abs=1e-9)

    def test_nan_row_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("x1,x2,x3\n0,0,1\nnan,0,1\n1,0,0\n")
        assert run(["prob", "--data", data, "--d", "2", "--s", "1", "--rect", "0,1,0,1"]) == 3
        assert "data error" in capsys.readouterr().err

    def test_cutoff_above_tested_degree_is_numerical_failure(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        run(["sample", "--dist", "uniform", "--d", "2", "--n", "1000", "--seed", "3",
             "--out", data])
        # s = 0.05 and r = 3 give cutoff 3623 at n = 1000
        assert run(["prob", "--data", data, "--d", "2", "--s", "0.05", "--r", "3",
                    "--rect", "0.5,1,0,0.6"]) == 4
        assert "cutoff 3623 is above 2000" in capsys.readouterr().err

    def test_wrapped_day_range(self, tmp_path):
        data = tmp_path / "angles.csv"
        run(["sample", "--dist", "uniform", "--d", "1", "--n", "80", "--seed", "9",
             "--out", data])
        out = tmp_path / "d.json"
        assert run(["prob", "--data", data, "--d", "1", "--s", "2", "--days", "32,90",
                    "--out", out]) == 0
        assert 0.0 <= json.loads(out.read_text())["probability"] <= 1.0

    def test_empty_region_is_usage_error(self, tmp_path):
        data = tmp_path / "angles.csv"
        run(["sample", "--dist", "uniform", "--d", "1", "--n", "10", "--seed", "1",
             "--out", data])
        assert run(["prob", "--data", data, "--d", "1", "--s", "1"]) == 2

    def test_region_dimension_mismatch(self, tmp_path):
        data = tmp_path / "angles.csv"
        run(["sample", "--dist", "uniform", "--d", "1", "--n", "10", "--seed", "1",
             "--out", data])
        assert run(["prob", "--data", data, "--d", "1", "--s", "1",
                    "--rect", "0,1,0,1"]) == 2


class TestIngestCommand:
    def test_degrees(self, tmp_path):
        raw = tmp_path / "deg.csv"
        raw.write_text("degrees\n0\n90\n270\n359.5\n725\n")
        out = tmp_path / "rad.csv"
        assert run(["ingest", "--kind", "degrees-to-angle", "--in", raw, "--out", out,
                    "--column", "degrees"]) == 0
        thetas = read_floats(out, "theta_rad")
        assert np.all((thetas > -math.pi) & (thetas <= math.pi))
        assert thetas[1] == pytest.approx(math.pi / 2)
        assert thetas[2] == pytest.approx(-math.pi / 2)
        assert thetas[4] == pytest.approx(math.radians(5.0))

    def test_latlon(self, tmp_path):
        raw = tmp_path / "ll.csv"
        raw.write_text("latitude,longitude\n90,0\n0,0\n0,90\n")
        out = tmp_path / "xyz.csv"
        assert run(["ingest", "--kind", "latlon-to-sphere", "--in", raw, "--out", out]) == 0
        header, rows = read_csv(str(out))
        assert [float(v) for v in rows[0][:3]] == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
        assert [float(v) for v in rows[2][:3]] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_dates_with_leap_year(self, tmp_path):
        raw = tmp_path / "dates.csv"
        raw.write_text("date\n2023-01-01\n2024-02-29\n2023-12-31\n")
        out = tmp_path / "ang.csv"
        assert run(["ingest", "--kind", "dates-to-angle", "--in", raw, "--out", out,
                    "--day-anchor", "start"]) == 0
        thetas = read_floats(out, "theta_rad")
        assert -math.pi < thetas[0] < -math.pi + 1e-6   # day 1 sits just above -pi
        assert thetas[1] == pytest.approx(2 * math.pi * 59 / 366 - math.pi, abs=1e-12)
        assert thetas[2] == pytest.approx(2 * math.pi * 364 / 365 - math.pi, abs=1e-12)

    def test_midpoint_anchor(self, tmp_path):
        raw = tmp_path / "dates.csv"
        raw.write_text("date\n2023-07-02\n")
        out = tmp_path / "ang.csv"
        assert run(["ingest", "--kind", "dates-to-angle", "--in", raw, "--out", out]) == 0
        # 2023-07-02 noon is day 182.5 of 365: the exact middle of the year
        assert read_floats(out, "theta_rad")[0] == pytest.approx(0.0, abs=1e-12)

    def test_skip_mode_counts(self, tmp_path, capsys):
        raw = tmp_path / "deg.csv"
        raw.write_text("degrees\n10\nbroken\n20\n")
        out = tmp_path / "rad.csv"
        assert run(["ingest", "--kind", "degrees-to-angle", "--in", raw, "--out", out,
                    "--column", "degrees", "--on-error", "skip"]) == 0
        assert "1 skipped" in capsys.readouterr().out
        assert read_floats(out, "theta_rad").size == 2

    def test_fail_mode(self, tmp_path):
        raw = tmp_path / "deg.csv"
        raw.write_text("degrees\nbroken\n")
        assert run(["ingest", "--kind", "degrees-to-angle", "--in", raw,
                    "--out", tmp_path / "o.csv", "--column", "degrees"]) == 3

    def test_missing_file(self, tmp_path):
        assert run(["ingest", "--kind", "degrees-to-angle", "--in", tmp_path / "nope.csv",
                    "--out", tmp_path / "o.csv"]) == 3


class TestMiseCommand:
    def test_single_rep_has_no_stderr(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["mise", "--true", "uniform", "--d", "1", "--s", "1", "--n", "100",
                    "--reps", "1", "--seed", "11", "--out", out]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 1 and rows[0]["mise_stderr"] is None

    def test_csv_output(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["mise", "--true", "uniform", "--d", "1", "--s", "0.5,1", "--n", "100",
                    "--reps", "2", "--seed", "11", "--out", out]) == 0
        header, rows = read_csv(str(out))
        assert header[0] == "s" and len(rows) == 2

    def test_means_ordered_by_smoothness_for_uniform_truth(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["mise", "--true", "uniform", "--d", "2", "--s", "0.5,1,2", "--n", "1000",
                    "--reps", "3", "--seed", "11", "--out", out]) == 0
        rows = json.loads(out.read_text())["rows"]
        means = [r["mise_mean"] for r in rows]
        assert means[0] > means[1] > means[2]


class TestBenchCommand:
    def test_tiny_run(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["bench", "--n", "100,200", "--seed", "13", "--repeats", "1",
                    "--out", out]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["n"] for r in rows] == [100, 200]

    def test_range_syntax(self):
        from sphkde.cli import _parse_n_range

        assert _parse_n_range("1000:3000:1000") == [1000, 2000, 3000]
        assert _parse_n_range("5,10") == [5, 10]


class TestRoundTrip:
    def test_csv_serialization_is_lossless(self, tmp_path):
        from sphkde.cli import load_sample
        from sphkde.sampling import SeededRng, sample_uniform

        out = tmp_path / "s.csv"
        run(["sample", "--dist", "uniform", "--d", "2", "--n", "300", "--seed", "21",
             "--out", out])
        direct = sample_uniform(2, 300, SeededRng(21))
        loaded = load_sample(str(out), 2)
        assert np.array_equal(loaded.xyz, direct.xyz)
        out1 = tmp_path / "s1.csv"
        run(["sample", "--dist", "uniform", "--d", "1", "--n", "300", "--seed", "22",
             "--out", out1])
        direct1 = sample_uniform(1, 300, SeededRng(22))
        loaded1 = load_sample(str(out1), 1)
        assert np.array_equal(loaded1.thetas, direct1.thetas)


class TestUsageErrors:
    def test_unknown_distribution_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sample", "--dist", "nope", "--d", "1", "--n", "1",
                                       "--seed", "0", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sample", "--dist", "uniform"])
        assert exc.value.code == 2

    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "never.csv"
        assert run(["eval", "--data", tmp_path / "absent.csv", "--d", "1", "--s", "1",
                    "--out", out]) == 3
        assert not out.exists()


class TestImportFootprint:
    def test_cli_import_leaves_out_mpmath_and_scipy_stats(self):
        # mpmath serves only the Legendre-integral lemma and test references
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, sphkde.cli; "
                "print([m for m in ('mpmath', 'scipy.stats') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert out.stdout.strip() == "[]"
