import json
import math

import pytest

from spheredpp.cli import run
from spheredpp.models import load_model, resolve
from spheredpp.sampler import sample_dpp
from spheredpp.sphere import PointPattern, SpherePoint
from spheredpp.streams import substream


@pytest.fixture
def mq_model(tmp_path):
    path = tmp_path / "mq.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "family": "multiquadric",
                "params": {"tau": 0.5, "delta": 0.5},
                "dim": 2,
                "mode": "kernel",
                "eta": 1.5,
            }
        )
    )
    return path


@pytest.fixture
def proj9_model(tmp_path):
    path = tmp_path / "proj9.json"
    path.write_text(
        json.dumps(
            {"schema": 1, "family": "most_repulsive", "params": {"eta": 9}, "dim": 2}
        )
    )
    return path


class TestSimulate:
    def test_artifacts_and_reproducibility(self, tmp_path, mq_model):
        out = tmp_path / "pts.csv"
        code = run(["simulate", "--model", str(mq_model), "--seed", "42", "--out", str(out)])
        assert code == 0
        first = out.read_bytes()
        sidecar = json.loads((tmp_path / "pts.csv.json").read_text())
        assert sidecar["seed"] == 42
        assert sidecar["model"]["family"] == "multiquadric"
        assert run(["simulate", "--model", str(mq_model), "--seed", "42", "--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_sidecar_model_reloads(self, tmp_path, mq_model):
        # the sidecar's model object is a valid model file for every command
        out = tmp_path / "pts.csv"
        assert run(["simulate", "--model", str(mq_model), "--seed", "3", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "pts.csv.json").read_text())
        reloaded = tmp_path / "reloaded.json"
        reloaded.write_text(json.dumps(sidecar["model"]))
        again = tmp_path / "again.csv"
        assert run(["simulate", "--model", str(reloaded), "--seed", "3", "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_different_seed_changes_output(self, tmp_path, mq_model):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--model", str(mq_model), "--seed", "1", "--out", str(out1)])
        run(["simulate", "--model", str(mq_model), "--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()


class TestPcf:
    def test_grid_rows_and_origin(self, tmp_path, mq_model):
        out = tmp_path / "pcf.csv"
        assert run(["pcf", "--model", str(mq_model), "--grid", "512", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,g0"
        assert len(lines) == 513
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1])) < 1e-10


class TestValidate:
    def test_projection_report(self, tmp_path, proj9_model):
        out = tmp_path / "report.json"
        code = run(
            [
                "validate",
                "--model",
                str(proj9_model),
                "--reps",
                "100",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["mean_count"] == 9.0
        assert report["var_count"] == 0.0
        assert report["pass"] is True

    def test_coeffs_eta_matches_validate_theory(self, tmp_path, proj9_model):
        coeffs_out = tmp_path / "coeffs.json"
        run(["coeffs", "--model", str(proj9_model), "--out", str(coeffs_out), "--format", "json"])
        coeffs = json.loads(coeffs_out.read_text())
        report_out = tmp_path / "report.json"
        run(
            [
                "validate", "--model", str(proj9_model), "--reps", "10",
                "--seed", "1", "--out", str(report_out),
            ]
        )
        report = json.loads(report_out.read_text())
        eta_from_table = sum(
            lvl["multiplicity"] * lvl["lambda"] for lvl in coeffs["levels"]
        )
        assert eta_from_table == report["theory_eta"] == coeffs["eta"]


class TestProject:
    def test_projection_output(self, tmp_path):
        pattern = PointPattern(
            2,
            (
                SpherePoint.s2(0.0, 0.0),            # north pole
                SpherePoint.s2(math.pi / 2, 0.0),    # equator
                SpherePoint.s2(3.0, 1.0),            # deep south
            ),
        )
        src = tmp_path / "pts.csv"
        pattern.to_csv(src)
        out = tmp_path / "proj.csv"
        assert run(["project", "--pattern", str(src), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        cells = [r.split(",") for r in rows]
        assert cells[0][2] == "north"
        assert math.hypot(float(cells[0][0]), float(cells[0][1])) == 0.0
        assert math.hypot(float(cells[1][0]), float(cells[1][1])) == pytest.approx(1.0, abs=1e-12)
        assert cells[2][2] == "south"
        norths = [c for c in cells if c[2] == "north"]
        assert len(norths) == 2

    def test_d1_pattern_rejected(self, tmp_path):
        src = tmp_path / "pts.csv"
        PointPattern(1, (SpherePoint.circle(0.3),)).to_csv(src)
        assert run(["project", "--pattern", str(src), "--out", str(tmp_path / "o.csv")]) == 1


class TestFitCommands:
    def test_loglik_and_mle(self, tmp_path, mq_model):
        pts = tmp_path / "pts.csv"
        run(["simulate", "--model", str(mq_model), "--seed", "7", "--out", str(pts)])
        pattern = PointPattern.from_csv(pts)
        if len(pattern) == 0:  # reroll a seed that gives points
            run(["simulate", "--model", str(mq_model), "--seed", "8", "--out", str(pts)])
            pattern = PointPattern.from_csv(pts)
        out = tmp_path / "ll.json"
        assert run(["loglik", "--model", str(mq_model), "--pattern", str(pts), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n_points"] == len(pattern)
        fit_out = tmp_path / "fit.json"
        code = run(["mle", "--model", str(mq_model), "--pattern", str(pts), "--out", str(fit_out)])
        assert code == 0
        fit = json.loads(fit_out.read_text())
        assert fit["converged"] is True

    def test_density_mode_mle_fits_the_scale_of_psi(self, tmp_path):
        # mle fits chi of chi psi: the chi a density-mode model file holds must not
        # move the fit (it once fitted 37.202, 36.663 and 33.680 for chi = 1, 5, 50)
        base = {"family": "multiquadric", "params": {"tau": 10.0, "delta": 0.74}, "dim": 2}
        draw = sample_dpp(resolve(load_model(dict(base, eta=300.0))), substream(3, "basis"))
        pts = tmp_path / "pts.csv"
        draw.pattern.to_csv(pts)
        assert len(draw.pattern) == 292
        fits = []
        for data in [dict(base, eta=300.0)] + [dict(base, mode="density", chi=chi) for chi in (1.0, 5.0, 50.0)]:
            model, out = tmp_path / "m.json", tmp_path / "fit.json"
            model.write_text(json.dumps(data))
            assert run(["mle", "--model", str(model), "--pattern", str(pts), "--out", str(out)]) == 0
            fits.append(json.loads(out.read_text())["chi"])
        assert fits == pytest.approx([fits[0]] * 4, rel=1e-5)

    @pytest.mark.parametrize("command", ["loglik", "mle"])
    def test_pattern_on_another_sphere_exits_1(self, tmp_path, capsys, command):
        # the fit model of the benchmark (S^2, density mode) on an S^1 pattern
        model = tmp_path / "fit.json"
        model.write_text(
            json.dumps(
                {"family": "multiquadric", "params": {"tau": 10.0, "delta": 0.66},
                 "dim": 2, "mode": "density", "chi": 1.0}
            )
        )
        pts = tmp_path / "pts.csv"
        thetas = [2.0 * math.pi * i / 40 for i in range(40)]
        pts.write_text("theta\n" + "".join(f"{t!r}\n" for t in thetas))
        assert run([command, "--model", str(model), "--pattern", str(pts)]) == 1
        captured = capsys.readouterr()
        assert "pattern dimension does not match the density context" in captured.err
        assert captured.out == ""

    def test_loglik_rejects_nan_coordinate(self, tmp_path, capsys):
        model = tmp_path / "mq1.json"
        model.write_text(
            json.dumps(
                {"family": "multiquadric", "params": {"tau": 1.0, "delta": 0.5},
                 "dim": 1, "mode": "density", "chi": 1.0}
            )
        )
        pts = tmp_path / "pts.csv"
        pts.write_text("theta\n0.5\nnan\n")
        assert run(["loglik", "--model", str(model), "--pattern", str(pts)]) == 1
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("theta,phi\n0.5,1.0\n0.7\n", "line 3: field count 1 does not match"),
            ("theta,phi\n0.5,1.0\n\n0.7,abc\n", "line 4, column 'phi'"),
            ("theta\n1,2\n", "line 2: field count 2 does not match"),
        ],
    )
    def test_loglik_names_bad_csv_line(self, tmp_path, capsys, text, message):
        model = tmp_path / "mq2.json"
        model.write_text(
            json.dumps(
                {"family": "multiquadric", "params": {"tau": 1.0, "delta": 0.5},
                 "dim": 2, "mode": "density", "chi": 1.0}
            )
        )
        pts = tmp_path / "pts.csv"
        pts.write_text(text)
        assert run(["loglik", "--model", str(model), "--pattern", str(pts)]) == 1
        assert message in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error(self):
        assert run(["simulate"]) == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--out", "{out}", "--seed", "-1"], "--seed"),
        (["validate", "--reps", "1"], "--reps"),
        (["pcf", "--out", "{out}", "--grid", "0"], "--grid"),
        (["pcf", "--out", "{out}", "--grid", "-2"], "--grid"),
        (["mle", "--pattern", "{out}", "--zeta0", "nan"], "--zeta0"),
        (["mle", "--pattern", "{out}", "--zeta0", "inf"], "--zeta0"),
        (["mle", "--pattern", "{out}", "--zeta0", "1e300"], "--zeta0"),
    ])
    def test_bad_value_names_its_flag(self, tmp_path, capsys, mq_model, argv, flag):
        # rejected while parsing: exit 2, the flag named, nothing written
        out = tmp_path / "out.csv"
        argv = [argv[0], "--model", str(mq_model), *(a.format(out=out) for a in argv[1:])]
        assert run(argv) == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_multiplicities_past_the_double_range_exit_1_naming_dim(self, tmp_path, capsys):
        # m_(l,200) overflows a double below level 4096: one error line, and no numpy
        # warning, which the CLI would catch as an error under the test configuration
        model = tmp_path / "d200.json"
        model.write_text(json.dumps(
            {"family": "spectral", "params": {"alpha": 1000, "beta": 1, "kappa": 1}, "dim": 200}
        ))
        out = tmp_path / "c.csv"
        assert run(["coeffs", "--model", str(model), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: multiplicities at dim=200 overflow a double from level")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_runtime_error(self, tmp_path):
        assert run(["pcf", "--model", str(tmp_path / "missing.json"), "--out", "x.csv"]) == 1

    def test_repulsiveness_stdout(self, proj9_model, capsys):
        assert run(["repulsiveness", "--model", str(proj9_model)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eta_times_I"] == 1.0


class TestModelValidation:
    MQ = {"family": "multiquadric", "params": {"tau": 1.0, "delta": 0.5}, "dim": 2, "eta": 10.0}

    def _run(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = run(["repulsiveness", "--model", str(path)])
        return code, capsys.readouterr().err

    def test_unknown_parameter(self, tmp_path, capsys):
        data = dict(self.MQ, params={"tau": 1.0, "delta": 0.5, "typo": 3})
        code, err = self._run(tmp_path, capsys, data)
        assert code == 1
        assert "typo" in err

    def test_missing_parameter(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, dict(self.MQ, params={"tau": 1.0}))
        assert code == 1
        assert "missing parameter 'delta'" in err

    def test_missing_dim(self, tmp_path, capsys):
        data = {k: v for k, v in self.MQ.items() if k != "dim"}
        code, err = self._run(tmp_path, capsys, data)
        assert code == 1
        assert "missing field 'dim'" in err

    def test_unknown_top_level_field(self, tmp_path, capsys):
        # a misspelt "trunc" must not silently fall back to the default tolerance
        code, err = self._run(tmp_path, capsys, dict(self.MQ, trnc={"tail_tol": 1e-12}))
        assert code == 1
        assert "unknown field 'trnc'" in err

    def test_non_numeric_parameter(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, dict(self.MQ, params={"tau": "ten", "delta": 0.5}))
        assert code == 1
        assert "tau must be a finite number" in err

    @pytest.mark.parametrize("tail_tol", [0.0, 1.0, 5.0])
    def test_tail_tol_outside_unit_interval(self, tmp_path, capsys, tail_tol):
        # tail_tol = 5 once resolved a multiquadric to one level with eta = 0.27 of 1
        code, err = self._run(tmp_path, capsys, dict(self.MQ, trunc={"tail_tol": tail_tol}))
        assert code == 1
        assert "trunc.tail_tol must lie in (0, 1)" in err

    def test_negative_max_level(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, dict(self.MQ, trunc={"max_level": -1}))
        assert code == 1
        assert "trunc.max_level must be >= 0" in err

    def test_circular_matern_zero_max_level(self, tmp_path, capsys):
        data = {"family": "circular_matern", "params": {"sigma": 1.0, "nu": 0.5, "alpha": 1.0},
                "dim": 1, "trunc": {"max_level": 0}}
        code, err = self._run(tmp_path, capsys, data)
        assert code == 1
        assert "trunc.max_level" in err

    def test_circular_matern_tail_overflow_names_fields(self, tmp_path, capsys):
        # this once printed "error: math range error"
        data = {"family": "circular_matern", "params": {"sigma": 1.0, "nu": 1e-310, "alpha": 1.0}, "dim": 1}
        code, err = self._run(tmp_path, capsys, data)
        assert code == 1
        assert "sigma = 1.0, nu = 1e-310: the tail bound" in err

    @pytest.mark.parametrize("family", ["askey", "c2_wendland", "c4_wendland", "spherical"])
    def test_tiny_compact_support_exits_0(self, tmp_path, capsys, family):
        # the tail majorant's powers of c n_max underflow to 0 here; this once
        # exited 1 with "float division by zero"
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"family": family, "params": {"c": 1e-300}, "dim": 1, "rho": 0.1}))
        assert run(["coeffs", "--model", str(model), "--out", str(tmp_path / "c.csv")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("family", ["c2_wendland", "c4_wendland"])
    @pytest.mark.parametrize("c", [3.15, 3.2, 3.25, 3.5])
    def test_wendland_past_pi_names_c(self, tmp_path, capsys, family, c):
        # psi is not a correlation on S^1 past pi; 3.15 and 3.2 once resolved
        # (3.2 with 98 or 169 of its 513 coefficients clamped to 0), 3.25 and
        # 3.5 once failed only when resolved
        model, out = tmp_path / "m.json", tmp_path / "c.csv"
        model.write_text(json.dumps({"family": family, "params": {"c": c}, "dim": 1, "rho": 0.1}))
        assert run(["coeffs", "--model", str(model), "--out", str(out)]) == 1
        assert f"c must lie in (0, {math.pi!r}], got {c!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_density_tail_past_max_level_exits_1(self, tmp_path, capsys):
        # once cut at 58 levels with every lambda = 1, declared no tail and exited 0
        model = tmp_path / "m.json"
        data = {k: v for k, v in self.MQ.items() if k != "eta"}
        data = dict(data, mode="density", chi=1e307, trunc={"max_level": 300})
        model.write_text(json.dumps(data))
        assert run(["coeffs", "--model", str(model), "--out", str(tmp_path / "c.csv")]) == 1
        assert "max_level=300" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_most_repulsive_past_max_level_exits_1(self, tmp_path, capsys):
        # the boundary level of eta = 1e6 on S^1 is 500,000: once resolved and
        # written out in full, whatever trunc.max_level said
        model = tmp_path / "m.json"
        data = {"family": "most_repulsive", "params": {"eta": 1e6}, "dim": 1,
                "trunc": {"max_level": 100}}
        model.write_text(json.dumps(data))
        assert run(["coeffs", "--model", str(model), "--out", str(tmp_path / "c.csv")]) == 1
        assert "max_level=100" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("command", ["coeffs", "loglik", "mle"])
    def test_chi_overflowing_sigma_names_chi(self, tmp_path, capsys, command):
        # chi * sigma_2 overflows: once this printed eta = nan and exited 0
        model = tmp_path / "huge.json"
        data = {k: v for k, v in self.MQ.items() if k != "eta"}
        model.write_text(json.dumps(dict(data, mode="density", chi=1e308)))
        pts = tmp_path / "pts.csv"
        PointPattern(2, (SpherePoint.s2(0.5, 1.0), SpherePoint.s2(2.0, 3.0))).to_csv(pts)
        extra = ["--out", str(tmp_path / "c.csv")] if command == "coeffs" else ["--pattern", str(pts)]
        assert run([command, "--model", str(model), *extra]) == 1
        captured = capsys.readouterr()
        assert "'chi'" in captured.err
        assert "nan" not in captured.out

    SPECTRAL = {"family": "spectral", "params": {"alpha": 8.0, "beta": 1.0, "kappa": 2.0}, "dim": 2}
    MQ_DENSITY = {"family": "multiquadric", "params": {"tau": 1.0, "delta": 0.5}, "dim": 2,
                  "mode": "density", "chi": 2.0}

    @pytest.mark.parametrize(
        "data, named",
        [
            # a spectrum family takes no rho, eta or chi, and no density mode
            (dict(SPECTRAL, eta=100.0, mode="density", chi=3.0), "'eta'"),
            (dict(SPECTRAL, chi=3.0), "'chi'"),
            (dict(SPECTRAL, mode="density"), "'density'"),
            ({"family": "most_repulsive", "params": {"eta": 9.0}, "dim": 2, "eta": 9.0}, "'eta'"),
            # density mode takes no rho or eta
            (dict(MQ_DENSITY, eta=5.0), "'eta'"),
            (dict(MQ_DENSITY, rho=0.1), "'rho'"),
            # kernel mode takes no chi
            (dict(MQ, chi=3.0), "'chi'"),
            # eta and rho are one quantity: given both, neither is taken silently
            (dict(MQ, rho=0.1), "'eta' or 'rho', not both"),
        ],
    )
    def test_field_the_model_ignores_exits_1(self, tmp_path, capsys, data, named):
        # each of these once exited 0 with the field dropped, or the other field taken
        model, out = tmp_path / "m.json", tmp_path / "c.csv"
        model.write_text(json.dumps(data))
        assert run(["coeffs", "--model", str(model), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, named",
        [
            (dict(MQ, params={"tau": 0.0, "delta": 0.5}), "tau"),
            (dict(MQ, params={"tau": 1.0, "delta": 0.0}), "delta"),
            (dict(MQ, params={"tau": 1.0, "delta": 1.0}), "delta"),
            (dict(MQ, family="matern", params={"nu": 0.0, "c": 1.0}), "nu"),
            (dict(MQ, family="matern", params={"nu": 0.6, "c": 1.0}), "nu"),
            (dict(MQ, family="matern", params={"nu": 0.5, "c": 0.0}), "c"),
            ({"family": "c2_wendland", "params": {"c": 7.0}, "dim": 1, "rho": 0.1}, "c"),
            ({"family": "c4_wendland", "params": {"c": 7.0}, "dim": 1, "rho": 0.1}, "c"),
            (dict(SPECTRAL, params={"alpha": 0.0, "beta": 1.0, "kappa": 2.0}), "alpha"),
            (dict(SPECTRAL, params={"alpha": 8.0, "beta": 0.0, "kappa": 2.0}), "beta"),
            (dict(SPECTRAL, params={"alpha": 8.0, "beta": 1.0, "kappa": 0.0}), "kappa"),
            ({"family": "most_repulsive", "params": {"eta": 0.0}, "dim": 2}, "eta"),
            ({"family": "circular_matern", "params": {"sigma": 0.0, "nu": 0.5, "alpha": 1.0}, "dim": 1}, "sigma"),
            ({"family": "askey", "params": {"c": 1.0}, "dim": 2, "rho": 0.01}, "d=1 only"),
            ({"family": "circular_matern", "params": {"sigma": 0.5, "nu": 0.5, "alpha": 1.0}, "dim": 2},
             "d=1 only"),
            (dict(MQ, eta=math.nan), "eta"),
            (dict(MQ, params={"tau": math.nan, "delta": 0.5}), "tau"),
            (dict(MQ_DENSITY, chi=math.nan), "chi"),
            (dict(MQ, dim=math.nan), "dim"),
            (dict(MQ, trunc={"tail_tol": math.nan}), "trunc.tail_tol"),
        ],
    )
    def test_out_of_range_field_exits_1_before_resolve(self, tmp_path, capsys, monkeypatch, data, named):
        from spheredpp import models

        def no_resolve(spec):
            raise AssertionError("resolve reached")

        monkeypatch.setattr(models, "resolve", no_resolve)
        model, out = tmp_path / "m.json", tmp_path / "c.csv"
        model.write_text(json.dumps(data))
        assert run(["coeffs", "--model", str(model), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err
        assert "resolve reached" not in err
        assert not out.exists()
