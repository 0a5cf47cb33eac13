"""Command-line interface tests: exit codes, file emission, determinism
and manifest-based regeneration."""

import ast
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from macrocat import cli, fock, output, pipeline, sampling
from macrocat.errors import NumericError
import oracles


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "alpha": 1.05e4,
        "phi": 0.0,
        "eta_total": 0.49,
        "eta_budget": {
            "modematch": 0.81,
            "optics": 0.77,
            "detector": 0.86,
            "undisplacement": 0.95,
        },
        "n_count_shots": 30_000,
        "n_quad_shots": 8_000,
        "phase_noise_sigma": 0.0,
        "seed": 71,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_dir(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestSmoke:
    def test_analytic(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("analytic", "--config", cfg, "--out", out, "--quiet") == 0
        for name in ("curves_phi0.csv", "curves_phi90.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert round(summary["variance_ratio"], 2) == 1.28
        assert summary["discrimination_error"] == pytest.approx(0.36, abs=0.03)

    def test_analytic_quarter_phase_curve_is_flat(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run_cli("analytic", "--config", cfg, "--out", out, "--quiet")
        curves = np.genfromtxt(out / "curves_phi90.csv", delimiter=",", names=True)
        assert np.abs(curves["mean_nB"]).max() < 1e-9
        # variance at the edge of the scanned window approaches the
        # two-shot-noise floor (first bin center sits at 3.9 marginal
        # sigmas, still ~8% above the asymptote)
        floor = 2 * 1.05e4**2
        assert curves["var_nB"][0] == pytest.approx(floor, rel=0.10)
        # center bin (nA = 0) carries the full peak enhancement
        assert curves["var_nB"][20] == pytest.approx(
            (4 + 0.49) / (4 - 0.49) * floor, rel=1e-9
        )

    @pytest.mark.parametrize("alpha", [1e60, 1e150])
    def test_analytic_finite_at_huge_amplitude(self, tmp_path, alpha):
        # the closed forms in alpha^2 overflowed here: exit 0 with -inf in
        # var_nB at 1e60, and a NaN discrimination error at 1e150
        cfg = write_config(tmp_path, alpha=alpha)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("analytic", "--config", cfg, "--out", out, "--quiet") == 0
        assert [str(w.message) for w in caught] == []
        for name in ("curves_phi0.csv", "curves_phi90.csv"):
            curves = np.genfromtxt(out / name, delimiter=",", names=True)
            for column in curves.dtype.names:
                assert np.isfinite(curves[column]).all(), (name, column)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["discrimination_error"] == pytest.approx(0.36, abs=0.03)

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 3.0, 40.0, 1e155, 1e300])
    def test_analytic_dephasing_at_any_sigma(self, tmp_path, sigma):
        # sigma**2 overflowed from ~1.3e154 on, and the run exited 2
        try:
            factor = math.exp(-sigma**2 / 2.0)
        except OverflowError:
            factor = 0.0
        cfg = write_config(tmp_path, phase_noise_sigma=sigma)
        out = tmp_path / "out"
        assert run_cli("analytic", "--config", cfg, "--out", out, "--quiet") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["concurrence"] == 0.49 * factor

    def test_simulate_counts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("simulate-counts", "--config", cfg, "--out", out, "--quiet") == 0
        expected = {
            "curves_phi0.csv", "curves_phi90.csv", "histograms.csv",
            "summary.json", "manifest.json",
        }
        assert expected <= {p.name for p in out.iterdir()}

    def test_tomography(self, tmp_path):
        cfg = write_config(tmp_path, eta_total=1.0, eta_budget={}, n_quad_shots=20_000)
        out = tmp_path / "out"
        assert run_cli("tomography", "--config", cfg, "--out", out, "--quiet") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["concurrence"] >= 0.97
        result = json.loads((out / "result.json").read_text())
        assert np.all(np.diff(result["loglik"]) >= -1e-9)
        doc = result["rho"]
        assert (doc["dim"], doc["modes"]) == (2, 2)
        data = np.reshape(doc["re"], (4, 4)) + 1j * np.reshape(doc["im"], (4, 4))
        fock.DensityMatrix(data).validate()
        assert (out / "records.csv").read_text().startswith("shot,thetaA,xA,thetaB,xB")

    def test_wigner_marginal_matches_direct_computation(self, tmp_path):
        spec = tmp_path / "state.json"
        spec.write_text(json.dumps({
            "alpha": 1.0, "c0": 1.0, "c1": 1.0, "dim": 16,
            "grid": {"min": -6.0, "max": 6.0, "step": 0.05},
        }))
        out = tmp_path / "out"
        assert run_cli("wigner", "--config", spec, "--out", out, "--quiet") == 0
        x, p, w = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1, unpack=True)
        xs = np.unique(x)
        ps = np.unique(p)
        w = w.reshape(xs.size, ps.size)
        marginal = np.trapezoid(w, ps, axis=1)
        D = fock.displacement_matrix(1.0, 16)
        rho = oracles.pure_state(D[:, 0] + D[:, 1], 16, 1)
        # the direct evaluation needs a grid spanning the displaced mean +- 6
        wide = np.arange(-6.0, 8.5, 0.05)
        direct = oracles.quadrature_marginal(rho, 0.0, wide)[: xs.size]
        assert np.allclose(wide[: xs.size], xs, atol=1e-12)
        assert np.abs(marginal - direct).max() < 1e-3

    def test_wigner_at_the_paper_amplitude(self, tmp_path):
        # D(alpha)|1> lies ~14849 units from the default grid: every value is
        # 0, and the run warns that the table holds none of the state
        spec = tmp_path / "state.json"
        spec.write_text(json.dumps({"alpha": 1.05e4, "c0": 0, "c1": 1}))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="captures 0.000000 of the Wigner"):
            assert run_cli("wigner", "--config", spec, "--out", out, "--quiet") == 0
        w = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1, usecols=2)
        assert w.size == 121 * 121 and np.isfinite(w).all()

    # captured masses 1 - 7e-15 and 1 - 5.8e-5
    @pytest.mark.parametrize("doc", [{}, {"alpha": 2, "c0": 0, "c1": 1}])
    def test_wigner_on_grid_does_not_warn(self, tmp_path, doc):
        spec = tmp_path / "state.json"
        spec.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("wigner", "--config", spec, "--out", tmp_path / "out", "--quiet") == 0

    def test_wigner_single_photon_minimum_is_exact(self, tmp_path):
        # the square grid passes through the displaced centre x = 2 sqrt(2), p = 0
        step = 2.0 * math.sqrt(2.0) / 30.0
        spec = tmp_path / "state.json"
        spec.write_text(json.dumps({
            "alpha": 2, "c0": 0, "c1": 1,
            "grid": {"min": -64 * step, "max": 64 * step, "step": step},
        }))
        out = tmp_path / "out"
        assert run_cli("wigner", "--config", spec, "--out", out, "--quiet") == 0
        w = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1, usecols=2)
        assert w.min() == pytest.approx(-1.0 / math.pi, abs=1e-12)

    def test_wigner_far_single_point_grid_is_zero(self, tmp_path):
        # one grid point at x = p = 1e300, where (x - sqrt(2) alpha)^2 overflows
        spec = tmp_path / "state.json"
        spec.write_text(json.dumps({"grid": {"min": 1e300, "max": 1.5e300, "step": 1e300}}))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="captures 0.000000"):
            assert run_cli("wigner", "--config", spec, "--out", out, "--quiet") == 0
        assert (out / "wigner.csv").read_text().splitlines()[1].endswith(",0")

    def test_wigner_ignores_dim(self, tmp_path):
        # an integer dim from an older spec file changes no byte and is not recorded
        base = {"alpha": 0.7, "c0": 1.0, "c1": [0.5, -0.5]}
        runs = []
        for extra in ({}, {"dim": 1}, {"dim": 16}):
            spec = tmp_path / "state.json"
            spec.write_text(json.dumps({**base, **extra}))
            out = tmp_path / f"out{len(runs)}"
            assert run_cli("wigner", "--config", spec, "--out", out, "--quiet") == 0
            runs.append(read_dir(out))
        assert runs[0] == runs[1] == runs[2]
        assert "dim" not in json.loads(runs[0]["manifest.json"])["config"]

    def test_wigner_at_the_largest_amplitude(self, tmp_path):
        alpha = math.sqrt(np.finfo(float).max) / 2.0
        while math.isfinite(4.0 * alpha * alpha):
            alpha = math.nextafter(alpha, math.inf)
        alpha = math.nextafter(alpha, 0.0)
        spec = tmp_path / "state.json"
        spec.write_text(json.dumps({"alpha": alpha, "c0": [0.3, 0.1], "c1": [0.0, 1.0]}))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="captures 0.000000"):
            assert run_cli("wigner", "--config", spec, "--out", out, "--quiet") == 0
        w = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1, usecols=2)
        assert w.size == 121 * 121 and np.isfinite(w).all()

    def test_roundtrip_check(self, tmp_path):
        spec = tmp_path / "rt.json"
        spec.write_text(json.dumps({
            "alpha_small": 1.0, "mismatch_etas": [1.0, 0.95], "dim": 16,
        }))
        out = tmp_path / "out"
        assert run_cli("roundtrip-check", "--config", spec, "--out", out, "--quiet") == 0
        doc = json.loads((out / "roundtrip.json").read_text())
        assert doc["concurrence_monotone"] is True
        assert doc["results"][0]["fidelity_to_loss_model"] == pytest.approx(1.0, abs=1e-6)
        assert doc["results"][1]["concurrence_roundtrip"] == pytest.approx(0.95, abs=1e-6)

    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "macrocat.cli", "analytic",
             "--config", str(cfg), "--out", str(out), "--quiet"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert (out / "summary.json").exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,config_kwargs",
        [
            ("analytic", {}),
            ("simulate-counts", {"n_count_shots": 20_000}),
            ("tomography", {"n_quad_shots": 5_000}),
        ],
    )
    def test_repeat_runs_byte_identical(self, tmp_path, command, config_kwargs):
        cfg = write_config(tmp_path, **config_kwargs)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(command, "--config", cfg, "--out", out1, "--quiet") == 0
        assert run_cli(command, "--config", cfg, "--out", out2, "--quiet") == 0
        assert read_dir(out1) == read_dir(out2)

    def test_wigner_and_roundtrip_byte_identical(self, tmp_path):
        spec = tmp_path / "state.json"
        spec.write_text(json.dumps({"alpha": 0.5, "c0": 1.0, "c1": [0.0, 1.0], "dim": 8,
                                    "grid": {"min": -4.0, "max": 4.0, "step": 0.2}}))
        rt = tmp_path / "rt.json"
        rt.write_text(json.dumps({"alpha_small": 1.0, "mismatch_etas": [0.97], "dim": 16}))
        for cmd, cfg in (("wigner", spec), ("roundtrip-check", rt)):
            out1, out2 = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
            assert run_cli(cmd, "--config", cfg, "--out", out1, "--quiet") == 0
            assert run_cli(cmd, "--config", cfg, "--out", out2, "--quiet") == 0
            assert read_dir(out1) == read_dir(out2)

    def test_seed_override_changes_outputs_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, n_count_shots=20_000)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("simulate-counts", "--config", cfg, "--out", out1, "--quiet")
        run_cli("simulate-counts", "--config", cfg, "--out", out2, "--seed", 999, "--quiet")
        assert read_dir(out1)["curves_phi0.csv"] != read_dir(out2)["curves_phi0.csv"]
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 999

    def test_manifest_regenerates_outputs(self, tmp_path):
        cfg = write_config(tmp_path, n_count_shots=20_000)
        out1 = tmp_path / "a"
        run_cli("simulate-counts", "--config", cfg, "--out", out1, "--seed", 5, "--quiet")
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg2 = tmp_path / "from_manifest.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "b"
        assert run_cli(manifest["command"], "--config", cfg2, "--out", out2, "--quiet") == 0
        assert read_dir(out1) == read_dir(out2)

    def test_manifest_config_round_trips(self, tmp_path):
        from macrocat.pipeline import ExperimentConfig

        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run_cli("analytic", "--config", cfg, "--out", out, "--quiet")
        manifest = json.loads((out / "manifest.json").read_text())
        reparsed = ExperimentConfig.from_json_dict(manifest["config"])
        assert reparsed == ExperimentConfig.from_json_dict(json.loads(cfg.read_text()))


# Python 3.10.7 and later refuse to convert an integer string of more than
# 4300 digits, json's integer literals included
_NEEDS_INT_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit"
)
# an experiment.json that only the digit limit makes unreadable
_LONG_INTEGER_CONFIG = b'{"alpha": 1' + b"0" * 5000 + b"}"


class TestExitCodes:
    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("analytic", "--config", bad, "--out", tmp_path / "o") == 1

    def test_missing_config_file(self, tmp_path):
        assert run_cli("analytic", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == 1

    def test_unknown_config_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alpha": 1e4, "wavelength": 780}))
        assert run_cli("analytic", "--config", bad, "--out", tmp_path / "o") == 1

    def test_unknown_flag(self, tmp_path):
        assert run_cli("analytic", "--out", tmp_path / "o", "--frobnicate") == 1

    def test_numeric_error_exit(self, tmp_path, capsys, monkeypatch):
        # a valid spec whose computation fails exits 2; the spec the round
        # trip cannot truncate (alpha_small 3, dim 16) is a config error now
        def failed(*args, **kwargs):
            raise NumericError("round trip lost its trace")

        monkeypatch.setattr(pipeline, "displacement_roundtrip_check", failed)
        spec = tmp_path / "rt.json"
        spec.write_text(json.dumps({"alpha_small": 0.5, "mismatch_etas": [1.0], "dim": 16}))
        assert run_cli("roundtrip-check", "--config", spec, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1, err
        assert list((tmp_path / "o").iterdir()) == []

    def test_failing_count_block_exit(self, tmp_path, capsys, monkeypatch):
        # a block that fails on a pool thread exits 2 as it would in-line
        count_block = pipeline._count_block

        def block(config, params, edges, lo):
            if lo > 0:
                raise NumericError("block failed")
            return count_block(config, params, edges, lo)

        monkeypatch.setattr(pipeline, "_COUNT_BLOCK_SHOTS", 1000)
        monkeypatch.setattr(pipeline, "_count_block", block)
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_count_shots": 20000}')
        out = tmp_path / "o"
        assert run_cli("simulate-counts", "--config", cfg, "--out", out, "--quiet") == 2
        assert capsys.readouterr().err == "numerical error: block failed\n"
        assert list(out.iterdir()) == []

    def test_io_error_exit(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        cfg = write_config(tmp_path)
        code = run_cli("analytic", "--config", cfg, "--out", blocker / "sub")
        assert code == 3

    @pytest.mark.parametrize(
        "command,document",
        [
            ("analytic", '{"alpha": NaN}'),
            ("analytic", '{"alpha": Infinity}'),
            ("tomography", '{"phase_noise_sigma": NaN}'),
            ("tomography", '{"n_quad_shots": 1500.5}'),
            ("simulate-counts", '{"n_count_shots": true}'),
            ("analytic", '{"eta_budget": [1]}'),
            ("wigner", '{"alpha": NaN}'),
            ("wigner", '{"dim": 3.7}'),
            ("wigner", '{"grid": {"step": NaN}}'),
            ("roundtrip-check", '{"alpha_small": NaN}'),
            ("roundtrip-check", '{"mismatch_etas": 0.9}'),
            ("roundtrip-check", '{"mismatch_etas": []}'),
            ("roundtrip-check", '{"dim": 16.5}'),
            ("wigner", "5"),
            ("roundtrip-check", "null"),
            ("wigner", '"ab"'),
            ("analytic", "[1]"),
            # bools and numeric strings are not numbers; grid takes no other keys
            ("tomography", '{"phi": true}'),
            ("tomography", '{"phase_noise_sigma": true}'),
            ("analytic", '{"eta_budget": {"a": true}, "eta_total": 1.0}'),
            ("wigner", '{"c1": [true, "0.5"]}'),
            ("wigner", '{"alpha": "0.5"}'),
            ("wigner", '{"grid": {"stpe": 0.5}}'),
            ("roundtrip-check", '{"alpha_small": true, "phi": "1.5", "mismatch_etas": ["0.9"]}'),
        ],
    )
    def test_non_finite_or_mistyped_config(self, tmp_path, capsys, command, document):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        assert run_cli(command, "--config", bad, "--out", tmp_path / "o", "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        doc = json.loads(document)
        if isinstance(doc, dict):
            # the message names the offending field
            assert next(iter(doc)) in err, err
        assert list((tmp_path / "o").iterdir()) == []

    def test_counts_at_largest_amplitudes_stay_finite(self, tmp_path):
        # dn_B**2 overflowed here: exit 2 with three CSVs left in --out
        cfg = tmp_path / "c.json"
        cfg.write_text('{"alpha": 5e153, "n_count_shots": 20000}')
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("simulate-counts", "--config", cfg, "--out", out, "--quiet") == 0
        assert [str(w.message) for w in caught] == []
        for name in ("curves_phi0.csv", "curves_phi90.csv"):
            curves = np.genfromtxt(out / name, delimiter=",", names=True)
            filled = curves["count"] > 1
            assert filled.sum() > 20, name
            for column in curves.dtype.names:
                assert np.isfinite(curves[column][filled]).all(), (name, column)

    @pytest.mark.parametrize("seed", [3, 71])
    def test_counts_infinite_edge_variance_leaves_no_files(self, tmp_path, capsys, seed):
        # an edge bin's few shots spread over ~10 alpha: its variance exceeds
        # the float64 range; this exited 0 with inf in var_nB, after a numpy
        # overflow warning
        cfg = tmp_path / "c.json"
        cfg.write_text('{"alpha": 5e153, "n_count_shots": 20000}')
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("simulate-counts", "--config", cfg, "--out", out, "--seed", seed,
                           "--quiet")
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == "numerical error: curves_phi90.csv: column var_nB holds an infinity\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["wigner", "roundtrip-check"])
    def test_seed_only_where_a_seed_exists(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert run_cli(command, "--out", out, "--seed", 5, "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--seed" in err and err.count("\n") == 1, err
        assert not out.exists()

    def test_counts_rejected_summary_leaves_no_files(self, tmp_path, capsys):
        # 40 shots leave the centre bin empty: the variance ratio is NaN
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_count_shots": 40, "seed": 302}')
        out = tmp_path / "o"
        assert run_cli("simulate-counts", "--config", cfg, "--out", out, "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command,document",
        [
            ("analytic", '{"alpha": 5.0}'),
            ("simulate-counts", '{"alpha": 5.0}'),
            ("tomography", '{"alpha": 5.0, "n_quad_shots": 6000}'),
            ("analytic", '{"alpha": 1e160}'),
            ("analytic", '{"alpha": 1.3e154}'),
            ("simulate-counts", '{"alpha": 1e160, "n_count_shots": 1000}'),
            ("tomography", '{"alpha": 1e160, "n_quad_shots": 6000}'),
            ("roundtrip-check", '{"alpha_small": 1e200}'),
            ("roundtrip-check", '{"alpha_small": 3.0, "mismatch_etas": [1.0], "dim": 16}'),
            ("roundtrip-check", '{"mismatch_etas": [1.5]}'),
            ("roundtrip-check", '{"mismatch_etas": [0]}'),
            ("roundtrip-check", '{"dim": 0}'),
            # alpha_small 0 keeps the truncation budget at dim 1: dim is the offender
            ("roundtrip-check", '{"dim": 1, "alpha_small": 0}'),
            ("roundtrip-check", '{"alpha_small": 3, "dim": 8}'),
            # past 1024 levels the displacement matrix turns NaN
            ("roundtrip-check", '{"dim": 1025}'),
            ("analytic", '{"alpha": -1}'),
            # the record count is checked after sampling; nothing is written
            ("tomography", '{"n_quad_shots": 999}'),
            ("wigner", '{"grid": {"step": 0.6}}'),
            ("wigner", '{"alpha": 1e200}'),
            ("wigner", '{"c0": 0, "c1": 0}'),
        ],
    )
    def test_out_of_domain_spec_is_config_error(self, tmp_path, capsys, command, document):
        """A value outside a kernel's domain is a config error: the kernel's
        own check raises ConfigError, so the run exits 1 and names the field."""
        _assert_out_of_domain_config_error(tmp_path, capsys, command, document)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize(
        "content",
        [
            # json.load recurses once per level
            b"[" * 100_000 + b"]" * 100_000,
            # a Latin-1 byte is not UTF-8
            b'{"alpha": 1e4, "note": "\xe9"}',
            # int() refuses a literal past its digit limit
            pytest.param(_LONG_INTEGER_CONFIG, marks=_NEEDS_INT_DIGIT_LIMIT),
        ],
        ids=["deep-nesting", "latin-1", "long-integer"],
    )
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run_cli(command, "--config", bad, "--out", tmp_path / "o", "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert str(bad) in err, err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("document", ['{"alpha": 1e160}', '{"alpha": 5.0}'])
    def test_tomography_rejects_amplitude_before_sampling(
        self, tmp_path, capsys, monkeypatch, document
    ):
        def sampled(*args, **kwargs):
            raise AssertionError("the amplitude was accepted and records were sampled")

        monkeypatch.setattr(sampling, "sample_quadrature_schedule", sampled)
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        assert run_cli("tomography", "--config", bad, "--out", tmp_path / "o", "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "alpha" in err, err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize(
        "command,target,document",
        [
            ("wigner", (fock, "wigner"), "{}"),
            ("roundtrip-check", (pipeline, "displacement_roundtrip_check"), "{}"),
        ],
    )
    def test_out_of_memory_is_numerical_error(
        self, tmp_path, capsys, monkeypatch, command, target, document
    ):
        # a spec too large to allocate ends in numpy's MemoryError; raise it
        # directly instead of allocating
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 TiB for an array")

        monkeypatch.setattr(*target, exhausted)
        spec = tmp_path / "spec.json"
        spec.write_text(document)
        assert run_cli(command, "--config", spec, "--out", tmp_path / "o", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1, err
        assert list((tmp_path / "o").iterdir()) == []

    @staticmethod
    def _assert_csv_matches_per_cell(path, columns):
        # compare line lists: a string diff of ~9,000 lines is too slow to read
        wrote = path.read_text().splitlines(keepends=True)
        expected = oracles.csv_lines_per_cell(columns)
        first = next((i for i, pair in enumerate(zip(wrote, expected)) if pair[0] != pair[1]), None)
        assert first is None, f"line {first + 1}: wrote {wrote[first]!r}, expected {expected[first]!r}"
        assert len(wrote) == len(expected), f"wrote {len(wrote)} lines, expected {len(expected)}"

    def test_csv_writer_matches_per_cell_formatting(self, tmp_path):
        # mixed columns over three 4096-row blocks: repeated values, signed
        # zeros, NaN, infinities, ints and bools
        rng = np.random.default_rng(5)
        n = 9000
        floats = rng.choice([0.0, -0.0, 1.5, -2.25e-300, np.nan, np.inf, -np.inf, 0.1], n)
        floats[::7] = rng.normal(size=floats[::7].size)
        columns = {
            "f": floats,
            "g": np.repeat(np.linspace(-6.0, 6.0, 121), 75)[:n],
            "i": rng.integers(-3, 3, n),
            "big": rng.integers(-(2**62), 2**62, n),
            "b": rng.integers(0, 2, n).astype(bool),
        }
        path = tmp_path / "t.csv"
        output.write_csv(path, columns)
        self._assert_csv_matches_per_cell(path, columns)

    @pytest.mark.parametrize("case", ["no-rows", "one-row", "distinct-then-repeated", "uint64"])
    def test_csv_writer_edge_blocks_match_per_cell_formatting(self, tmp_path, case):
        rng = np.random.default_rng(6)
        if case == "no-rows":
            # the header only
            columns = {"x": np.empty(0), "n": np.empty(0, dtype=np.int64)}
        elif case == "one-row":
            columns = {"x": np.array([-0.0]), "n": np.array([7]), "b": np.array([True])}
        elif case == "distinct-then-repeated":
            # block one repeats no value in any column, block two one per column
            columns = {
                "x": np.concatenate([rng.normal(size=4096), np.full(4096, -0.0)]),
                "n": np.concatenate([rng.permutation(4096) - 2048, np.full(4096, 5)]),
            }
        else:
            # distinct values up to 2**64 - 1 in block one, repeats in block two
            top = np.iinfo(np.uint64).max
            distinct = np.arange(top - 4095, top + 1, dtype=np.uint64)
            columns = {
                "u": np.concatenate([distinct, np.full(100, top, dtype=np.uint64)]),
                "v": rng.integers(0, 3, 4196, dtype=np.uint64),
            }
        path = tmp_path / "t.csv"
        output.write_csv(path, columns)
        self._assert_csv_matches_per_cell(path, columns)

    def test_json_writer_rejects_non_finite(self, tmp_path):
        # checked before any file is opened, the valid CSV document included
        documents = {"a.csv": {"x": np.arange(3.0)}, "doc.json": {"value": float("nan")}}
        with pytest.raises(NumericError, match="doc.json"):
            output.write_documents(tmp_path, documents)
        assert list(tmp_path.iterdir()) == []

    def test_csv_writer_rejects_infinity_but_keeps_nan(self, tmp_path):
        documents = {
            "a.json": {"value": 1.0},
            "b.csv": {"n": np.arange(3), "x": np.array([1.0, np.nan, -np.inf])},
        }
        with pytest.raises(NumericError, match="b.csv: column x"):
            output.write_documents(tmp_path, documents)
        assert list(tmp_path.iterdir()) == []
        documents["b.csv"]["x"][2] = 0.5
        output.write_documents(tmp_path, documents)
        assert (tmp_path / "b.csv").read_text() == "n,x\n0,1\n1,nan\n2,0.5\n"
        assert (tmp_path / "a.json").read_text() == '{\n  "value": 1.0\n}\n'

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run_cli("analytic", "--config", cfg, "--out", tmp_path / "o", "--quiet")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("modes", [("loud", "quiet"), ("quiet", "loud")])
    def test_quiet_holds_per_call_in_one_process(self, tmp_path, modes):
        # a child process, so the stderr of consecutive calls is read as the
        # process writes it
        code = (
            "import sys\n"
            "from macrocat import cli\n"
            "cfg, out, *modes = sys.argv[1:]\n"
            "for k, mode in enumerate(modes):\n"
            "    argv = ['simulate-counts', '--config', cfg, '--out', f'{out}/o{k}']\n"
            "    assert cli.main(argv + ['--quiet'] * (mode == 'quiet')) == 0\n"
            "    print('--', file=sys.stderr, flush=True)\n"
        )
        cfg = write_config(tmp_path, n_count_shots=20_000)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(cfg), str(tmp_path), *modes],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs = proc.stderr.split("--\n")[:-1]
        progress = [sum(line.startswith("progress: ") for line in run.splitlines()) for run in runs]
        assert progress == [2 if m == "loud" else 0 for m in modes]


def test_import_loads_no_numerical_integration_or_optimization():
    proc = subprocess.run(
        [sys.executable, "-c", "import macrocat.cli, sys; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(ast.literal_eval(proc.stdout))
    assert not loaded & {"scipy.integrate", "scipy.optimize"}


def _assert_out_of_domain_config_error(tmp_path, capsys, command, document):
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    assert run_cli(command, "--config", bad, "--out", tmp_path / "o", "--quiet") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    # the message names the offending field
    assert next(iter(json.loads(document))) in err, err
    assert list((tmp_path / "o").iterdir()) == []


def _modules_after(code: str, package: str) -> list[str]:
    """The modules of ``package`` a fresh interpreter holds after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    return [m for m in loaded if m == package or m.startswith(package + ".")]


def test_import_loads_no_scipy():
    assert _modules_after("import macrocat.cli", "scipy") == []


def test_import_loads_no_thread_pool():
    # only the count scenario runs a pool, and imports it itself
    assert _modules_after("import macrocat.cli", "concurrent") == []


def test_import_loads_no_logging():
    # progress lines are plain prints to stderr
    assert _modules_after("import macrocat.cli", "logging") == []


@pytest.mark.parametrize(
    "command,document",
    [("analytic", "{}"), ("wigner", "{}"), ("tomography", '{"n_quad_shots": 6000}')],
)
def test_command_without_scipy_kernels_loads_no_scipy(tmp_path, command, document):
    # only sample_counts and the round trip's kernels call scipy.special
    spec = tmp_path / "spec.json"
    spec.write_text(document)
    argv = [command, "--config", str(spec), "--out", str(tmp_path / "o"), "--quiet"]
    code = f"from macrocat import cli\nassert cli.main({argv!r}) == 0"
    assert _modules_after(code, "scipy") == []


# Any JSON value a roundtrip spec field can hold: NaN and +-Infinity tokens,
# bools, strings, nested lists and objects, integers at and beyond 2^64.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, 2**64 + 1, -(2**64), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def _field(plausible, other=_JSON_VALUES):
    """A spec field: three draws in four from its plausible range, the rest
    from ``other``."""
    return st.integers(0, 3).flatmap(lambda k: plausible if k else other)


# the top-level fields each command reads
_SPEC_FIELDS = {
    "roundtrip-check": {"alpha_small", "mismatch_etas", "dim", "phi"},
    "wigner": {"alpha", "c0", "c1", "dim", "grid"},
    **dict.fromkeys(
        ("analytic", "simulate-counts", "tomography"),
        set(pipeline.ExperimentConfig.__dataclass_fields__),
    ),
}
# the commands whose every failure is a config error: they compute nothing a
# valid spec can push out of range
_NEVER_NUMERICAL = {"analytic", "wigner", "roundtrip-check"}


def _with_unknown_key(specs, command):
    """``specs``, plus one top-level key ``command`` does not read in one
    draw of four."""
    unknown = st.text(max_size=6).filter(lambda k: k not in _SPEC_FIELDS[command])
    extra = _field(st.just({}), st.dictionaries(unknown, _JSON_VALUES, min_size=1, max_size=1))
    return st.tuples(specs, extra).map(lambda pair: {**pair[0], **pair[1]})


_NON_INTEGERS = _JSON_VALUES.filter(lambda v: type(v) is not int)
_ROUNDTRIP_SPECS = _with_unknown_key(st.fixed_dictionaries(
    {},
    optional={
        "alpha_small": _field(st.floats(-1.5, 1.5)),
        "mismatch_etas": _field(st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=3)),
        "phi": _field(st.floats(-10.0, 10.0)),
        # integers are kept in [2, 12] so every run is small
        "dim": _field(st.integers(2, 12), _NON_INTEGERS),
    },
), "roundtrip-check")


def _run_spec(command, spec, check_outputs=lambda out: None) -> tuple[int, str]:
    """Run ``command`` on the document ``spec``; return the exit code and
    stderr.  On exit 0, --out must hold exactly ``manifest.json`` and the
    files it lists, and ``check_outputs`` reads them; otherwise stderr must
    hold one line and no traceback, and --out must be empty.  A spec with a
    field the command does not read exits 1; only ``simulate-counts`` and
    ``tomography`` may exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(command, "--config", path, "--out", out, "--quiet")
        if code == 0:
            # exactly the files the manifest lists, and the manifest
            manifest = json.loads((out / "manifest.json").read_text())
            assert sorted(p.name for p in out.iterdir()) == sorted(
                ["manifest.json", *manifest["outputs"]]
            )
            check_outputs(out)
        else:
            assert code == 1 or (code == 2 and command not in _NEVER_NUMERICAL), err.getvalue()
            text = err.getvalue()
            assert text.count("\n") == 1 and "Traceback" not in text, text
            assert list(out.iterdir()) == []
    if set(spec) - _SPEC_FIELDS[command]:
        assert code == 1, err.getvalue()
    return code, err.getvalue()


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_ROUNDTRIP_SPECS)
def test_roundtrip_spec_property(spec):
    """Any roundtrip spec ends in finite, bounded results (exit 0) or in one
    stderr line, no traceback and an empty --out (exit 1)."""

    def check(out):
        doc = json.loads((out / "roundtrip.json").read_text())
        assert math.isfinite(doc["alpha_small"]) and math.isfinite(doc["phi"])
        for row in doc["results"]:
            assert all(math.isfinite(v) for v in row.values()), row
            for name in ("fidelity_to_loss_model", "concurrence_roundtrip",
                         "concurrence_initial"):
                assert 0.0 <= row[name] <= 1.0 + 1e-9, row

    _run_spec("roundtrip-check", spec, check)


def _experiment_specs(field=_field, **required):
    """experiment.json documents whose fields are drawn with ``field``, and
    in one draw of four an unknown field; each keyword names a field that is
    always drawn, from the strategy given."""
    optional = {
        "alpha": field(st.floats(1.0, 1e5)),
        "phi": field(st.floats(-1.0, 7.0)),
        # near the default budget's product, or anywhere
        "eta_total": field(st.one_of(st.floats(0.47, 0.53), st.floats(-0.1, 1.1))),
        "eta_budget": field(st.one_of(
            st.just({}),
            st.dictionaries(
                st.sampled_from(["modematch", "optics", "detector", "undisplacement"]),
                field(st.floats(0.0, 1.1)),
                max_size=4,
            ),
        )),
        "n_count_shots": field(st.integers(-5, 10**7)),
        "n_quad_shots": field(st.integers(-5, 10**7)),
        # and values whose square overflows
        "phase_noise_sigma": field(st.one_of(
            st.floats(-0.5, 3.0), st.sampled_from([40.0, 1e155, 1e300])
        )),
        "seed": field(st.integers(-5, 2**64 + 5)),
    }
    for name in required:
        del optional[name]
    return _with_unknown_key(st.fixed_dictionaries(required, optional=optional), "analytic")


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_experiment_specs())
# amplitudes the count model rejects: below the Gaussian regime, 4 alpha^2 overflowing
@example(spec={"alpha": 5.0})
@example(spec={"alpha": 1e160})
def test_experiment_config_property(spec):
    """Any experiment.json, read by ``analytic`` (every command reads it the
    same way), ends in bounded results and a manifest that records each field
    as given (exit 0), or fails as in :func:`_run_spec`."""

    def check(out):
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variance_ratio"] >= 1.0
        assert 0.0 <= summary["discrimination_error"] <= 0.5
        assert 0.0 <= summary["concurrence"] <= 1.0
        for name in ("curves_phi0.csv", "curves_phi90.csv"):
            curves = np.genfromtxt(out / name, delimiter=",", names=True)
            for column in curves.dtype.names:
                assert np.isfinite(curves[column]).all(), (name, column)
        config = json.loads((out / "manifest.json").read_text())["config"]
        given_config = {**pipeline.ExperimentConfig().to_json_dict(), **spec}
        assert json.dumps(config, sort_keys=True) == json.dumps(given_config, sort_keys=True)

    _run_spec("analytic", spec, check)


def _plausible(plausible, other=None):
    """A field drawn from its plausible range only."""
    return plausible


# the commands that sample draw plausible fields (the analytic property above
# draws the rest) and always a small shot count: anything else in that field
# is not an integer
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(spec=_experiment_specs(
    _plausible, n_quad_shots=_field(st.integers(1000, 3000), _NON_INTEGERS)
))
def test_tomography_config_property(spec):
    """Any experiment.json run through ``tomography`` ends in a valid
    reconstruction (exit 0) or fails as in :func:`_run_spec`."""

    def check(out):
        result = json.loads((out / "result.json").read_text())
        assert 0.0 <= result["concurrence"] <= 1.0
        assert 0.0 <= result["fidelity_to_model"] <= 1.0 + 1e-9

    _run_spec("tomography", spec, check)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_experiment_specs(
    _plausible, n_count_shots=_field(st.integers(-5, 2000), _NON_INTEGERS)
))
def test_simulate_counts_config_property(spec):
    """Any experiment.json run through ``simulate-counts`` ends in curves
    that hold NaN only in bins with too few shots (exit 0), or fails as in
    :func:`_run_spec`."""

    def check(out):
        for name in ("curves_phi0.csv", "curves_phi90.csv"):
            curves = np.genfromtxt(out / name, delimiter=",", names=True)
            assert curves["count"].sum() == spec["n_count_shots"]
            assert np.array_equal(np.isnan(curves["mean_nB"]), curves["count"] == 0)
            assert np.array_equal(np.isnan(curves["var_nB"]), curves["count"] < 2)

    _run_spec("simulate-counts", spec, check)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and (
        isinstance(v, int) or math.isfinite(v)
    )


# grid bounds and steps outside the plausible draws are never numbers, so no
# run tabulates a large grid
_NON_NUMBERS = _JSON_VALUES.filter(lambda v: not _is_number(v))
_COEFFS = st.one_of(st.floats(-2.0, 2.0), st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
_WIGNER_SPECS = _with_unknown_key(st.fixed_dictionaries(
    {},
    optional={
        "alpha": _field(st.one_of(
            st.floats(-2.0, 2.0), st.sampled_from([1.05e4, 1e150, 1e200])
        )),
        "c0": _field(_COEFFS),
        "c1": _field(_COEFFS),
        "dim": _field(st.integers(1, 12), _NON_INTEGERS),
        "grid": _field(
            st.fixed_dictionaries(
                {},
                optional={
                    "min": _field(st.floats(-3.0, 0.0), _NON_NUMBERS),
                    "max": _field(st.floats(0.0, 3.0), _NON_NUMBERS),
                    "step": _field(st.floats(0.05, 0.6), _NON_NUMBERS),
                },
            ),
            _NON_NUMBERS.filter(lambda v: not isinstance(v, dict)),
        ),
    },
), "wigner")


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_WIGNER_SPECS)
def test_wigner_spec_property(spec):
    """Any wigner spec on a small grid ends in a finite Wigner function within
    the bound ``|W| <= 1/pi`` of a normalized state (exit 0), or fails as in
    :func:`_run_spec`."""

    def check(out):
        w = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1, usecols=2, ndmin=1)
        assert np.isfinite(w).all()
        assert np.abs(w).max() <= 1.0 / math.pi + 1e-9

    _run_spec("wigner", spec, check)


# a valid document of each kind, and the paths to its number fields
_NUMBER_FIELDS = {
    "analytic": (
        {"alpha": 1.05e4, "phi": 0.5, "eta_total": 0.49, "eta_budget": {"optics": 0.49},
         "n_count_shots": 1000, "n_quad_shots": 1000, "phase_noise_sigma": 0.1, "seed": 3},
        [("alpha",), ("phi",), ("eta_total",), ("eta_budget", "optics"), ("n_count_shots",),
         ("n_quad_shots",), ("phase_noise_sigma",), ("seed",)],
    ),
    "wigner": (
        {"alpha": 0.5, "c0": 1.0, "c1": [0.0, 1.0], "dim": 8,
         "grid": {"min": -2.0, "max": 2.0, "step": 0.5}},
        [("alpha",), ("c0",), ("c1", 0), ("c1", 1), ("dim",), ("grid", "min"),
         ("grid", "max"), ("grid", "step")],
    ),
    "roundtrip-check": (
        {"alpha_small": 1.0, "mismatch_etas": [1.0, 0.97], "dim": 8, "phi": 0.5},
        [("alpha_small",), ("mismatch_etas", 1), ("dim",), ("phi",)],
    ),
}


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(data=st.data())
def test_bool_or_string_in_number_field_exits_1(data):
    """Each of the three documents, valid as given, exits 1 with a message
    naming the field once any one number field holds a bool or a string."""
    command = data.draw(st.sampled_from(sorted(_NUMBER_FIELDS)))
    doc, paths = _NUMBER_FIELDS[command]
    assert _run_spec(command, doc)[0] == 0
    path = data.draw(st.sampled_from(paths))
    value = data.draw(st.one_of(
        st.booleans(), st.sampled_from(["1", "0.5", "1e4", "NaN"]), st.text(max_size=6)
    ))
    spec = json.loads(json.dumps(doc))
    target = spec
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, err = _run_spec(command, spec)
    assert code == 1 and err.startswith("config error:") and path[0] in err, err


def _json_object(content: bytes) -> bool:
    """Whether ``content`` is UTF-8 text that parses as a JSON object."""
    try:
        return isinstance(json.loads(content.decode("utf-8")), dict)
    except (ValueError, RecursionError):
        return False


_JSON_TEXTS = _JSON_VALUES.map(json.dumps)
_CONFIG_BYTES = st.one_of(
    # bytes that never occur in UTF-8
    st.tuples(
        st.binary(max_size=20), st.sampled_from([b"\xc0", b"\xf8", b"\xfe", b"\xff"]),
        st.binary(max_size=20),
    ).map(b"".join),
    # Python's utf-16 codec writes a byte-order mark
    _JSON_TEXTS.map(lambda text: text.encode("utf-16")),
    _JSON_TEXTS.map(lambda text: b"\xef\xbb\xbf" + text.encode()),
    st.integers(1_000, 20_000).flatmap(lambda depth: st.sampled_from([
        b"[" * depth + b"]" * depth, b'{"a": ' * depth + b"1" + b"}" * depth,
    ])),
    _JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
    st.binary(),
)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(content=_CONFIG_BYTES)
@example(content=_LONG_INTEGER_CONFIG)
@example(content='{"alpha": 1e4, "note": "\xe9"}'.encode("latin-1"))
def test_config_bytes_property(command, content):
    """Any bytes that are not a JSON object in UTF-8, given as --config,
    exit 1 with one ``config error:`` line, no traceback and an empty --out."""
    # a JSON object is read as a spec: the spec properties above cover those
    assume(not _json_object(content))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_bytes(content)
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(command, "--config", path, "--out", out, "--quiet")
        text = err.getvalue()
        assert code == 1, text
        assert text.startswith("config error:") and text.count("\n") == 1, text
        assert "Traceback" not in text, text
        assert list(out.iterdir()) == []
