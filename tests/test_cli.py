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
from hypothesis.extra import numpy as hnp

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
        fock.DensityMatrix(data)  # construction checks that it is a state
        assert (out / "records.csv").read_text().startswith("shot,thetaA,xA,thetaB,xB")

    def test_tomography_records_keep_a_zero_thetaB_column(self, tmp_path):
        # Bob's LO is locked at 0: every record's thetaB cell is the text 0
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_quad_shots": 6000}')
        out = tmp_path / "out"
        assert run_cli("tomography", "--config", cfg, "--out", out, "--quiet") == 0
        header, *rows = (out / "records.csv").read_text().splitlines()
        assert header == "shot,thetaA,xA,thetaB,xB"
        assert len(rows) == 6000
        assert {row.split(",")[3] for row in rows} == {"0"}

    def test_tomography_prints_two_progress_lines(self, tmp_path, capsys):
        # stderr holds the two progress lines and nothing else: no warning
        cfg = tmp_path / "c.json"
        cfg.write_text('{"n_quad_shots": 6000}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("tomography", "--config", cfg, "--out", tmp_path / "out") == 0
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and all(line.startswith("progress: ") for line in lines), lines

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
        D = oracles.displacement_matrix_scipy(1.0, 16)
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

    # 2^1023 overflows the 2-norm unless scaled first; 2^-1074 is subnormal,
    # where a formed factor 2^1075 would overflow instead
    @pytest.mark.parametrize("scale", [2.0**1023, 2.0**-1074])
    def test_wigner_scaled_coefficients_write_the_same_table(self, tmp_path, scale):
        tables = []
        for value in (1.0, scale):
            spec = tmp_path / f"state-{value!r}.json"
            spec.write_text(json.dumps({"c0": [value, value], "c1": [value, value]}))
            out = tmp_path / f"out-{value!r}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli("wigner", "--config", spec, "--out", out, "--quiet") == 0
            tables.append((out / "wigner.csv").read_bytes())
        assert tables[0] == tables[1]

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

    # the round trip reads two displaced levels per mode, O(dim^2): at dim
    # 1024 it runs warning-free, and every eta's leakage is within 1e-10
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "spec", [{}, {"alpha_small": 2.0, "dim": 1024}], ids=["default", "dim-1024"]
    )
    def test_roundtrip_check_leakage(self, tmp_path, spec):
        cfg = tmp_path / "rt.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run_cli("roundtrip-check", "--config", cfg, "--out", out, "--quiet") == 0
        rows = json.loads((out / "roundtrip.json").read_text())["results"]
        assert len(rows) == 3  # the default etas
        assert all(row["leakage"] <= 1e-10 for row in rows), rows

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

    @pytest.mark.parametrize(
        "command,spec_type,document",
        [
            # ints in float fields, recorded as given
            ("analytic", pipeline.ExperimentConfig,
             {"alpha": 20000, "phi": 1, "eta_total": 0.5, "eta_budget": {}, "seed": 9}),
            # a number coefficient, ints in float fields, a partial grid and
            # a dim that is dropped
            ("wigner", pipeline.WignerSpec,
             {"alpha": 1, "c0": 2, "c1": [0, -1], "dim": 8, "grid": {"min": -4, "step": 0.25}}),
            ("roundtrip-check", pipeline.RoundtripSpec,
             {"alpha_small": 1, "mismatch_etas": [1, 0.97], "dim": 16}),
        ],
        ids=["analytic", "wigner", "roundtrip-check"],
    )
    def test_manifest_config_round_trips(self, tmp_path, command, spec_type, document):
        # the manifest's config reads back as the spec the run was given, and
        # a rerun from it writes the same bytes, the manifest's own included
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(document))
        out1 = tmp_path / "a"
        assert run_cli(command, "--config", cfg, "--out", out1, "--quiet") == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        reparsed = spec_type.from_json_dict(manifest["config"])
        assert reparsed == spec_type.from_json_dict(document)
        cfg2 = tmp_path / "from_manifest.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "b"
        assert run_cli(command, "--config", cfg2, "--out", out2, "--quiet") == 0
        assert read_dir(out1) == read_dir(out2)


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

        def block(config, params, edges, local, lo):
            if lo > 0:
                raise NumericError("block failed")
            return count_block(config, params, edges, local, lo)

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

    @pytest.mark.parametrize("seed", [4, 11])
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

    def test_counts_empty_window_leaves_no_files(self, tmp_path, capsys):
        # each +-0.04 sigma conditioning window holds under 1% of the shots:
        # at 1000 shots one of them can stay empty, and the error rate has
        # no denominator
        cfg = tmp_path / "c.json"
        cfg.write_text('{"alpha": 10, "eta_total": 0.25, "eta_budget": {}, '
                       '"n_count_shots": 1000, "seed": 46988}')
        out = tmp_path / "o"
        assert run_cli("simulate-counts", "--config", cfg, "--out", out, "--quiet") == 2
        assert capsys.readouterr().err == (
            "numerical error: no shots fall in the conditioning windows\n"
        )
        assert list(out.iterdir()) == []

    # no floating-point warning on the way to the config error
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
            # alpha_small 0 loses nothing to the truncation: dim is the offender
            ("roundtrip-check", '{"dim": 1, "alpha_small": 0}'),
            ("roundtrip-check", '{"alpha_small": 3, "dim": 8}'),
            # alpha_small^2 = dim/8 in both, yet the round trip loses 0.14 and
            # 0.33 of its population to the truncation
            ("roundtrip-check", '{"alpha_small": 0.6123724356957945, "dim": 3, '
                                '"phi": 3.141592653589793, "mismatch_etas": [1.0]}'),
            ("roundtrip-check", '{"alpha_small": 0.5, "dim": 2}'),
            # the displaced state's norm underflows to 0 below dim
            ("roundtrip-check", '{"alpha_small": 30, "dim": 32}'),
            # past 1024 levels the displacement matrix turns NaN
            ("roundtrip-check", '{"dim": 1025}'),
            ("analytic", '{"alpha": -1}'),
            # the record count is checked after sampling; nothing is written
            ("tomography", '{"n_quad_shots": 999}'),
            ("wigner", '{"grid": {"step": 0.6}}'),
            ("wigner", '{"alpha": 1e200}'),
            ("wigner", '{"c0": 0, "c1": 0}'),
            # three points; numpy cannot size the axis, its length overflows
            ("wigner", '{"grid": {"min": -1e308, "max": 1e308, "step": 1e308}}'),
        ],
    )
    def test_out_of_domain_spec_is_config_error(self, tmp_path, capsys, command, document):
        """A value outside a kernel's domain is a config error: the kernel's
        own check raises ConfigError, so the run exits 1 and names the field."""
        _assert_out_of_domain_config_error(tmp_path, capsys, command, document)

    def test_wigner_grid_too_long_to_size_is_numerical_error(self, tmp_path, capsys):
        # 4e300 points within the spacing limit: numpy cannot size the axis,
        # so nothing is allocated, and the grid is not a config error
        spec = tmp_path / "state.json"
        spec.write_text('{"grid": {"min": -1e300, "max": 1e300, "step": 0.5}}')
        out = tmp_path / "o"
        assert run_cli("wigner", "--config", spec, "--out", out, "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []

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
        # mixed columns over several blocks: repeated values, signed zeros,
        # NaN, infinities and ints
        rng = np.random.default_rng(5)
        n = 9000
        floats = rng.choice([0.0, -0.0, 1.5, -2.25e-300, np.nan, np.inf, -np.inf, 0.1], n)
        floats[::7] = rng.normal(size=floats[::7].size)
        columns = {
            "f": floats,
            "g": np.repeat(np.linspace(-6.0, 6.0, 121), 75)[:n],
            "i": rng.integers(-3, 3, n),
            "big": rng.integers(-(2**62), 2**62, n),
        }
        path = tmp_path / "t.csv"
        output.write_csv(path, columns)
        self._assert_csv_matches_per_cell(path, columns)

    @staticmethod
    def _ulp_neighbours(values, steps=6):
        """Each value and its ``steps`` nearest doubles on either side."""
        values = np.asarray(values, dtype=float)
        out, up, down = [values], values, values
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
        return np.concatenate(out)

    @staticmethod
    def _values_of_every_length(exponents, rng):
        """For each decimal exponent and each length 1 to 17, a positive
        double read from a decimal string whose ``%.17g`` text has that many
        significant digits."""
        values = []
        for e in exponents:
            for q in range(1, 18):
                for _ in range(200):
                    d = rng.integers(0, 10, q)
                    d[[0, -1]] = rng.integers(1, 10, 2)
                    v = float(f"{d[0]}.{''.join(map(str, d[1:]))}e{e}")
                    text = ("%.17g" % v).split("e")[0].replace(".", "")
                    if len(text.strip("0")) == q:
                        values.append(v)
                        break
                else:
                    raise AssertionError(f"no {q}-digit double found at exponent {e}")
        return values

    @pytest.mark.parametrize(
        "case",
        [
            "no-rows", "one-row", "distinct-then-repeated", "int64-extremes",
            "powers-of-ten", "range-edges", "decimal-ties", "random-bits",
            "exponent-decades", "exponent-range-edges", "mantissa-lengths",
            "wigner-default", "wigner-fock-workload",
        ],
    )
    def test_csv_writer_edge_blocks_match_per_cell_formatting(self, tmp_path, case):
        rng = np.random.default_rng(6)
        if case == "no-rows":
            # the header only
            columns = {"x": np.empty(0), "n": np.empty(0, dtype=np.int64)}
        elif case == "one-row":
            columns = {"x": np.array([-0.0]), "n": np.array([7])}
        elif case == "distinct-then-repeated":
            # the first blocks repeat no value in any column, the last one per column
            columns = {
                "x": np.concatenate([rng.normal(size=4096), np.full(4096, -0.0)]),
                "n": np.concatenate([rng.permutation(4096) - 2048, np.full(4096, 5)]),
            }
        elif case == "int64-extremes":
            # 19-digit magnitudes next to -2**63 and 2**63 - 1, and small ones
            low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
            near = np.concatenate([low + np.arange(300), high - np.arange(300), np.arange(-9, 9)])
            columns = {"n": rng.permutation(near), "m": rng.choice(near, near.size)}
        elif case == "powers-of-ten":
            # 1e-5 .. 1e17 and 1 to 6 ulps either side, both signs: log10 can
            # miss the exponent here, and 1e-5 and 1e17 are in exponent form
            powers = self._ulp_neighbours([float(f"1e{e}") for e in range(-5, 18)])
            signed = np.concatenate([powers, -powers])
            columns = {"x": signed, "y": -signed}
        elif case == "range-edges":
            # fixed-point form is 1e-4 <= |x| < 1e17 after rounding: 1e-4 itself
            # (1.0000000000000000479e-4, which rounds down onto 0.0001; no
            # double rounds up onto it), 2**53, and the edges 1e16 and 1e17
            edges = self._ulp_neighbours([1e-4, 2.0**53, 1e16, 1e17, 0.1, 1.0])
            values = np.concatenate([edges, -edges, [0.0, -0.0]])
            columns = {"x": values, "n": np.arange(values.size)}
        elif case == "decimal-ties":
            # exact ties at the 17th digit, rounded half to even: integers in
            # [1e15, 2**51) plus 0.25 or 0.75 (1234567890123456.75 is written
            # ...456.8), and in [1e14, 2**47) plus an odd multiple of 0.125
            whole15 = rng.integers(10**15, 2**51, 2000).astype(float)
            whole14 = rng.integers(10**14, 2**47, 2000).astype(float)
            ties = np.concatenate([
                whole15 + rng.choice([0.25, 0.75], whole15.size),
                whole14 + rng.choice([0.125, 0.375, 0.625, 0.875], whole14.size),
                [1234567890123456.75],
            ])
            signed = np.concatenate([ties, -ties])
            columns = {"x": signed, "y": -signed}
        elif case == "exponent-decades":
            # every decade from 1e-5 down past the kernel's lower end, 1e-284,
            # to the smallest subnormal, 6 ulps either side, both signs: the
            # double just below nine of these powers of ten rounds up to it
            powers = [float(f"1e{e}") for e in range(-5, -324, -1)] + [5e-324]
            decades = self._ulp_neighbours(powers)
            signed = np.concatenate([decades, -decades])
            columns = {"x": signed, "y": -signed}
        elif case == "exponent-range-edges":
            # the ends of the kernel's exponent-form range, 1e-284 and 1e-4,
            # and one and three times each power of two below 1e-4: some are
            # exact ties at the 17th digit (2**-25 is 2.98023223876953125e-08)
            twos = 2.0 ** np.arange(-14, -1075, -1)
            edges = self._ulp_neighbours(np.concatenate([[output._LOW, 1e-4], twos, 3 * twos]))
            columns = {"x": np.concatenate([edges, -edges])}
        elif case == "mantissa-lengths":
            # one block: exponent-form texts with mantissas of 1 to 17
            # digits, down to e-283, next to fixed-point texts of every
            # length at every exponent from -4 to 16, NaN, 1e17 and a
            # subnormal; the second column repeats values, so the repeat
            # search trims these cells too
            wide = self._values_of_every_length([-8, -9, -10, -16, -99, -100, -283], rng)
            fixed = self._values_of_every_length(range(-4, 17), rng)
            values = np.concatenate([wide, fixed, np.negative(wide), np.negative(fixed)])
            values = rng.permutation(np.concatenate([values, [np.nan, 1e17, 5e-320]]))
            assert 256 <= values.size <= 2048
            columns = {"x": values, "y": rng.choice(values, values.size)}
        elif case.startswith("wigner"):
            # the w column of the default wigner run, and of the fock benchmark
            # workload's wigner run at seed 1: mostly Gaussian tails below 1e-4
            alpha, c1 = 0.0, 0j
            if case == "wigner-fock-workload":
                alpha, c1 = 0.8474337369372327, complex(0.5275492379532281, -0.4898619485211566)
            axis = np.arange(-6.0, 6.05, 0.1)
            columns = {"w": fock.wigner(alpha, 1 + 0j, c1, axis, axis).ravel()}
        else:
            # random bit patterns: mostly exponent form, some subnormals and
            # NaNs with payloads; then the infinities, signed NaNs and the
            # smallest subnormal and normal numbers
            bits = rng.integers(0, 2**64, 12000, dtype=np.uint64, endpoint=False)
            special = np.array([np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2**-1022])
            values = np.concatenate([bits.view(np.float64), special])
            columns = {"x": values, "y": values[::-1].copy()}
        path = tmp_path / "t.csv"
        output.write_csv(path, columns)
        self._assert_csv_matches_per_cell(path, columns)

    @staticmethod
    def _record_percent_cells(monkeypatch):
        """The values ``output`` formats with ``%`` from now on, one array per
        call."""
        sent, percent_cells = [], output._percent_cells
        monkeypatch.setattr(output, "_percent_cells", lambda x: sent.append(x) or percent_cells(x))
        return sent

    def test_csv_writer_near_tie_fallback_gives_the_same_bytes(self, tmp_path, monkeypatch):
        # with the margin at a half every exponent-form cell in the kernel's
        # range counts as a near tie, so % formats it: the bytes stay the same
        rng = np.random.default_rng(7)
        x = 10.0 ** rng.uniform(-300.0, 17.5, 6000) * rng.choice([-1.0, 1.0], 6000)
        columns = {"x": x, "y": x[::-1].copy()}
        output.write_csv(tmp_path / "kernel.csv", columns)
        monkeypatch.setattr(output, "_TIE_MARGIN", 0.5)
        sent = self._record_percent_cells(monkeypatch)
        output.write_csv(tmp_path / "percent.csv", columns)
        assert (tmp_path / "percent.csv").read_bytes() == (tmp_path / "kernel.csv").read_bytes()
        sent = np.concatenate(sent)
        wide = x[(np.abs(x) >= output._LOW) & (np.abs(x) < 1e-4)]
        assert wide.size > 4000 and np.isin(wide, sent).all()
        # and no fixed-point cell
        assert not ((np.abs(sent) >= 1e-4) & (np.abs(sent) < 1e17)).any()

    def test_csv_field_has_no_column_that_every_text_leaves_pad(self):
        # before its 5 exponent columns, each column of a field holds the
        # sign, the lead, a digit or a point in some text
        for lo in range(-4, 17):
            for hi in range(lo, 17):
                runs, table = output._layout(lo, hi)
                end = runs[-1][0].stop
                assert table[:, :end].any(axis=0).all(), (lo, hi)
                assert table.shape[1] >= end + 5 and not table[:, end:].any(), (lo, hi)

    @pytest.mark.parametrize(
        "spec",
        [
            {},
            {"alpha": 0.8474337369372327, "c0": 1.0,
             "c1": [0.5275492379532281, -0.4898619485211566], "dim": 16,
             "grid": {"min": -6.0, "max": 6.0, "step": 0.1}},
        ],
        ids=["default", "fock-workload"],
    )
    def test_wigner_csv_formats_no_cell_with_percent(self, tmp_path, monkeypatch, spec):
        # most of the table's cells are exponent-form tails, and the kernel
        # formats every one of them
        config = tmp_path / "state.json"
        config.write_text(json.dumps(spec))
        sent = self._record_percent_cells(monkeypatch)
        assert run_cli("wigner", "--config", config, "--out", tmp_path / "o", "--quiet") == 0
        assert sent == []
        assert (tmp_path / "o" / "wigner.csv").read_text().count("e-") > 10_000

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

    def test_one_parser_serves_every_call_as_a_fresh_process_would(self, tmp_path, capsys):
        # main parses with the parser its first call built; each call in this
        # process, a bad flag among them, gives the exit code, stdout, stderr
        # and files of the same run in a fresh process
        assert cli.build_parser() is cli.build_parser()
        cfg = str(write_config(tmp_path))
        runs = [
            ["analytic", "--config", cfg],
            ["wigner", "--quiet"],
            ["analytic", "--config", cfg, "--quiet", "--bogus"],
            ["analytic", "--config", cfg],
        ]
        results = []
        for k, argv in enumerate(runs):
            out = tmp_path / f"out{k}"
            argv = argv + ["--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "macrocat.cli", *argv], capture_output=True, text=True
            )
            fresh = read_dir(out) if out.exists() else None
            if out.exists():
                out.rename(tmp_path / f"fresh{k}")
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr)
            assert (read_dir(out) if out.exists() else None) == fresh
            results.append((code, captured.err))
        assert [code for code, _ in results] == [0, 0, 1, 0]
        err = results[2][1]
        assert err.startswith("config error:") and err.count("\n") == 1, err


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


def test_cli_imports_no_physics_module():
    # pipeline builds every document; cli parses, reports and maps exit
    # codes, so it imports neither the count model nor the Fock algebra
    names = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    assert not names & {"counting", "fock"}, sorted(names)


@pytest.mark.parametrize(
    "command,document",
    [
        ("analytic", "{}"),
        ("wigner", "{}"),
        ("tomography", '{"n_quad_shots": 6000}'),
        ("roundtrip-check", "{}"),
        ("simulate-counts", '{"n_count_shots": 30000}'),
    ],
)
def test_command_without_scipy_kernels_loads_no_scipy(tmp_path, command, document):
    # the package needs numpy alone: no command loads scipy
    spec = tmp_path / "spec.json"
    spec.write_text(document)
    argv = [command, "--config", str(spec), "--out", str(tmp_path / "o"), "--quiet"]
    code = f"from macrocat import cli\nassert cli.main({argv!r}) == 0"
    assert _modules_after(code, "scipy") == []


def test_simulate_counts_with_scipy_blocked_writes_the_same_bytes(tmp_path):
    # with scipy unimportable the count sampler's normal quantile still
    # runs (it is numpy), and the files are those of a normal run
    spec = tmp_path / "spec.json"
    spec.write_text('{"n_count_shots": 30000}')
    files = {}
    for name, prelude in (("normal", ""), ("blocked", 'import sys\nsys.modules["scipy"] = None\n')):
        out = tmp_path / name
        argv = ["simulate-counts", "--config", str(spec), "--out", str(out), "--quiet"]
        code = f"{prelude}from macrocat import cli\nraise SystemExit(cli.main({argv!r}))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        files[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(files["normal"]) == 5
    assert files["blocked"] == files["normal"]


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


def _check_roundtrip(out):
    """roundtrip.json holds finite, bounded results within the leakage tolerance."""
    doc = json.loads((out / "roundtrip.json").read_text())
    assert math.isfinite(doc["alpha_small"]) and math.isfinite(doc["phi"])
    for row in doc["results"]:
        assert all(math.isfinite(v) for v in row.values()), row
        assert row["leakage"] <= pipeline._LEAKAGE_TOL, row
        for name in ("fidelity_to_loss_model", "concurrence_roundtrip",
                     "concurrence_initial"):
            assert 0.0 <= row[name] <= 1.0 + 1e-9, row


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_ROUNDTRIP_SPECS)
def test_roundtrip_spec_property(spec):
    """Any roundtrip spec ends in finite, bounded results (exit 0) or in one
    stderr line, no traceback and an empty --out (exit 1)."""
    _run_spec("roundtrip-check", spec, _check_roundtrip)


# the largest accepted alpha_small at each dim, bisected over eta 1 and 0.5
# at phi 0 to two digits
_LEAKAGE_EDGES = {8: 0.31, 12: 0.71, 16: 1.12, 24: 1.88}


@pytest.mark.parametrize("dim", sorted(_LEAKAGE_EDGES))
def test_roundtrip_accepts_within_leakage_edge(dim):
    """Half the leakage edge passes at a drawn dim, with every row's leakage
    at most the tolerance and the loss model reproduced; twice it exits 1.
    The property test above reaches the accept side only at the default dim."""
    edge = _LEAKAGE_EDGES[dim]

    def check(out):
        rows = json.loads((out / "roundtrip.json").read_text())["results"]
        assert len(rows) == 3  # the default etas
        for row in rows:
            assert row["leakage"] <= pipeline._LEAKAGE_TOL, row
            assert row["fidelity_to_loss_model"] >= 1.0 - 1e-6, row

    assert _run_spec("roundtrip-check", {"alpha_small": edge / 2, "dim": dim}, check)[0] == 0
    code, err = _run_spec("roundtrip-check", {"alpha_small": 2 * edge, "dim": dim})
    assert code == 1 and err.startswith("config error: ") and "loses" in err, err


# specs the round trip accepts: alpha_small within half the leakage edge at
# its dim, any etas in (0, 1] and any phi
_ACCEPTED_ROUNDTRIP_SPECS = st.sampled_from(sorted(_LEAKAGE_EDGES)).flatmap(
    lambda dim: st.fixed_dictionaries(
        {
            "dim": st.just(dim),
            "alpha_small": st.floats(-_LEAKAGE_EDGES[dim] / 2, _LEAKAGE_EDGES[dim] / 2),
        },
        optional={
            "mismatch_etas": st.lists(
                st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=3
            ),
            "phi": st.floats(-10.0, 10.0),
        },
    )
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_ACCEPTED_ROUNDTRIP_SPECS)
def test_accepted_roundtrip_spec_property(spec):
    """Every accepted spec, drawn at four dims, exits 0 with the results
    :func:`test_roundtrip_spec_property` checks; that property reaches exit
    0 in few of its draws."""
    assert _run_spec("roundtrip-check", spec, _check_roundtrip)[0] == 0


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
    _run_analytic(spec)


def _run_analytic(spec) -> int:
    """Run ``analytic`` on ``spec`` as :func:`_run_spec` does; on exit 0 the
    results are bounded and the manifest records each field as given."""

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

    return _run_spec("analytic", spec, check)[0]


# an eta_total near the default budget's product, or an eta_budget with the
# eta_total its product gives (any eta_total when the budget is empty)
_ACCEPTED_ETAS = st.one_of(
    st.fixed_dictionaries({}, optional={"eta_total": st.floats(0.49, 0.529)}),
    st.dictionaries(
        st.sampled_from(["modematch", "optics", "detector", "undisplacement"]),
        st.floats(0.3, 1.0),
        max_size=4,
    ).flatmap(lambda budget: st.fixed_dictionaries({
        "eta_budget": st.just(budget),
        "eta_total": st.just(math.prod(budget.values())) if budget else st.floats(0.05, 1.0),
    })),
)


def _accepted_experiment_specs(**required):
    """experiment.json documents every command accepts; each keyword names a
    field that is always drawn, from the strategy given."""
    optional = {
        "alpha": st.floats(10.0, 1e5),
        "phi": st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        "n_count_shots": st.integers(1, 10**7),
        "n_quad_shots": st.integers(1000, 10**7),
        "phase_noise_sigma": st.one_of(
            st.floats(0.0, 3.0), st.sampled_from([40.0, 1e155, 1e300])
        ),
        "seed": st.integers(0, 2**64 - 1),
    }
    for name in required:
        del optional[name]
    fields = st.fixed_dictionaries(required, optional=optional)
    return st.tuples(fields, _ACCEPTED_ETAS).map(lambda pair: {**pair[0], **pair[1]})


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_accepted_experiment_specs())
def test_accepted_experiment_config_property(spec):
    """Every accepted experiment.json exits 0 through ``analytic`` with the
    results :func:`test_experiment_config_property` checks; that property
    reaches exit 0 in few of its draws."""
    assert _run_analytic(spec) == 0


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
    _run_counts(spec)


def _run_counts(spec) -> int:
    """Run ``simulate-counts`` on ``spec`` as :func:`_run_spec` does; on exit
    0 the curves hold every shot, and NaN only in bins with too few shots."""

    def check(out):
        for name in ("curves_phi0.csv", "curves_phi90.csv"):
            curves = np.genfromtxt(out / name, delimiter=",", names=True)
            assert curves["count"].sum() == spec["n_count_shots"]
            assert np.array_equal(np.isnan(curves["mean_nB"]), curves["count"] == 0)
            assert np.array_equal(np.isnan(curves["var_nB"]), curves["count"] < 2)

    return _run_spec("simulate-counts", spec, check)[0]


# each conditioning window holds at least 0.36% of the shots at any eta: from
# 5000 shots on, one left empty (exit 2) is below one draw in 10^7
@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_accepted_experiment_specs(n_count_shots=st.integers(5000, 8000)))
def test_accepted_simulate_counts_config_property(spec):
    """Every accepted experiment.json with a few thousand shots exits 0
    through ``simulate-counts`` with the curves
    :func:`test_simulate_counts_config_property` checks; that property
    reaches exit 0 in few of its draws."""
    assert _run_counts(spec) == 0


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and (
        isinstance(v, int) or math.isfinite(v)
    )


# grid bounds and steps outside the plausible draws are never numbers, so no
# run tabulates a large grid
_NON_NUMBERS = _JSON_VALUES.filter(lambda v: not _is_number(v))
# plain, huge (their squares overflow) and subnormal coefficients
_COEFF = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(2.0**1000, 2.0**1023),
    st.floats(-(2.0**1023), -(2.0**1000)),
    st.floats(-(2.0**-1022), 2.0**-1022, allow_subnormal=True),
)
_COEFFS = st.one_of(_COEFF, st.lists(_COEFF, min_size=2, max_size=2))
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


def _scaled_coeffs(spec, shift):
    """``spec``'s c0 and c1 (a number or a [re, im] pair each; 1 and 0 by
    default) times the power of two that brings the largest part to
    ``[2**(shift-1), 2**shift)``; None where that is not exact."""
    coeffs = {name: spec.get(name, default) for name, default in (("c0", 1.0), ("c1", 0.0))}
    parts = {name: c if isinstance(c, list) else [c] for name, c in coeffs.items()}
    k = shift - math.frexp(max(abs(float(x)) for p in parts.values() for x in p))[1]
    scaled = {}
    for name, p in parts.items():
        new = [math.ldexp(float(x), k) for x in p]
        if any(math.ldexp(y, -k) != x for x, y in zip(p, new)):
            return None
        scaled[name] = new if isinstance(coeffs[name], list) else new[0]
    return scaled


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_WIGNER_SPECS, shift=st.integers(-8, 8))
def test_wigner_spec_property(spec, shift):
    """Any wigner spec on a small grid ends in a finite Wigner function within
    the bound ``|W| <= 1/pi`` of a normalized state (exit 0), or fails as in
    :func:`_run_spec`.  The state is normalized, so scaling every coefficient
    of an accepted spec by one power of two (where that is exact) writes the
    same ``wigner.csv``: huge and subnormal coefficients tabulate as their
    scaled copies near 1 do."""
    _compare_scaled_wigner(spec, shift)


def _compare_scaled_wigner(spec, shift) -> bool:
    """Run ``wigner`` on ``spec`` as :func:`_run_spec` does; on exit 0 the
    table is finite within ``|W| <= 1/pi``.  If the spec is accepted and its
    coefficients scale exactly (:func:`_scaled_coeffs`), the scaled copy must
    write the same ``wigner.csv``.  Returns whether that comparison ran."""
    tables = []

    def check(out):
        w = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1, usecols=2, ndmin=1)
        assert np.isfinite(w).all()
        assert np.abs(w).max() <= 1.0 / math.pi + 1e-9
        tables.append((out / "wigner.csv").read_bytes())

    if _run_spec("wigner", spec, check)[0] != 0:
        return False
    scaled = _scaled_coeffs(spec, shift)
    if scaled is None:
        return False
    assert _run_spec("wigner", {**spec, **scaled}, check)[0] == 0
    assert tables[0] == tables[1]
    return True


def _one_scale_coeffs(part):
    """c0 and c1, each a number or an [re, im] pair, every part drawn from
    ``part``, not all zero."""
    coeff = st.one_of(part, st.lists(part, min_size=2, max_size=2))
    return st.fixed_dictionaries({"c0": coeff, "c1": coeff}).filter(
        lambda c: any(np.ravel(c["c0"])) or any(np.ravel(c["c1"]))
    )


# the parts of one spec's coefficients share a scale, so scaling them by one
# power of two is exact: plain (zero or at least 2^-1000), huge (their squares
# overflow) or subnormal
_COEFF_SCALES = [
    st.floats(-2.0, 2.0).filter(lambda x: x == 0 or abs(x) >= 2.0**-1000),
    st.one_of(
        st.just(0.0), st.floats(2.0**1000, 2.0**1023), st.floats(-(2.0**1023), -(2.0**1000))
    ),
    st.floats(-(2.0**-1022), 2.0**-1022, allow_subnormal=True),
]
# wigner specs every field of which is accepted, on a grid of at most 61^2 points
_ACCEPTED_WIGNER_SPECS = st.tuples(
    st.fixed_dictionaries(
        {
            "grid": st.fixed_dictionaries({
                "min": st.floats(-3.0, -0.5),
                "max": st.floats(0.5, 3.0),
                "step": st.floats(0.1, 0.45),
            }),
        },
        optional={"alpha": st.floats(-2.0, 2.0)},
    ),
    st.sampled_from(_COEFF_SCALES).flatmap(_one_scale_coeffs),
).map(lambda pair: {**pair[0], **pair[1]})


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_ACCEPTED_WIGNER_SPECS, shift=st.integers(-8, 8))
def test_accepted_wigner_spec_property(spec, shift):
    """Every draw is accepted and scales exactly, so every draw compares its
    table with its scaled copy's, huge and subnormal coefficients included;
    :func:`test_wigner_spec_property` does so in few of its draws."""
    assert _compare_scaled_wigner(spec, shift)


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
        {"alpha_small": 1.0, "mismatch_etas": [1.0, 0.97], "dim": 16, "phi": 0.5},
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


_CSV_COLUMNS = st.tuples(st.integers(1, 3), st.integers(0, 600)).flatmap(
    lambda shape: st.lists(
        hnp.arrays(np.float64, shape[1], elements=st.floats(allow_infinity=False), fill=st.nothing()),
        min_size=shape[0], max_size=shape[0],
    )
)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(arrays=_CSV_COLUMNS)
def test_csv_writer_property(arrays):
    """Any 1-3 float64 columns of 0-600 rows, NaN, signed zeros, subnormals and
    every exponent included, are written as per-cell ``%.17g`` formatting
    writes them; blocks of 256 rows or more are searched for repeats."""
    columns = {f"c{j}": values for j, values in enumerate(arrays)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        output.write_csv(path, columns)
        assert path.read_text().splitlines(keepends=True) == oracles.csv_lines_per_cell(columns)
