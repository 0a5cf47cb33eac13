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
from hypothesis import given, settings
from hypothesis import strategies as st

from macrocat import cli, fock, output, pipeline
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
        assert (doc["dim"], doc["modes"]) == (4, 2)
        data = np.reshape(doc["re"], (16, 16)) + 1j * np.reshape(doc["im"], (16, 16))
        fock.DensityMatrix(4, 2, data).validate()
        assert (out / "records.csv").read_text().startswith("shot,thetaA,xA,thetaB,xB")

    def test_wigner_marginal_matches_direct_computation(self, tmp_path):
        spec = tmp_path / "state.json"
        spec.write_text(json.dumps({
            "alpha": 1.0, "c0": 1.0, "c1": 1.0, "dim": 16,
            "grid": {"min": -6.0, "max": 6.0, "step": 0.05},
        }))
        out = tmp_path / "out"
        assert run_cli("wigner", "--config", spec, "--out", out, "--quiet") == 0
        data = np.genfromtxt(out / "wigner.csv", delimiter=",", names=True)
        xs = np.unique(data["x"])
        ps = np.unique(data["p"])
        w = data["w"].reshape(xs.size, ps.size)
        marginal = np.trapezoid(w, ps, axis=1)
        D = fock.displacement_matrix(1.0, 16)
        rho = fock.DensityMatrix.from_pure(D[:, 0] + D[:, 1], 16, 1)
        # the direct evaluation needs a grid spanning the displaced mean +- 6
        wide = np.arange(-6.0, 8.5, 0.05)
        direct = oracles.quadrature_marginal(rho, 0.0, wide)[: xs.size]
        assert np.allclose(wide[: xs.size], xs, atol=1e-12)
        assert np.abs(marginal - direct).max() < 1e-3

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

    def test_numeric_error_exit(self, tmp_path):
        spec = tmp_path / "rt.json"
        spec.write_text(json.dumps({"alpha_small": 3.0, "mismatch_etas": [1.0], "dim": 16}))
        assert run_cli("roundtrip-check", "--config", spec, "--out", tmp_path / "o") == 2

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
        ],
    )
    def test_non_finite_or_mistyped_config(self, tmp_path, capsys, command, document):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        assert run_cli(command, "--config", bad, "--out", tmp_path / "o", "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize(
        "command,document",
        [
            ("analytic", '{"alpha": 5.0}'),
            ("simulate-counts", '{"alpha": 5.0}'),
            ("tomography", '{"alpha": 5.0, "n_quad_shots": 6000}'),
            ("wigner", '{"dim": 1}'),
            ("wigner", '{"grid": {"step": 0.6}}'),
            ("analytic", '{"alpha": 1e160}'),
            ("analytic", '{"alpha": 1.3e154}'),
            ("simulate-counts", '{"alpha": 1e160, "n_count_shots": 1000}'),
            ("tomography", '{"alpha": 1e160, "n_quad_shots": 6000}'),
            ("wigner", '{"alpha": 1e200}'),
            ("roundtrip-check", '{"alpha_small": 1e200}'),
        ],
    )
    def test_out_of_domain_spec_is_numerical_error(self, tmp_path, capsys, command, document):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        assert run_cli(command, "--config", bad, "--out", tmp_path / "o", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1, err
        # the message names the offending field
        assert next(iter(json.loads(document))) in err, err
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
        # a spec too large to allocate (say "dim": 100000) ends in numpy's
        # MemoryError; raise it directly instead of allocating
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 TiB for an array")

        monkeypatch.setattr(*target, exhausted)
        spec = tmp_path / "spec.json"
        spec.write_text(document)
        assert run_cli(command, "--config", spec, "--out", tmp_path / "o", "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1, err
        assert list((tmp_path / "o").iterdir()) == []

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

        def cell(v):
            return f"{v:.17g}" if isinstance(v, float) else f"{v}"

        rows = zip(*(np.asarray(c).tolist() for c in columns.values()))
        expected = ",".join(columns) + "\n" + "".join(
            ",".join(cell(v) for v in row) + "\n" for row in rows
        )
        assert path.read_text() == expected

    def test_json_writer_rejects_non_finite(self, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(NumericError):
            output.write_json(path, {"value": float("nan")})
        assert not path.exists()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        run_cli("analytic", "--config", cfg, "--out", tmp_path / "o", "--quiet")
        assert capsys.readouterr().out == ""


def test_import_loads_no_numerical_integration_or_optimization():
    proc = subprocess.run(
        [sys.executable, "-c", "import macrocat.cli, sys; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(ast.literal_eval(proc.stdout))
    assert not loaded & {"scipy.integrate", "scipy.optimize"}


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


_ROUNDTRIP_SPECS = st.fixed_dictionaries(
    {},
    optional={
        "alpha_small": _field(st.floats(-1.5, 1.5)),
        "mismatch_etas": _field(st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=3)),
        "phi": _field(st.floats(-10.0, 10.0)),
        # integers are kept in [2, 12] so every run is small
        "dim": _field(st.integers(2, 12), _JSON_VALUES.filter(lambda v: type(v) is not int)),
    },
)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(spec=_ROUNDTRIP_SPECS)
def test_roundtrip_spec_property(spec):
    """Any roundtrip spec ends in finite, bounded results (exit 0) or in one
    stderr line, no traceback and an empty --out (exit 1 or 2)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.json"
        path.write_text(json.dumps(spec))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli("roundtrip-check", "--config", path, "--out", out, "--quiet")
        if code == 0:
            doc = json.loads((out / "roundtrip.json").read_text())
            assert math.isfinite(doc["alpha_small"]) and math.isfinite(doc["phi"])
            for row in doc["results"]:
                assert all(math.isfinite(v) for v in row.values()), row
                for name in ("fidelity_to_loss_model", "concurrence_roundtrip",
                             "concurrence_initial"):
                    assert 0.0 <= row[name] <= 1.0 + 1e-9, row
        else:
            assert code in (1, 2)
            text = err.getvalue()
            assert text.count("\n") == 1 and "Traceback" not in text, text
            assert list(out.iterdir()) == []
