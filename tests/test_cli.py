import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gnk import cli, coefficient, dirichlet, discrete, mobius, rhp
from gnk.cli import main
from gnk.coefficient import One, ShiftedPower, load_coefficient
from gnk.errors import TooCloseToBoundary
from gnk.geometry import ParamGrid, Region, load_region
from conftest import CENTERS, POLE_AMPLITUDES, RADII
from helpers import (count_calls, near_zero, overlap_between_polygon_nodes, planted,
                     rational_values, traced_peak)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from make_gallery import FILES  # noqa: E402

REGION = {"curves": [
    {"type": "circle", "center": [c.real, c.imag], "radius": r}
    for c, r in zip(CENTERS, RADII)]}
MIXED_REGION = {"curves": [
    {"type": "ellipse", "center": [3.0, 0.0], "a": 1.2, "b": 0.7},
    {"type": "circle", "center": [-2.0, 2.5], "radius": 0.8},
    {"type": "ellipse", "center": [-0.5, -3.0], "a": 0.9, "b": 1.3}]}
DATA_POLES = {"type": "poles", "terms": [
    {"c": [c.real, c.imag], "a": [a.real, a.imag]}
    for c, a in zip(CENTERS, POLE_AMPLITUDES)]}
DATA_MIXED = [DATA_POLES, {"type": "constants", "values": [0.3, -1.2, 2.0]}]
COEFF_POWER = {"type": "shifted_power",
               "z0": [CENTERS[2].real, CENTERS[2].imag], "power": 1}
DATA_NAN = {"type": "constants", "values": [float("nan"), 1.0, 2.0]}
# Fourier rows with the power -1 twice
DUPLICATE = [[-1, 1.0, 0.0], [0, 3.0, 0.0], [-1, 0.5, 0.0]]
# Fourier rows whose second power is not an integer
FRACTIONAL = [[0, 3.0, 0.0], [-1.7, 1.0, 0.0]]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    (root / "region.json").write_text(json.dumps(REGION))
    (root / "data.json").write_text(json.dumps(DATA_MIXED))
    (root / "coeff.json").write_text(json.dumps(COEFF_POWER))
    (root / "nan_data.json").write_text(json.dumps(DATA_NAN))
    return root


def _run(args):
    return main([str(a) for a in args])


class TestSolveDirichlet:
    def test_success_and_outputs(self, inputs, tmp_path):
        out = tmp_path / "out"
        rc = _run(["solve-dirichlet", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out])
        assert rc == 0
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["nullity_I_plus_N"] == 3
        assert diagnostics["ie_residual"] <= 1e-10
        h = diagnostics["h_constants"]
        assert abs(h[0] + 0.3) <= 1e-8 and abs(h[1] - 1.2) <= 1e-8 and abs(h[2] + 2.0) <= 1e-8
        header = (out / "boundary.csv").read_text().splitlines()[0]
        assert header == "curve_index,s,gamma,mu,h,re_f,im_f"

    def test_rejects_non_one_coefficient(self, inputs, tmp_path):
        rc = _run(["solve-dirichlet", "--region", inputs / "region.json",
                   "--coeff", inputs / "coeff.json",
                   "--data", inputs / "data.json", "--out", tmp_path / "o"])
        assert rc == 1

    def test_h_deviation_is_the_solutions(self, inputs, tmp_path):
        out = tmp_path / "out"
        rc = _run(["solve-dirichlet", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out])
        assert rc == 0
        region, grid = load_region(str(inputs / "region.json")), ParamGrid(64)
        ops = discrete.assemble_N(region, One(), grid)
        gamma = rhp.load_boundary_data(str(inputs / "data.json"), region, One(), grid)
        solution = dirichlet.solve_modified_dirichlet(ops, gamma)
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["h_deviation"] == list(solution.h_deviation)


    def test_overlap_between_polygon_nodes_exits_1(self, tmp_path, capsys):
        # data the two curves could be solved with, were they disjoint
        (tmp_path / "region.json").write_text(json.dumps(overlap_between_polygon_nodes()))
        (tmp_path / "data.json").write_text(json.dumps(
            {"type": "constants", "values": [0.3, -1.2]}))
        rc = _run(["solve-dirichlet", "--region", tmp_path / "region.json",
                   "--data", tmp_path / "data.json", "--n", 64, "--out", tmp_path / "o"])
        assert rc == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith("region validation failed: disjoint[0,1]")


class TestSolveRhp:
    def test_minimal_norm_flagged(self, inputs, tmp_path):
        out = tmp_path / "out"
        rc = _run(["solve-rhp", "--region", inputs / "region.json",
                   "--coeff", inputs / "coeff.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out])
        assert rc == 0
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["minimal_norm"] is True
        assert diagnostics["nullity_I_minus_N"] == 1
        assert diagnostics["kappa_per_curve"] == [0, 0, -1]

    def test_unreachable_tolerance_exits_2(self, inputs, tmp_path, monkeypatch):
        monkeypatch.setattr(rhp, "SOLVE_TOL", 1e-30)
        rc = _run(["solve-rhp", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64,
                   "--out", tmp_path / "o"])
        assert rc == 2


class TestVerify:
    def test_gallery_passes(self, inputs, tmp_path):
        out = tmp_path / "out"
        rc = _run(["verify", "--region", inputs / "region.json", "--n", 64,
                   "--out", out])
        assert rc == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["nullity"]["I_plus_N"]["measured"] == 3
        assert report["ok"] is True

    def test_power_coefficient_nullities(self, inputs, tmp_path):
        out = tmp_path / "out"
        rc = _run(["verify", "--region", inputs / "region.json",
                   "--coeff", inputs / "coeff.json", "--n", 64, "--out", out])
        assert rc == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["nullity"]["I_minus_N"]["measured"] == 1
        assert report["nullity"]["I_plus_N"]["measured"] == 2

    @pytest.mark.parametrize("region_json", [REGION, MIXED_REGION],
                             ids=["circles", "mixed"])
    def test_jump_gate_is_relative_to_scale(self, region_json, tmp_path):
        # A = (eta - z0)^6 makes Plemelj values up to 1.5e3 (7.6e3 on the
        # mixed region), whose roundoff alone exceeds an absolute 1e-13
        (tmp_path / "region.json").write_text(json.dumps(region_json))
        (tmp_path / "coeff.json").write_text(json.dumps({**COEFF_POWER, "power": 6}))
        out = tmp_path / "out"
        rc = _run(["verify", "--region", tmp_path / "region.json",
                   "--coeff", tmp_path / "coeff.json", "--n", 128, "--out", out])
        report = json.loads((out / "verify.json").read_text())
        assert rc == 0
        assert all(report[name]["ok"] for name in ("identity", "nullity", "mobius", "jump"))
        jump = report["jump"]
        assert jump["scale"] > 1e3 and jump["residual"] <= jump["tolerance"]

    def test_reports_krylov_evidence(self, inputs, tmp_path):
        out = tmp_path / "out"
        rc = _run(["verify", "--region", inputs / "region.json",
                   "--coeff", inputs / "coeff.json", "--n", 64, "--out", out])
        assert rc == 0
        for key, entry in json.loads((out / "verify.json").read_text())["nullity"].items():
            if key == "ok":
                continue
            assert set(entry) == {"measured", "predicted", "ritz_counted", "ritz_next",
                                  "ritz_largest", "krylov_depth", "krylov_stop", "deflated"}
            assert len(entry["ritz_counted"]) == entry["measured"]
            assert max(entry["ritz_counted"], default=0.0) <= 1e-8 * entry["ritz_largest"]
            assert entry["ritz_next"] > 1e-8 * entry["ritz_largest"]
            assert entry["krylov_stop"] in ("settled", "exact")

    def test_stacked_probes_keep_the_per_probe_draws(self, inputs, tmp_path):
        # the five identity probes go through N and M stacked; drawn in the
        # same order as one at a time, they leave the rng where the jump
        # check's gamma and mu start, so its section is the per-probe one
        out = tmp_path / "out"
        assert _run(["verify", "--region", inputs / "region.json",
                     "--coeff", inputs / "coeff.json", "--n", 64, "--out", out]) == 0
        report = json.loads((out / "verify.json").read_text())
        region = load_region(inputs / "region.json")
        ops = discrete.assemble_N(region, ShiftedPower(CENTERS[2], 1), ParamGrid(64))
        rng = np.random.default_rng(0)
        singles = [discrete.operator_identity_residuals(
            ops, cli._band_limited_samples(rng, 3, 64, 8)) for _ in range(5)]
        gamma, mu = (cli._band_limited_samples(rng, 3, 64, 8) for _ in range(2))
        outer = rhp.plemelj_boundary(ops, gamma, mu, +1)
        inner = rhp.plemelj_boundary(ops, gamma, mu, -1)
        scale = max(1.0, float(np.abs(outer).max()), float(np.abs(inner).max()))
        residual = float(np.abs(outer - inner - (gamma + 1j * mu)).max()) / scale
        jump = {"residual": residual, "scale": scale, "tolerance": cli.TOL_JUMP,
                "ok": residual <= cli.TOL_JUMP}
        assert json.dumps(report["jump"], sort_keys=True) == json.dumps(jump, sort_keys=True)
        for key, expected in zip(("r1_max", "r2_max"), map(max, zip(*singles))):
            assert abs(report["identity"][key] - expected) <= 1e-13

    def test_counterclockwise_region_exits_1(self, tmp_path):
        bad = {"curves": [{"type": "trig", "coeffs": [[0, 3.0, 0.0], [1, 1.0, 0.0]]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert _run(["verify", "--region", path, "--out", tmp_path / "o"]) == 1


def _plant_null_directions(monkeypatch, count: int) -> None:
    """Make assemble_N return N' = N + (I - N) V V^T for count orthonormal
    columns V, so that I - N' = (I - N)(I - V V^T) gains them as null
    directions while the indices, and so the prediction, stay."""
    assemble = discrete.assemble_N

    def assemble_planted(*args, **kwargs):
        ops = assemble(*args, **kwargs)
        rng = np.random.default_rng(11)
        basis, _ = np.linalg.qr(rng.standard_normal((ops.size, count)))
        dense = np.asarray(ops.N)
        return planted(ops, N=dense + (basis - dense @ basis) @ basis.T)

    monkeypatch.setattr(discrete, "assemble_N", assemble_planted)


class TestVerifyPlantedDefects:
    """verify must catch a nullity that differs from the index prediction."""

    def test_one_extra_null_direction_exits_2(self, inputs, tmp_path, monkeypatch):
        _plant_null_directions(monkeypatch, 1)
        out = tmp_path / "out"
        rc = _run(["verify", "--region", inputs / "region.json", "--n", 64,
                   "--out", out])
        assert rc == 2
        report = json.loads((out / "verify.json").read_text())
        minus = report["nullity"]["I_minus_N"]
        assert minus["krylov_stop"] in ("settled", "exact")
        assert minus["measured"] == minus["predicted"] + 1 == 1
        assert report["nullity"]["ok"] is False and report["ok"] is False

    def test_more_directions_than_the_block_saturate(self, inputs, tmp_path, monkeypatch):
        width = 0 + discrete.NULLITY_MARGIN  # predicted dim null(I - N) is 0
        _plant_null_directions(monkeypatch, width + 3)
        out = tmp_path / "out"
        rc = _run(["verify", "--region", inputs / "region.json", "--n", 64,
                   "--out", out])
        assert rc == 2
        report = json.loads((out / "verify.json").read_text())
        minus = report["nullity"]["I_minus_N"]
        assert minus["krylov_stop"] == "saturated"
        assert minus["measured"] >= width
        assert report["nullity"]["ok"] is False

    def test_unsettled_count_exits_2(self, inputs, tmp_path, monkeypatch, capsys):
        # a basis cap of three blocks: the deflated I + N count settles at
        # depth 4 and the I - N count at depth 5
        monkeypatch.setattr(discrete, "NULLITY_MAX_COLUMNS", 0)
        monkeypatch.setattr(discrete, "NULLITY_MIN_DEPTH", 3)
        out = tmp_path / "out"
        rc = _run(["verify", "--region", inputs / "region.json", "--n", 64,
                   "--out", out])
        assert rc == 2
        report = json.loads((out / "verify.json").read_text())
        entries = report["nullity"]
        assert {entries[k]["krylov_stop"] for k in ("I_plus_N", "I_minus_N")} == {"basis cap"}
        # the counts themselves match the prediction; only the stop fails them
        assert all(entries[k]["measured"] == entries[k]["predicted"]
                   for k in ("I_plus_N", "I_minus_N"))
        assert entries["ok"] is False
        assert "[FAIL] nullity" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["mobius-check", "verify"])
    def test_planted_nan_in_N_fails_every_section(self, tmp_path, monkeypatch, capsys,
                                                  command):
        # N[5, 70] = nan on two unit circles at +-3: a quality failure, exit
        # 2, with the file written and each section that reads N failed,
        # its NaN figures null
        assemble = discrete.assemble_N

        def assemble_planted(*args, **kwargs):
            ops = assemble(*args, **kwargs)
            dense = np.asarray(ops.N)
            dense[5, 70] = np.nan
            return planted(ops, N=dense)

        monkeypatch.setattr(discrete, "assemble_N", assemble_planted)
        region = tmp_path / "region.json"
        region.write_text(json.dumps({"curves": [
            {"type": "circle", "center": [x, 0.0], "radius": 1.0} for x in (-3.0, 3.0)]}))
        out = tmp_path / "out"
        rc = _run([command, "--region", region, "--n", 64, "--out", out])
        report = json.loads((out / f"{command.split('-')[0]}.json").read_text())
        mobius_section = report.get("mobius", report)
        assert rc == 2 and report["ok"] is False
        assert mobius_section["ok"] is False and mobius_section["max_diff_N"] is None
        if command == "verify":
            assert report["identity"] == {"r1_max": None, "r2_max": None,
                                          "tolerance": 1e-8, "ok": False}
            assert report["jump"]["residual"] is None and report["jump"]["ok"] is False
            for key in ("I_plus_N", "I_minus_N"):
                assert report["nullity"][key]["krylov_stop"] == "non-finite"
                assert report["nullity"][key]["ritz_largest"] is None
            assert report["nullity"]["ok"] is False
            printed = capsys.readouterr().out
            assert all(f"[FAIL] {name}" in printed
                       for name in ("identity", "nullity", "mobius", "jump"))


class TestIndexAndMobius:
    def test_index_report(self, inputs, tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run(["index-report", "--region", inputs / "region.json",
                   "--coeff", inputs / "coeff.json", "--out", out])
        assert rc == 0
        payload = json.loads((out / "index.json").read_text())
        assert payload["kappa_per_curve"] == [0, 0, -1]
        assert payload["dim_S_plus_bounds"] == [0, 1]

    def test_index_report_high_power(self, tmp_path):
        # A = (eta - 3)^24 turns past pi per step of a 32-node grid
        region, coeff = tmp_path / "region.json", tmp_path / "coeff.json"
        region.write_text(json.dumps({"curves": [
            {"type": "circle", "center": [c, 0.0], "radius": 1.0} for c in (3.0, -3.0)]}))
        coeff.write_text(json.dumps({"type": "shifted_power", "z0": [3.0, 0.0], "power": 24}))
        out = tmp_path / "out"
        assert _run(["index-report", "--region", region, "--coeff", coeff,
                     "--n", 32, "--out", out]) == 0
        assert json.loads((out / "index.json").read_text())["kappa_per_curve"] == [-24, 0]

    def test_index_report_non_finite_coefficient_exits_1(self, tmp_path):
        # A = (eta - 3)^400 overflows on the circle at -3; run as a process so
        # that a numpy warning would show in stderr beside the JSON error
        region, coeff = tmp_path / "region.json", tmp_path / "coeff.json"
        region.write_text(json.dumps({"curves": [
            {"type": "circle", "center": [c, 0.0], "radius": 1.0} for c in (3.0, -3.0)]}))
        coeff.write_text(json.dumps({"type": "shifted_power", "z0": [3.0, 0.0], "power": 400}))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "gnk.cli", "index-report", "--region", str(region),
             "--coeff", str(coeff), "--n", "64", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "ValueError"

    def test_index_report_unsettled_count_exits_1(self, inputs, three_circles,
                                                  tmp_path, capsys):
        zero = near_zero(three_circles.curves[0])
        coeff = tmp_path / "coeff.json"
        coeff.write_text(json.dumps({"type": "shifted_power",
                                     "z0": [zero.real, zero.imag], "power": 1}))
        rc = _run(["index-report", "--region", inputs / "region.json", "--coeff", coeff,
                   "--n", 64, "--out", tmp_path / "out"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NonConvergent"

    def test_mobius_check(self, inputs, tmp_path):
        out = tmp_path / "out"
        rc = _run(["mobius-check", "--region", inputs / "region.json", "--out", out])
        assert rc == 0
        payload = json.loads((out / "mobius.json").read_text())
        assert payload["max_diff_N"] <= 1e-12
        assert payload["index_shift"] == payload["index_direct"] == [1, 0, 0, 1]

    def test_planted_defect_fails_relative_gate(self, inputs, tmp_path, monkeypatch):
        # dropping the 2 eta'^2 / u^3 term of the mapped zeta'' must not hide
        # behind the scale-relative tolerance
        exact_map = mobius.map_jet

        def defective(region, jet):
            mapped = exact_map(region, jet)
            u = jet.eta - region.hole_points[-1]
            return dataclasses.replace(mapped, eta_dd=-jet.eta_dd / u**2)

        monkeypatch.setattr(mobius, "map_jet", defective)
        out = tmp_path / "out"
        rc = _run(["mobius-check", "--region", inputs / "region.json", "--n", 64,
                   "--out", out])
        payload = json.loads((out / "mobius.json").read_text())
        assert rc == 2 and payload["ok"] is False
        assert payload["max_diff_M1"] > 1e6 * payload["tolerance"] * payload["scale"]

    @pytest.mark.parametrize("command", ["mobius-check", "verify"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the NaN node's
    def test_nan_difference_fails_and_is_written_as_null(self, inputs, tmp_path,
                                                         monkeypatch, command):
        # one NaN node of the mapped boundary makes NaN differences: the
        # gate fails (exit 2), and the file holds null where JSON has no NaN
        exact_map = mobius.map_jet

        def planted(region, jet):
            mapped = exact_map(region, jet)
            eta = mapped.eta.copy()
            eta[5] = np.nan
            return dataclasses.replace(mapped, eta=eta)

        monkeypatch.setattr(mobius, "map_jet", planted)
        out = tmp_path / "out"
        rc = _run([command, "--region", inputs / "region.json", "--n", 64, "--out", out])
        report = json.loads((out / f"{command.split('-')[0]}.json").read_text())
        section = report.get("mobius", report)
        assert rc == 2 and section["ok"] is False and report["ok"] is False
        assert section["max_diff_N"] is None and section["max_diff_M1"] is None
        assert section["scale"] >= 1.0


INDEX_KEYS = {"kappa_per_curve", "kappa", "dim_S_minus", "codim_R_minus",
              "dim_null_I_plus_N", "dim_null_I_minus_N", "dim_S_plus_bounds",
              "codim_R_plus_bounds"}
MOBIUS_KEYS = {"max_diff_N", "max_diff_M1", "scale", "tolerance", "index_shift",
               "index_direct", "ok"}


class TestOutputsFromRecords:
    """The files are the library's arrays and records, serialized: a new field
    of IndexReport or InvarianceReport would show here, not silently in a file."""

    @pytest.mark.parametrize("command", ["solve-rhp", "solve-dirichlet"])
    def test_boundary_csv_rows_are_the_solution(self, inputs, tmp_path, command):
        coeff_args = ["--coeff", inputs / "coeff.json"] if command == "solve-rhp" else []
        out = tmp_path / "out"
        rc = _run([command, "--region", inputs / "region.json", *coeff_args,
                   "--data", inputs / "data.json", "--n", 64, "--out", out])
        assert rc == 0
        region, grid = load_region(REGION), ParamGrid(64)
        coeff = coefficient.load_coefficient(COEFF_POWER) if coeff_args else One()
        ops = discrete.assemble_N(region, coeff, grid)
        gamma = rhp.load_boundary_data(DATA_MIXED, region, coeff, grid)
        if command == "solve-rhp":
            solution = rhp.solve_rhp(ops, gamma)
            h, f_plus = solution.h, solution.f_plus
        else:
            solution = dirichlet.solve_modified_dirichlet(ops, gamma)
            h, f_plus = solution.h_raw, solution.f_boundary
        expected = ["curve_index,s,gamma,mu,h,re_f,im_f"]
        for k in range(region.m):
            for i, s in enumerate(grid.nodes):
                j = k * grid.n + i
                values = (s, gamma[j], solution.mu[j], h[j], f_plus[j].real, f_plus[j].imag)
                expected.append(",".join([str(k)] + [repr(float(v)) for v in values]))
        assert (out / "boundary.csv").read_text().splitlines() == expected

    def test_index_json_is_the_report(self, inputs, tmp_path, capsys):
        out = tmp_path / "out"
        rc = _run(["index-report", "--region", inputs / "region.json",
                   "--coeff", inputs / "coeff.json", "--out", out])
        assert rc == 0
        text = (out / "index.json").read_text()
        assert set(json.loads(text)) == INDEX_KEYS
        assert capsys.readouterr().out == text

    def test_mobius_sections_have_seven_keys(self, inputs, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(["mobius-check", "--region", inputs / "region.json", "--n", 64,
                     "--out", out]) == 0
        text = (out / "mobius.json").read_text()
        assert set(json.loads(text)) == MOBIUS_KEYS
        assert capsys.readouterr().out == text
        assert _run(["verify", "--region", inputs / "region.json", "--n", 64,
                     "--out", out]) == 0
        assert set(json.loads((out / "verify.json").read_text())["mobius"]) == MOBIUS_KEYS


class TestSharedBoundarySample:
    def test_verify_samples_once_and_builds_two_kernels(self, inputs, tmp_path,
                                                         monkeypatch):
        samples = count_calls(monkeypatch, Region, "sample")
        factored = count_calls(monkeypatch, discrete, "_factor_kernel")
        blocks = count_calls(monkeypatch, discrete, "_kernel_blocks")
        rc = _run(["verify", "--region", inputs / "region.json", "--n", 64,
                   "--out", tmp_path / "o"])
        assert rc == 0
        assert len(samples) == 1
        # assembly walks each of the three curves' own blocks, the Mobius
        # check all nine curve pairs of the mapped kernel
        assert (len(factored), len(blocks)) == (1, 3 + 9)

    def test_mobius_check_builds_two_kernels(self, inputs, tmp_path, monkeypatch):
        factored = count_calls(monkeypatch, discrete, "_factor_kernel")
        blocks = count_calls(monkeypatch, discrete, "_kernel_blocks")
        rc = _run(["mobius-check", "--region", inputs / "region.json", "--n", 64,
                   "--out", tmp_path / "o"])
        assert rc == 0
        assert (len(factored), len(blocks)) == (1, 3 + 9)

    def test_eval_field_samples_twice(self, inputs, tmp_path, monkeypatch):
        # once for the assembled jet, once for the poles data
        samples = count_calls(monkeypatch, Region, "sample")
        rc = _run(["eval-field", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64,
                   "--out", tmp_path / "o", "--field-grid=-6,6,12,-6,6,12"])
        assert rc == 0
        assert len(samples) == 2


class TestIndexDecidedOnce:
    """Each run that assembles computes the indices once, in assembly."""

    @pytest.mark.parametrize("command, extra", [
        ("solve-rhp", ["--coeff", "coeff.json", "--data", "data.json"]),
        ("solve-dirichlet", ["--data", "data.json"]),
        ("eval-field", ["--data", "data.json", "--field-grid=5,6,2,5,6,2"]),
        ("verify", ["--coeff", "coeff.json"]),
        ("mobius-check", ["--coeff", "coeff.json"]),
    ])
    def test_one_index_computation_per_run(self, inputs, tmp_path, monkeypatch,
                                           command, extra):
        calls = count_calls(monkeypatch, coefficient, "index_of")
        extra = [inputs / e if e.endswith(".json") else e for e in extra]
        rc = _run([command, "--region", inputs / "region.json", "--n", 64,
                   "--out", tmp_path / "o", *extra])
        assert rc == 0
        assert len(calls) == 1


class TestRankDecisionWithoutSVD:
    """The indices decide the rank; only verify measures nullities by SVD."""

    @pytest.mark.parametrize("command, extra", [
        ("solve-dirichlet", []),
        ("solve-rhp", ["--coeff", "coeff.json"]),
        ("eval-field", ["--field-grid=5,6,2,5,6,2"]),
    ], ids=["solve-dirichlet", "solve-rhp-minimal-norm", "eval-field"])
    def test_solve_paths_take_no_svd(self, inputs, tmp_path, monkeypatch, command,
                                     extra):
        svds = count_calls(monkeypatch, discrete, "nullity")
        extra = [inputs / e if e.endswith(".json") else e for e in extra]
        rc = _run([command, "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64,
                   "--out", tmp_path / "o", *extra])
        assert rc == 0
        assert svds == []

    def test_library_minimal_norm_solve_takes_no_svd(self, three_circles, grid64,
                                                     monkeypatch):
        ops = discrete.assemble_N(three_circles, ShiftedPower(CENTERS[2], 1), grid64)
        svds = count_calls(monkeypatch, discrete, "nullity")
        gamma = np.cos(np.tile(grid64.nodes, 3))
        solution = rhp.solve_rhp(ops, gamma)
        assert solution.diagnostics.minimal_norm
        assert svds == []

    def test_verify_measures_both_nullities(self, inputs, tmp_path, monkeypatch):
        counts = count_calls(monkeypatch, discrete, "nullity")
        columns = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            columns.append(np.shape(a)[-1])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        # N = 384 nodes exceed the widest thin SVD the Krylov count may take:
        # 32 depths of b = 3 + 8 columns
        rc = _run(["verify", "--region", inputs / "region.json", "--n", 128,
                   "--out", tmp_path / "o"])
        assert rc == 0
        assert len(counts) == 2
        assert columns and max(columns) <= 32 * (3 + discrete.NULLITY_MARGIN) < 3 * 128


class TestMatrixFreeSolve:
    """GMRES applies N: no solve path forms or factors I - N."""

    @staticmethod
    def _dense_counters(monkeypatch):
        return [count_calls(monkeypatch, np.linalg, "solve"),
                count_calls(monkeypatch, np.linalg, "lstsq"),
                count_calls(monkeypatch, discrete.DiscreteOperators, "identity_minus_N")]

    @pytest.mark.parametrize("command, extra", [
        ("solve-dirichlet", []),
        ("solve-rhp", []),
        ("solve-rhp", ["--coeff", "coeff.json"]),
        ("eval-field", ["--field-grid=5,6,2,5,6,2"]),
    ], ids=["solve-dirichlet", "solve-rhp-regular", "solve-rhp-minimal-norm",
            "eval-field"])
    def test_solve_paths_form_no_dense_system(self, inputs, tmp_path, monkeypatch,
                                              command, extra):
        dense = self._dense_counters(monkeypatch)
        extra = [inputs / e if e.endswith(".json") else e for e in extra]
        out = tmp_path / "o"
        rc = _run([command, "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out, *extra])
        assert rc == 0
        assert dense == [[], [], []]
        if command != "eval-field":
            iterations = json.loads((out / "diagnostics.json").read_text())["solver_iterations"]
            assert isinstance(iterations, int) and 0 < iterations <= 60

    @pytest.mark.parametrize("command, extra, minimal_norm", [
        ("solve-dirichlet", [], False),
        ("solve-rhp", ["--coeff", "coeff.json"], True),
    ], ids=["regular", "minimal-norm"])
    def test_diagnostics_count_gmres_products(self, inputs, tmp_path, command, extra,
                                              minimal_norm):
        # one solver on both paths, so no "solver" key names it
        out = tmp_path / "o"
        rc = _run([command, "--region", inputs / "region.json", "--data",
                   inputs / "data.json", "--n", 64, "--out", out,
                   *[inputs / e if e.endswith(".json") else e for e in extra]])
        assert rc == 0
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert "solver" not in diagnostics
        assert diagnostics.get("minimal_norm", False) == minimal_norm
        assert 0 < diagnostics["solver_iterations"] <= 30

    def test_library_solves_form_no_dense_system(self, three_circles, grid64,
                                                 monkeypatch):
        gamma = np.cos(np.tile(grid64.nodes, 3))
        operators = [discrete.assemble_N(three_circles, coeff, grid64)
                     for coeff in (One(), ShiftedPower(CENTERS[2], 1))]
        dense = self._dense_counters(monkeypatch)
        paths = [rhp.solve_rhp(ops, gamma).diagnostics.minimal_norm for ops in operators]
        assert paths == [False, True]
        assert dense == [[], [], []]

    def test_peak_memory_is_linear_in_size(self, mixed_gallery):
        # N = 1536: one dense N x N system alone would take 8 N^2 bytes, 24 times this bound
        grid = ParamGrid(512)
        gamma = np.cos(np.tile(grid.nodes, 3)) + np.repeat([0.3, -1.2, 2.0], grid.n)
        for coeff, minimal_norm in ((One(), False), (ShiftedPower(CENTERS[2], 1), True)):
            ops = discrete.assemble_N(mixed_gallery, coeff, grid)
            tracemalloc.start()
            try:
                solution = rhp.solve_rhp(ops, gamma)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert solution.diagnostics.minimal_norm == minimal_norm
            assert peak < 64 * ops.size * 8


class TestEvalField:
    @staticmethod
    def _probes(side: int):
        """side x side probes with every flag, and field values to write."""
        xs = np.linspace(-6.0, 6.0, side)
        points = (xs[None, :] + 1j * xs[:, None]).ravel()
        u = np.sin(points.real) * np.cos(3.0 * points.imag) / 7.0
        holes = np.abs(points - 3.0) < 1.0
        in_band = ~holes & (np.abs(np.abs(points - 3.0) - 1.0) < 0.1)
        return points, u, holes, in_band

    def test_field_csv_in_blocks_is_the_row_by_row_text(self, tmp_path):
        # three blocks and a partial fourth
        points, u, holes, in_band = self._probes(120)
        assert 3 * cli.FIELD_BLOCK < points.size < 4 * cli.FIELD_BLOCK
        path = tmp_path / "field.csv"
        cli._write_csv(path, cli._field_blocks(points, u, holes, in_band))
        rows = ["x,y,u,in_band_flag"] + [
            f"{float(z.real)!r},{float(z.imag)!r},{'' if h else repr(float(v))},"
            f"{'hole' if h else 'band' if b else 'ok'}"
            for z, v, h, b in zip(points, u, holes, in_band)]
        assert path.read_text() == "\n".join(rows) + "\n"

    def test_field_csv_memory_is_bounded(self, tmp_path):
        # 160,000 probes: all the formatted cells at once would take about
        # 40 MB; the blocks hold about 1 MB
        probes = self._probes(400)
        peak = traced_peak(lambda: cli._write_csv(tmp_path / "field.csv",
                                                  cli._field_blocks(*probes)))
        assert peak < 8 * 2**20, peak

    def test_flags_and_layout(self, inputs, tmp_path):
        out = tmp_path / "out"
        rc = _run(["eval-field", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out,
                   "--field-grid=-6,6,12,-6,6,12"])
        assert rc == 0
        lines = (out / "field.csv").read_text().splitlines()
        assert lines[0] == "x,y,u,in_band_flag"
        assert len(lines) == 1 + 144
        flags = {line.split(",")[-1] for line in lines[1:]}
        assert flags == {"ok", "band", "hole"}
        # hole rows carry no field value
        hole_rows = [l for l in lines[1:] if l.endswith("hole")]
        assert hole_rows and all(l.split(",")[2] == "" for l in hole_rows)
        # row-major by y then x: y constant along each chunk of 12
        ys = [float(l.split(",")[1]) for l in lines[1:14]]
        assert len(set(ys[:12])) == 1 and ys[12] > ys[0]

    def test_hole_center_is_masked(self, inputs, tmp_path):
        out = tmp_path / "out"
        rc = _run(["eval-field", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out,
                   "--field-grid", f"{CENTERS[0].real},{CENTERS[0].real},1,"
                                   f"{CENTERS[0].imag},{CENTERS[0].imag},1"])
        assert rc == 0
        line = (out / "field.csv").read_text().splitlines()[1]
        assert line.endswith("hole")

    @pytest.mark.parametrize("depth, flag", [
        (1.5e-5, "hole"), (-2e-6, "band"), (1e-7, "band"), (-1e-7, "band")],
        ids=["inside", "outside", "inside-too-close", "outside-too-close"])
    def test_probe_between_polygon_nodes(self, inputs, tmp_path, depth, flag):
        # midway between two nodes of a 512-node polygon of the first
        # circle, whose chord there lies 1.9e-5 inside the curve; a probe
        # within 1e-6 of a node the count samples is too close to count,
        # so it stays in the band with its value
        z = complex(CENTERS[0] + (RADII[0] - depth) * np.exp(-1j * np.pi / 512))
        out = tmp_path / "out"
        rc = _run(["eval-field", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out,
                   "--field-grid", f"{z.real!r},{z.real!r},1,{z.imag!r},{z.imag!r},1"])
        assert rc == 0
        _, _, u, got = (out / "field.csv").read_text().splitlines()[1].split(",")
        assert got == flag
        assert u == "" if flag == "hole" else np.isfinite(float(u))

    @pytest.mark.parametrize("n, spec, probe, x", [
        (256, "4,4,1,0,0,1", 0, 4.0), (64, "2,4,3,0,0,1", 0, 2.0), (64, "2,4,3,0,0,1", 2, 4.0)],
        ids=["on-node-256", "beside-node-64", "on-node-64"])
    def test_probe_on_a_node_takes_the_boundary_value(self, tmp_path, n, spec, probe, x):
        # (4, 0) is the first circle's node s = 0, and (2, 0) lies 1.2e-16
        # from its node s = pi: the Cauchy sum wrote nan and 1.02e14 there.
        # Such a probe takes the node's Re f+, which the pole oracle checks
        (tmp_path / "region.json").write_text(json.dumps(REGION))
        (tmp_path / "poles.json").write_text(json.dumps(DATA_POLES))
        out = tmp_path / "out"
        rc = _run(["eval-field", "--region", tmp_path / "region.json",
                   "--data", tmp_path / "poles.json", "--n", n, "--out", out,
                   f"--field-grid={spec}"])
        assert rc == 0
        _, _, u, flag = (out / "field.csv").read_text().splitlines()[1 + probe].split(",")
        oracle = rational_values(x, zip(CENTERS, POLE_AMPLITUDES)).real
        assert flag == "band" and abs(float(u) - oracle) <= 1e-8

    def test_on_node_value_is_cauchy_evals(self, tmp_path, monkeypatch):
        # (4, 0) is node s = 0 of the gallery's circle(3, 1); eval-field
        # takes cauchy_eval's exterior Plemelj value there, which a run
        # computes once, and only when a probe sits on a node
        for name in ("region_circles.json", "coeff_power.json", "data_mixed.json"):
            (tmp_path / name).write_text(json.dumps(FILES[name]))
        argv = ["eval-field", "--region", tmp_path / "region_circles.json",
                "--coeff", tmp_path / "coeff_power.json",
                "--data", tmp_path / "data_mixed.json", "--n", 64]
        plemelj = count_calls(monkeypatch, rhp, "plemelj_boundary")
        assert _run([*argv, "--out", tmp_path / "off", "--field-grid=5,6,2,5,6,2"]) == 0
        assert plemelj == []
        assert _run([*argv, "--out", tmp_path / "on", "--field-grid=4,4,1,0,0,1"]) == 0
        assert len(plemelj) == 1
        _, _, u, flag = (tmp_path / "on" / "field.csv").read_text().splitlines()[1].split(",")
        region, grid = load_region(tmp_path / "region_circles.json"), ParamGrid(64)
        coeff = load_coefficient(tmp_path / "coeff_power.json")
        ops = discrete.assemble_N(region, coeff, grid)
        gamma = rhp.load_boundary_data(tmp_path / "data_mixed.json", region, coeff, grid)
        solution = rhp.solve_rhp(ops, gamma)
        with pytest.warns(TooCloseToBoundary):
            value = rhp.cauchy_eval(ops, gamma, solution.mu, 4.0)
        assert flag == "band" and u == repr(value.real)

    def test_non_finite_value_exits_2(self, inputs, tmp_path, monkeypatch, capsys):
        # a non-finite value off the nodes is a quality failure, not a row
        field_pass = rhp.field_pass

        def planted(*args):
            f, dist, turns = field_pass(*args)
            f[0] = np.nan
            return f, dist, turns

        monkeypatch.setattr(rhp, "field_pass", planted)
        out = tmp_path / "out"
        rc = _run(["eval-field", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out,
                   "--field-grid=5,6,2,5,6,2"])
        assert rc == 2 and not (out / "field.csv").exists()
        assert json.loads(capsys.readouterr().err)["error"] == "FloatingPointError"

    @pytest.mark.parametrize("spec", ["-0.0,-0.0,1,-0.0,6,3", "-0.0,6,3,5,5,1"])
    def test_signed_zero_and_one_point_axes(self, inputs, tmp_path, spec):
        # each distinct bit pattern is formatted once, -0.0 apart from 0.0,
        # into the text that repr gives each value
        values = np.array([0.0, -0.0, 1.5, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1.5, 0.1])
        assert cli._floats(values).tolist() == [repr(float(v)) for v in values]
        out = tmp_path / "out"
        rc = _run(["eval-field", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out,
                   f"--field-grid={spec}"])
        assert rc == 0
        rows = [line.split(",") for line in (out / "field.csv").read_text().splitlines()[1:]]
        assert [(x, y) for x, y, _, _ in rows] == [(repr(float(z.real)), repr(float(z.imag)))
                                                  for z in cli._probe_points(spec)]
        assert all(u == "" or u == repr(float(u)) for _, _, u, _ in rows)

    def test_missing_grid_exits_1(self, inputs, tmp_path):
        rc = _run(["eval-field", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--out", tmp_path / "o"])
        assert rc == 1

    @pytest.mark.parametrize("spec, message", [
        ("-6,6,12,-6,6", "--field-grid expects x0,x1,nx,y0,y1,ny"),
        ("-6,6,0,-6,6,12", "field grid needs at least one point per axis"),
        ("-1e308,1e308,3,0,0,1", "--field-grid probes must be finite"),
    ], ids=["five-parts", "nx-zero", "span-overflows"])
    @pytest.mark.filterwarnings("error")  # an overflowing span warns nothing either
    def test_bad_grid_exits_1(self, inputs, tmp_path, capsys, spec, message):
        out = tmp_path / "o"
        rc = _run(["eval-field", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64, "--out", out,
                   f"--field-grid={spec}"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": message}
        assert not out.exists()


def _dense_reference_csv(region, grid, gamma, points) -> bytes:
    """field.csv of the former eval-field path: the all-probe hole mask, the
    dense boundary distance and the dense Cauchy sum, P x N arrays each."""
    ops = discrete.assemble_N(region, One(), grid)
    mu = rhp.solve_rhp(ops, gamma).mu
    jet = ops.jet
    holes = cli._hole_mask(region, points, grid.n)
    diff = jet.eta[None, :] - points[:, None]
    in_band = (np.abs(diff).min(axis=1) < rhp.near_boundary_band(jet)) & ~holes
    density = (gamma + 1j * mu) / jet.coeff
    density = density * jet.eta_d * (jet.weight / (2j * np.pi))
    u = (density[None, :] / diff).sum(axis=1).real
    lines = ["x,y,u,in_band_flag"]
    for z, hole, near, value in zip(points, holes, in_band, u):
        flag = "hole" if hole else "band" if near else "ok"
        text = "" if hole else repr(float(value))
        lines.append(f"{float(z.real)!r},{float(z.imag)!r},{text},{flag}")
    return ("\n".join(lines) + "\n").encode()


def _field_columns(text: str):
    """x, y and in_band_flag of field.csv as text, and u with NaN in holes."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return ([(x, y, flag) for x, y, _, flag in rows],
            np.array([float(u) if u else np.nan for _, _, u, _ in rows]))


class TestFieldPassReference:
    """eval-field matches the dense former path: x, y and the flags byte for
    byte, u to the rounding of the per-curve summation order (8.9e-16
    relative measured, |u| <= 2.4).  Only probes inside the band reach the
    hole mask, whose turn count starts on the grid of the solve."""

    @pytest.mark.parametrize("region_json", [REGION, MIXED_REGION],
                             ids=["circles", "mixed"])
    @pytest.mark.parametrize("n", [8, 64])
    def test_field_csv_matches_dense_reference(self, region_json, n, tmp_path,
                                               monkeypatch):
        region, grid = load_region(region_json), ParamGrid(n)
        jet = discrete.assemble_N(region, One(), grid).jet
        band = rhp.near_boundary_band(jet)
        h = band / 5.0
        s = (np.arange(16) + 0.3) * (2.0 * np.pi / 16)
        probes = []
        for curve in region.curves:
            eta, eta_d, _ = curve.jet(s)
            outward = 1j * eta_d / np.abs(eta_d)  # clockwise: the region is on the left
            for d in (0.5 * h, 2.0 * h, 0.9 * band, 1.1 * band):
                probes += [eta + d * outward, eta - d * outward]
        points = np.concatenate(probes)
        gamma = rhp.load_boundary_data(DATA_MIXED, region, One(), grid)
        expected = _dense_reference_csv(region, grid, gamma, points)

        masked, original_mask = [], cli._hole_mask

        def recording_mask(region, pts, n):
            masked.append((pts, n))
            return original_mask(region, pts, n)

        monkeypatch.setattr(cli, "_hole_mask", recording_mask)
        monkeypatch.setattr(cli, "_probe_points", lambda text: points)
        (tmp_path / "region.json").write_text(json.dumps(region_json))
        (tmp_path / "data.json").write_text(json.dumps(DATA_MIXED))
        out = tmp_path / "out"
        rc = _run(["eval-field", "--region", tmp_path / "region.json",
                   "--data", tmp_path / "data.json", "--n", n, "--out", out,
                   "--field-grid=0,0,1,0,0,1"])
        assert rc == 0
        text, u = _field_columns((out / "field.csv").read_text())
        expected_text, expected_u = _field_columns(expected.decode())
        assert text == expected_text
        assert np.array_equal(np.isnan(u), np.isnan(expected_u))
        scale = np.maximum(1.0, np.abs(expected_u))
        assert np.nanmax(np.abs(u - expected_u) / scale) <= 1e-13
        assert {"hole", "band"} <= {line.rsplit(",", 1)[1]
                                   for line in expected.decode().splitlines()[1:]}
        # the hole mask sees exactly the probes inside the band
        near = np.abs(jet.eta[None, :] - points[:, None]).min(axis=1) < band
        assert len(masked) == 1 and np.array_equal(masked[0][0], points[near])
        assert masked[0][1] == n


class TestErrorPaths:
    def test_missing_region_file(self, inputs, tmp_path):
        rc = _run(["solve-dirichlet", "--region", inputs / "nope.json",
                   "--data", inputs / "data.json", "--out", tmp_path / "o"])
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--region", "--coeff", "--data"])
    def test_missing_input_file_message(self, inputs, tmp_path, flag, capsys):
        files = {"--region": inputs / "region.json", "--coeff": inputs / "coeff.json",
                 "--data": inputs / "data.json"}
        files[flag] = tmp_path / "nope.json"
        rc = _run(["solve-rhp", *(x for pair in files.items() for x in pair),
                   "--out", tmp_path / "o"])
        assert rc == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "FileNotFoundError",
                         "message": f"[Errno 2] No such file or directory: "
                                    f"'{tmp_path / 'nope.json'}'"}

    @pytest.mark.parametrize("entries", [2, 4], ids=["fewer", "more"])
    @pytest.mark.parametrize("command, extra", [
        ("solve-rhp", ["--data", "data.json"]),
        ("index-report", []),
    ])
    def test_trig_coefficient_needs_one_entry_per_curve(self, inputs, tmp_path, capsys,
                                                        entries, command, extra):
        path = tmp_path / "trig.json"
        path.write_text(json.dumps({"type": "trig",
                                    "per_curve": [[[0, 1.0, 0.0]]] * entries}))
        extra = [inputs / e if e.endswith(".json") else e for e in extra]
        rc = _run([command, "--region", inputs / "region.json", "--coeff", path,
                   "--n", 64, "--out", tmp_path / "o", *extra])
        assert rc == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "ValueError",
                         "message": "trig coefficient must supply one entry per curve"}

    @pytest.mark.parametrize("text", ["3", '"region.json"'], ids=["number", "string"])
    def test_region_file_without_an_object_exits_1(self, inputs, tmp_path, text, capsys):
        path = tmp_path / "region.json"
        path.write_text(text)
        rc = _run(["index-report", "--region", path, "--out", tmp_path / "o"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    @pytest.mark.parametrize("command, flag, payload", [
        ("index-report", "--region", []),
        ("index-report", "--region", {"curves": [3]}),
        ("index-report", "--region", {"curves": [{"type": "trig", "coeffs": [[0, 1]]}]}),
        ("index-report", "--coeff", []),
        ("index-report", "--coeff", {"type": "trig", "per_curve": [[[0, 1]]] * 3}),
        ("solve-rhp", "--data", [3]),
        ("solve-rhp", "--data", {"type": "trig", "per_curve": [[[0, 1]]] * 3}),
        # fields of the wrong JSON type
        ("index-report", "--region", {"curves": 3}),
        ("index-report", "--region", {"curves": [{"type": "circle", "center": [0, 0],
                                                  "radius": None}]}),
        ("index-report", "--region", {"curves": [{"type": "circle", "center": 5,
                                                  "radius": 1}]}),
        ("index-report", "--region", {"curves": [{"type": "trig", "coeffs": 3}]}),
        ("index-report", "--region", dict(REGION, hole_points=3)),
        ("index-report", "--region", dict(REGION, hole_points=[None])),
        ("index-report", "--coeff", {"type": "trig", "per_curve": [3, 3]}),
        ("index-report", "--coeff", dict(COEFF_POWER, power=None)),
        ("index-report", "--coeff", dict(COEFF_POWER, z0=3)),
        ("solve-rhp", "--data", {"type": "constants", "values": 3}),
        ("solve-rhp", "--data", {"type": "constants", "values": [None, 1, 1]}),
        ("solve-rhp", "--data", {"type": "samples", "values": 3}),
        ("solve-rhp", "--data", {"type": "poles", "terms": 3}),
        ("solve-rhp", "--data", {"type": "poles", "terms": [{"c": None, "a": [1, 0]}]}),
        ("solve-rhp", "--data", {"type": "trig", "per_curve": [3, 3]}),
        # a power repeated in any list of [p, re, im] rows, each read as a Curve
        ("index-report", "--region", {"curves": [{"type": "trig", "coeffs": DUPLICATE}]}),
        ("index-report", "--coeff", {"type": "trig", "per_curve": [DUPLICATE] * 3}),
        ("solve-rhp", "--data", {"type": "trig", "per_curve": [DUPLICATE] * 3}),
        # powers that are not integers, numbers given as strings or booleans
        ("index-report", "--region", {"curves": [{"type": "trig", "coeffs": FRACTIONAL}]}),
        ("index-report", "--region", {"curves": [{"type": "trig",
                                                  "coeffs": [[True, 1.0, 0.0]]}]}),
        ("index-report", "--coeff", {"type": "trig", "per_curve": [FRACTIONAL] * 3}),
        ("solve-rhp", "--data", {"type": "trig", "per_curve": [FRACTIONAL] * 3}),
        ("index-report", "--coeff", dict(COEFF_POWER, power=1.5)),
        ("index-report", "--coeff", dict(COEFF_POWER, power="1")),
        ("index-report", "--region", {"curves": [{"type": "circle", "center": [0, 0],
                                                  "radius": "1.0"}]}),
        ("index-report", "--region", {"curves": [{"type": "circle", "center": [0, 0],
                                                  "radius": True}]}),
        # integers beyond the float range
        ("index-report", "--region", {"curves": [{"type": "trig",
                                                  "coeffs": [[10**400, 0.1, 0]]}]}),
        ("index-report", "--region", {"curves": [{"type": "circle", "center": [0, 0],
                                                  "radius": 10**400}]}),
        ("index-report", "--coeff", dict(COEFF_POWER, power=10**400)),
    ], ids=["region-list", "curve-number", "curve-row", "coeff-list", "coeff-row",
            "data-number", "data-row", "curves-number", "radius-null",
            "center-number", "coeffs-number", "hole-points-number", "hole-point-null",
            "coeff-per-curve-numbers", "power-null", "z0-number",
            "constants-number", "constant-null", "samples-number", "terms-number",
            "pole-centre-null", "data-per-curve-numbers", "curve-duplicate-powers",
            "coeff-duplicate-powers", "data-duplicate-powers", "curve-fractional-power",
            "curve-boolean-power", "coeff-fractional-power", "data-fractional-power",
            "power-fractional", "power-string", "radius-string", "radius-boolean",
            "curve-huge-power", "radius-huge", "power-huge"])
    def test_malformed_json_exits_1(self, inputs, tmp_path, capsys, command, flag,
                                    payload):
        files = {"--region": inputs / "region.json"}
        if command == "solve-rhp":
            files["--data"] = inputs / "data.json"
        files[flag] = tmp_path / "bad.json"
        files[flag].write_text(json.dumps(payload))
        rc = _run([command, *(x for pair in files.items() for x in pair),
                   "--n", 64, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert rc == 1
        assert json.loads(err)["error"] == "ValueError"
        assert "Traceback" not in err

    def test_malformed_region_file(self, tmp_path):
        path = tmp_path / "region.json"
        path.write_text("{not json")
        rc = _run(["solve-dirichlet", "--region", path, "--data", path,
                   "--out", tmp_path / "o"])
        assert rc == 1

    def test_odd_n(self, inputs, tmp_path):
        rc = _run(["solve-dirichlet", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 65,
                   "--out", tmp_path / "o"])
        assert rc == 1

    def test_missing_data_flag(self, inputs, tmp_path):
        rc = _run(["solve-dirichlet", "--region", inputs / "region.json",
                   "--out", tmp_path / "o"])
        assert rc == 1

    @pytest.mark.parametrize("command, extra", [
        ("solve-dirichlet", []),
        ("solve-rhp", []),
        ("eval-field", ["--field-grid=5,6,2,5,6,2"]),
    ], ids=["solve-dirichlet", "solve-rhp", "eval-field"])
    def test_nan_data_exits_1(self, inputs, tmp_path, command, extra, capsys):
        out = tmp_path / "o"
        rc = _run([command, "--region", inputs / "region.json",
                   "--data", inputs / "nan_data.json", "--n", 64, "--out", out, *extra])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_field_grid_exits_1(self, inputs, tmp_path, capsys):
        rc = _run(["eval-field", "--region", inputs / "region.json",
                   "--data", inputs / "data.json", "--n", 64,
                   "--out", tmp_path / "o", "--field-grid=nan,6,2,5,6,2"])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err

    def test_nan_region_exits_1(self, tmp_path, capsys):
        region = {"curves": [dict(c) for c in REGION["curves"]]}
        region["curves"][0]["center"] = [float("nan"), 0.0]
        path = tmp_path / "region.json"
        path.write_text(json.dumps(region))
        rc = _run(["index-report", "--region", path, "--out", tmp_path / "o"])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("solve-dirichlet", "--strict"),
        ("solve-dirichlet", "--tol-identity"),
        ("solve-rhp", "--strict"),
        ("solve-rhp", "--tol-identity"),
        ("verify", "--data"),
        ("verify", "--tol-solve"),
        ("verify", "--strict"),
        ("index-report", "--data"),
        ("index-report", "--tol-solve"),
        ("index-report", "--tol-identity"),
        ("index-report", "--strict"),
        ("mobius-check", "--data"),
        ("mobius-check", "--tol-solve"),
        ("mobius-check", "--tol-identity"),
        ("mobius-check", "--strict"),
        ("eval-field", "--tol-identity"),
        # flags that are gone: the tolerances are constants, and band probes
        # are flagged in field.csv
        ("solve-rhp", "--tol-solve"),
        ("solve-dirichlet", "--tol-solve"),
        ("eval-field", "--tol-solve"),
        ("verify", "--tol-identity"),
        ("eval-field", "--strict"),
    ])
    def test_flag_the_subcommand_ignores_exits_1(self, inputs, tmp_path, command, flag):
        value = {"--data": [inputs / "data.json"], "--tol-solve": ["1e-10"],
                 "--tol-identity": ["1e-8"], "--strict": []}[flag]
        data = ([] if command in ("verify", "index-report", "mobius-check")
                else ["--data", inputs / "data.json"])
        grid = ["--field-grid=5,6,2,5,6,2"] if command == "eval-field" else []
        rc = _run([command, "--region", inputs / "region.json", "--n", 64,
                   "--out", tmp_path / "o", *data, *grid, flag, *value])
        assert rc == 1
        assert not (tmp_path / "o").exists()

    def test_usage_error_exits_1(self):
        assert main(["no-such-command"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestDeterminism:
    def test_solve_dirichlet_golden(self, inputs, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert _run(["solve-dirichlet", "--region", inputs / "region.json",
                         "--data", inputs / "data.json", "--n", 64,
                         "--out", out]) == 0
            outs.append(out)
        for fname in ("boundary.csv", "diagnostics.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_verify_golden(self, inputs, tmp_path):
        for coeff in ([], ["--coeff", inputs / "coeff.json"]):
            outs = []
            for name in ("a", "b"):
                out = tmp_path / f"{name}{len(coeff)}"
                assert _run(["verify", "--region", inputs / "region.json", "--n", 64,
                             "--out", out, *coeff]) == 0
                outs.append(out)
            assert (outs[0] / "verify.json").read_bytes() == (outs[1] / "verify.json").read_bytes()


class TestModuleEntryPoint:
    def test_python_dash_m(self, inputs, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "gnk.cli", "index-report",
             "--region", str(inputs / "region.json"), "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert (out / "index.json").exists()
