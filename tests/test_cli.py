import csv
import json

import click
import numpy as np
import pytest
from click.testing import CliRunner

from elastoscat import forward as fw, geometry as geo, modal
from elastoscat.cli import _parse_directions, _parse_freqs, _parse_medium, main


@pytest.fixture
def runner():
    return CliRunner()


def test_option_parsers(tmp_path):
    assert _parse_medium("2,1") == (2.0, 1.0)
    assert _parse_freqs("1:5:1") == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert _parse_freqs("1,2.5") == [1.0, 2.5]
    dirs = _parse_directions("preset:cube-faces")
    assert len(dirs) == 6
    assert all(abs(np.linalg.norm(d) - 1) < 1e-12 for d in dirs)
    assert sum(d[2] for d in dirs) == 0.0
    dirfile = tmp_path / "dirs.json"
    dirfile.write_text(json.dumps([[0, 2, 0]]))
    assert _parse_directions(str(dirfile)) == [(0.0, 1.0, 0.0)]


def test_directions_reject_zero_vectors(tmp_path):
    with pytest.raises(click.BadParameter):
        _parse_directions("single:0,0,0")
    dirfile = tmp_path / "dirs.json"
    for rows in ([[1, 0, 0], [0, 0, 0]], [[0, 1]]):
        dirfile.write_text(json.dumps(rows))
        with pytest.raises(click.BadParameter):
            _parse_directions(str(dirfile))


def test_synth_cube_faces_matches_per_direction_solves(runner, tmp_path):
    # synth factors once per frequency; its files must equal independent solves
    res = runner.invoke(
        main,
        [
            "synth",
            "--surface", "ellipsoid:0.55,0.6,0.65",
            "--freqs", "1,1.5",
            "--noise", "0.05",
            "--seed", "7",
            "--directions", "preset:cube-faces",
            "--kpoints", "12",
            "--n-trunc", "8",
            "--out", str(tmp_path / "synth"),
        ],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    sp = geo.ellipsoid_coeffs(0.55, 0.6, 0.65, 1)
    points = fw.fibonacci_sphere(12, 1.0)
    opts = fw.SolverOptions(n_trunc=8, quad_order=12, residual_tol=2e-2)
    for iw, omega in enumerate((1.0, 1.5)):
        med = modal.Medium(2.0, 1.0, omega)
        for jd, d in enumerate(_parse_directions("preset:cube-faces")):
            wave = fw.IncidentWave("p", d)
            sol = fw.solve_rigid_scattering(sp, wave, med, 1.0, opts)
            ms = fw.scattering_operator(sp, wave, med, 1.0, points, opts, solution=sol)
            name = f"data_w{iw}_d{jd}.json"
            fw.add_noise(ms, 0.05, 7 + 1000 * iw + jd).save(tmp_path / name)
            assert (tmp_path / name).read_bytes() == (tmp_path / "synth" / name).read_bytes()


def test_synth_writes_parseable_deterministic_files(runner, tmp_path):
    args = [
        "synth",
        "--surface", "sphere:0.6",
        "--freqs", "1:1:1",
        "--noise", "0.05",
        "--seed", "7",
        "--kpoints", "20",
        "--n-trunc", "10",
        "--out", str(tmp_path / "a"),
    ]
    res = runner.invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0
    path = tmp_path / "a" / "data_w0_d0.json"
    ms = fw.MeasurementSet.load(path)
    assert ms.k == 20 and ms.delta == 0.05 and ms.seed == 7
    # rerun with the same seed: byte-identical output
    res = runner.invoke(main, args[:-1] + [str(tmp_path / "b")], catch_exceptions=False)
    assert res.exit_code == 0
    assert path.read_bytes() == (tmp_path / "b" / "data_w0_d0.json").read_bytes()
    assert (tmp_path / "a" / "synth_config.json").exists()


def test_invert_pipeline(runner, tmp_path):
    out_data = tmp_path / "data"
    res = runner.invoke(
        main,
        [
            "synth",
            "--surface", "ellipsoid:0.55,0.6,0.65",
            "--freqs", "1:1:1",
            "--noise", "0",
            "--kpoints", "30",
            "--n-trunc", "10",
            "--out", str(out_data),
        ],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    out_run = tmp_path / "run"
    res = runner.invoke(
        main,
        [
            "invert",
            "--data", str(out_data / "data_*.json"),
            "--iterations", "3",
            "--out", str(out_run),
        ],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    final = geo.SurfaceParam.load(out_run / "final_surface.json")
    assert final.order == 1
    with open(out_run / "objective_history.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    assert float(rows[-1]["objective"]) < float(rows[0]["objective"])
    for plane in ("x1", "x2", "x3"):
        assert (out_run / f"cross_section_{plane}.csv").exists()
    config = json.loads((out_run / "run_config.json").read_text())
    assert config["status"] == "finished" and config["failed_stage"] is None
    assert (out_run / "stage_0.json").exists()


def test_invert_stage_failure_exits_nonzero(runner, tmp_path):
    # an r0 = 1.5 start lies outside the radius-1 measurement sphere, so stage 0 fails
    out_data = tmp_path / "data"
    res = runner.invoke(
        main,
        [
            "synth",
            "--surface", "sphere:0.5",
            "--freqs", "1:1:1",
            "--noise", "0",
            "--kpoints", "10",
            "--n-trunc", "8",
            "--radius", "1",
            "--out", str(out_data),
        ],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    assert "status" not in json.loads((out_data / "synth_config.json").read_text())
    out_run = tmp_path / "run"
    res = runner.invoke(
        main, ["invert", "--data", str(out_data / "data_*.json"), "--r0", "1.5", "--out", str(out_run)]
    )
    assert res.exit_code != 0
    config = json.loads((out_run / "run_config.json").read_text())
    assert config["status"] == "stage_failed" and config["failed_stage"] == 0
    assert (out_run / "final_surface.json").exists()
    for plane in ("x1", "x2", "x3"):
        assert (out_run / f"cross_section_{plane}.csv").exists()


def test_invert_rejects_inconsistent_bundle(runner, tmp_path):
    d1 = tmp_path / "d1"
    d2 = tmp_path / "d2"
    for out, radius in ((d1, "1.0"), (d2, "1.5")):
        res = runner.invoke(
            main,
            [
                "synth",
                "--surface", "sphere:0.5",
                "--freqs", "1:1:1",
                "--noise", "0",
                "--kpoints", "10",
                "--n-trunc", "8",
                "--radius", radius,
                "--out", str(out),
            ],
            catch_exceptions=False,
        )
        assert res.exit_code == 0
    files = f"{d1 / 'data_w0_d0.json'},{d2 / 'data_w0_d0.json'}"
    res = runner.invoke(main, ["invert", "--data", files, "--out", str(tmp_path / "r")])
    assert res.exit_code != 0
    assert "inconsistent" in res.output


def test_check_passes(runner, tmp_path):
    report_path = tmp_path / "report.json"
    res = runner.invoke(main, ["check", "--out", str(report_path)], catch_exceptions=False)
    assert res.exit_code == 0
    report = json.loads(report_path.read_text())
    assert report["pass"] is True
    assert report["checks"]["mhat_definiteness"]["N0"] <= 200
    assert set(report["checks"]) >= {
        "z_bounds",
        "mhat_definiteness",
        "roundtrip_vtp_ptv",
        "tbc_exactness",
        "t1_sign",
        "t2_sign",
    }


def test_jacobian_dump(runner, tmp_path):
    out = tmp_path / "jac.csv"
    res = runner.invoke(
        main,
        [
            "jacobian-dump",
            "--surface", "sphere:0.6",
            "--kpoints", "5",
            "--n-trunc", "8",
            "--out", str(out),
        ],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert rows and {"i", "k", "component", "re", "im"} <= set(rows[0])
    ncoef = 6 * 4
    assert len(rows) == ncoef * 5 * 3
