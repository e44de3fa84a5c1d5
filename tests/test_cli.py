import csv
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import elastoscat
from elastoscat import forward as fw, geometry as geo, inverse as inv, modal
from elastoscat.cli import _parse_directions, _parse_freqs, _parse_medium, main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def measurement_file(tmp_path_factory):
    """A valid small measurement file, so that an invert case fails only on the option it varies."""
    sp = geo.sphere_coeffs(0.5, 1)
    wave = fw.IncidentWave("p", (0.0, 1.0, 0.0))
    opts = fw.SolverOptions(n_trunc=6, residual_tol=2e-2)
    ms = fw.solve_rigid_scattering(sp, wave, modal.Medium(2.0, 1.0, 1.0), 1.0, opts).measure(wave, fw.fibonacci_sphere(5, 1.0))
    path = tmp_path_factory.mktemp("data") / "data_w0_d0.json"
    ms.save(path)
    return path


def test_option_parsers(tmp_path):
    assert _parse_medium("2,1") == (2.0, 1.0)
    assert _parse_freqs("1:5:1") == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert _parse_freqs("1:3:1") == [1.0, 2.0, 3.0]
    # range values are the doubles nearest the decimal values, not a + i * step
    assert _parse_freqs("1.1:3.3:1.1") == [1.1, 2.2, 3.3]
    assert _parse_freqs("0.1:0.7:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
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


@pytest.mark.parametrize(
    "args",
    [
        ("--freqs", ["synth", "--surface", "sphere:0.6", "--freqs", "1:x:1"]),
        ("--freqs", ["synth", "--surface", "sphere:0.6", "--freqs", "0"]),
        ("--freqs", ["synth", "--surface", "sphere:0.6", "--freqs", "1:inf:1"]),
        ("--surface", ["synth", "--surface", "ellipsoid:1,2"]),
        ("--surface", ["synth", "--surface", "sphere:abc"]),
        ("--surface", ["synth", "--surface", "NAN_SURFACE"]),
        ("--direction", ["jacobian-dump", "--surface", "sphere:0.6", "--direction", "0,0,0"]),
        ("--direction", ["jacobian-dump", "--surface", "sphere:0.6", "--direction", "1,2"]),
        ("--kpoints", ["synth", "--surface", "sphere:0.6", "--kpoints", "0"]),
        ("--noise", ["synth", "--surface", "sphere:0.6", "--noise", "-0.1"]),
        ("--noise", ["synth", "--surface", "sphere:0.6", "--noise", "nan"]),
        ("--radius", ["synth", "--surface", "sphere:0.6", "--radius", "0"]),
        ("--radius", ["synth", "--surface", "sphere:0.6", "--radius", "-1"]),
        ("--radius", ["synth", "--surface", "sphere:0.6", "--radius", "nan"]),
        ("--medium", ["synth", "--surface", "sphere:0.6", "--medium", "1,-1"]),
        ("--n-trunc", ["synth", "--surface", "sphere:0.6", "--n-trunc", "-1"]),
        ("--seed", ["synth", "--surface", "sphere:0.6", "--seed", "-1"]),
        ("--surface", ["synth", "--surface", "sphere:0.5", "--radius", "0.3"]),
        ("--surface", ["jacobian-dump", "--surface", "sphere:0.5", "--radius", "0.3"]),
        ("--kpoints", ["jacobian-dump", "--surface", "sphere:0.6", "--kpoints", "0"]),
        ("--radius", ["jacobian-dump", "--surface", "sphere:0.6", "--radius", "nan"]),
        ("--medium", ["jacobian-dump", "--surface", "sphere:0.6", "--medium", "1,-1"]),
        ("--n-trunc", ["jacobian-dump", "--surface", "sphere:0.6", "--n-trunc", "-1"]),
        ("--omega", ["jacobian-dump", "--surface", "sphere:0.6", "--omega", "0"]),
        ("--radius", ["check", "--radius", "0"]),
        ("--radius", ["check", "--radius", "nan"]),
        ("--medium", ["check", "--medium", "1,-1"]),
        ("--omega", ["check", "--omega", "nan"]),
        ("--seed", ["check", "--seed", "-1"]),
        ("--r0", ["invert", "--data", "DATA", "--r0", "0"]),
        ("--r0", ["invert", "--data", "DATA", "--r0", "-0.5"]),
        ("--r0", ["invert", "--data", "DATA", "--r0", "inf"]),
        ("--iterations", ["invert", "--data", "DATA", "--iterations", "-2"]),
        ("--tau", ["invert", "--data", "DATA", "--tau", "0"]),
        ("--tau", ["invert", "--data", "DATA", "--tau", "-0.005"]),
        ("--tau", ["invert", "--data", "DATA", "--tau", "nan"]),
        ("--n-trunc", ["invert", "--data", "DATA", "--n-trunc", "-1"]),
        ("--residual-tol", ["invert", "--data", "DATA", "--residual-tol", "0"]),
        ("--residual-tol", ["invert", "--data", "DATA", "--residual-tol", "nan"]),
        ("--data", ["invert", "--data", "NOT_JSON"]),
        ("--data", ["invert", "--data", "NOT_MEASUREMENTS"]),
        ("--n-trunc", ["synth", "--surface", "sphere:0.6", "--n-trunc", "0"]),
        ("--n-trunc", ["jacobian-dump", "--surface", "sphere:0.6", "--n-trunc", "0"]),
        # the omega = 1 files would pass; the omega = 5 solve fails, and nothing is written
        (
            "--n-trunc",
            ["synth", "--surface", "ellipsoid:0.6,0.75,0.9", "--freqs", "1,5", "--n-trunc", "6",
             "--kpoints", "10", "--noise", "0"],
        ),
        ("--directions", ["synth", "--surface", "sphere:0.6", "--directions", "NOT_JSON"]),
        ("--directions", ["synth", "--surface", "sphere:0.6", "--directions", "JSON_OBJECT"]),
        ("--surface", ["synth", "--surface", "DIRECTORY"]),
        ("--data", ["invert", "--data", "NAN_OMEGA"]),
        ("--data", ["invert", "--data", "NAN_R"]),
        ("--data", ["invert", "--data", "NAN_LAMBDA"]),
        ("--surface", ["synth", "--surface", "ellipsoid:-0.6,0.75,0.9"]),
        ("--data", ["invert", "--data", "NEGATIVE_DELTA"]),
        ("--data", ["invert", "--data", "NAN_DELTA"]),
        ("--data", ["invert", "--data", "INFINITE_DELTA"]),
        ("--data", ["invert", "--data", "SHORT_DIRECTION"]),
        ("--data", ["invert", "--data", "LONG_DIRECTION"]),
        ("--surface", ["synth", "--surface", "NEGATIVE_ORDER_SURFACE"]),
        ("--surface", ["synth", "--surface", "FRACTIONAL_ORDER_SURFACE"]),
    ],
)
def test_bad_inputs_are_usage_errors(runner, tmp_path, measurement_file, args):
    option, args = args  # the option the error must name, and the command line
    nan_surface = tmp_path / "nan_surface.json"
    c = geo.sphere_coeffs(0.6, 1).coeffs.tolist()
    nan_surface.write_text(json.dumps({"schema": 1, "N": 1, "C": [math.nan] + c[1:]}))
    negative_order_surface = tmp_path / "negative_order_surface.json"
    negative_order_surface.write_text(json.dumps({"schema": 1, "N": -2, "C": c[:6]}))
    fractional_order_surface = tmp_path / "fractional_order_surface.json"
    fractional_order_surface.write_text(json.dumps({"schema": 1, "N": 1.5, "C": c}))
    not_json = tmp_path / "not_json.json"
    not_json.write_text("not json\n")
    not_measurements = tmp_path / "not_measurements.json"
    not_measurements.write_text(json.dumps({"schema": 1, "R": 1.0}))
    json_object = tmp_path / "json_object.json"
    json_object.write_text(json.dumps({"direction": [0, 1, 0]}))
    directory = tmp_path / "directory"
    directory.mkdir()
    files = {
        "NAN_SURFACE": nan_surface,
        "NEGATIVE_ORDER_SURFACE": negative_order_surface,
        "FRACTIONAL_ORDER_SURFACE": fractional_order_surface,
        "DATA": measurement_file,
        "NOT_JSON": not_json,
        "NOT_MEASUREMENTS": not_measurements,
        "JSON_OBJECT": json_object,
        "DIRECTORY": directory,
    }
    record = json.loads(measurement_file.read_text())
    nan_records = {
        "NAN_OMEGA": {**record, "omega": math.nan},
        "NAN_R": {**record, "R": math.nan},
        "NAN_LAMBDA": {**record, "medium": {**record["medium"], "lambda": math.nan}},
        "NEGATIVE_DELTA": {**record, "delta": -0.05},
        "NAN_DELTA": {**record, "delta": math.nan},
        "INFINITE_DELTA": {**record, "delta": math.inf},
        "SHORT_DIRECTION": {**record, "incident": {**record["incident"], "direction": [0, 1]}},
        "LONG_DIRECTION": {**record, "incident": {**record["incident"], "direction": [0, 1, 0, 0]}},
    }
    for name, rec in nan_records.items():
        files[name] = tmp_path / f"{name.lower()}.json"
        files[name].write_text(json.dumps(rec))
    args = [str(files.get(a, a)) for a in args]
    out = tmp_path / "out"
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{option}'" in res.output
    assert not out.exists()


def test_synth_default_truncation_is_the_librarys(runner, tmp_path):
    # without --n-trunc, synth solves at SolverOptions' default truncation
    args = ["synth", "--surface", "sphere:0.5", "--freqs", "1", "--kpoints", "5", "--noise", "0"]
    res = runner.invoke(main, [*args, "--out", str(tmp_path / "out")], catch_exceptions=False)
    assert res.exit_code == 0
    n = modal.default_truncation(modal.Medium(2.0, 1.0, 1.0).kappa_s, 1.0)
    assert f" n_trunc={n} " in res.output


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
            ms = sol.measure(wave, points)
            name = f"data_w{iw}_d{jd}.json"
            fw.add_noise(ms, 0.05, 7 + 1000 * iw + jd).save(tmp_path / name)
            assert (tmp_path / name).read_bytes() == (tmp_path / "synth" / name).read_bytes()


def test_synth_lanes_write_the_files_of_one_loop(runner, tmp_path, monkeypatch):
    # odd frequencies on a second thread write the same bytes and lines as
    # all of them in turn on one
    args = ["synth", "--surface", "ellipsoid:0.6,0.75,0.9", "--freqs", "1:3:1", "--n-trunc", "10", "--kpoints", "20"]
    solve = fw.solve_rigid_scattering
    threads = {}

    def recording_solve(sp, wave, med, *rest):
        threads[med.omega] = threading.current_thread()
        return solve(sp, wave, med, *rest)

    monkeypatch.setattr(fw, "solve_rigid_scattering", recording_solve)
    printed, lanes = {}, {}
    for on in (True, False):
        monkeypatch.setattr(fw, "_use_worker", lambda work, on=on: on)
        threads.clear()
        before = threading.active_count()
        out = tmp_path / str(on)
        res = runner.invoke(main, [*args, "--out", str(out)], catch_exceptions=False)
        assert res.exit_code == 0
        assert threading.active_count() == before
        printed[on], lanes[on] = res.output.replace(str(out), "OUT"), dict(threads)
    assert lanes[True][1.0] is lanes[True][3.0] is threading.current_thread() is not lanes[True][2.0]
    assert set(lanes[False].values()) == {threading.current_thread()}
    assert printed[True] == printed[False]
    names = sorted(p.name for p in (tmp_path / "True").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "False").iterdir()) and len(names) == 4
    for name in names:
        assert (tmp_path / "True" / name).read_bytes() == (tmp_path / "False" / name).read_bytes()


@pytest.mark.parametrize("freqs", ["1,3,5", "3,5,1"])
def test_synth_lanes_report_the_first_failing_frequency(runner, tmp_path, monkeypatch, freqs):
    # at n_trunc 6 omega 3 and omega 5 both fail: the usage error is omega
    # 3's, the first in frequency order, whichever lane solved each
    args = ["synth", "--surface", "ellipsoid:0.6,0.75,0.9", "--n-trunc", "6", "--kpoints", "10", "--noise", "0"]
    alone = runner.invoke(main, [*args, "--freqs", "3", "--out", str(tmp_path / "alone")])
    assert alone.exit_code == 2 and "boundary residual" in alone.output
    for on in (True, False):
        monkeypatch.setattr(fw, "_use_worker", lambda work, on=on: on)
        out = tmp_path / str(on)
        res = runner.invoke(main, [*args, "--freqs", freqs, "--out", str(out)])
        assert (res.exit_code, res.output) == (alone.exit_code, alone.output)
        assert not out.exists()


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
    assert len(ms.points) == 20 and ms.delta == 0.05 and ms.seed == 7
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


def test_invert_records_each_stages_final_rung(runner, tmp_path):
    out_data = tmp_path / "data"
    res = runner.invoke(
        main,
        [
            "synth",
            "--surface", "ellipsoid:0.6,0.75,0.9",
            "--freqs", "1,2",
            "--noise", "0.05",
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
        ["invert", "--data", str(out_data / "data_*.json"), "--iterations", "4", "--r0", "0.3", "--out", str(out_run)],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    datasets = [fw.MeasurementSet.load(p) for p in sorted(out_data.glob("data_*.json"))]
    state = inv.continuation_run(datasets, inv.FrequencySchedule((1.0, 2.0), iterations=4), r0=0.3)
    config = json.loads((out_run / "run_config.json").read_text())
    assert config["stage_n_trunc"] == [[h["n_trunc"] for h in state.history if h["stage"] == i][-1] for i in (0, 1)]
    with open(out_run / "objective_history.csv") as f:
        assert next(csv.reader(f)) == ["stage", "omega", "sweep", "iteration", "objective", "tau"]


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


def test_invert_rejects_missing_or_directory_data(runner, tmp_path):
    for data in (tmp_path, tmp_path / "missing.json"):
        res = runner.invoke(main, ["invert", "--data", str(data), "--out", str(tmp_path / "r")])
        assert res.exit_code == 2  # a usage error, not a traceback
        assert "--data" in res.output and str(data) in res.output
    assert not (tmp_path / "r").exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency; importing it would add to every run's start-up time
    src = str(Path(elastoscat.__file__).resolve().parents[1])
    code = "import sys, elastoscat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


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
