"""One repetition of one workload, in a fresh process.

Imports elastoscat from the checkout's ``src/``, runs the workload's set-up
through ``elastoscat.cli.main`` in a forked child and the timed command
in-process, checks the outputs and writes one JSON record to ``--result``.  ``run.py`` starts this
script once per repetition; run it by hand only to debug a workload.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, install, layer_metrics, rejected_steps
from workloads import R0, SYNTH_RESIDUAL_TOL, TRUTH_AXES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

_RESIDUAL = re.compile(r"boundary residual=([0-9.eE+-]+)")


def run_cli(cli, argv: list[str]) -> str:
    """Run one elastoscat command in-process; return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv, standalone_mode=False)
    return buf.getvalue()


def run_cli_in_child(cli, argv: list[str], log: Path) -> str:
    """Run one elastoscat command in a forked child and wait for it; return what it printed.

    The set-up ``synth`` runs this way so that the worker's own peak RSS
    covers only the imports and the timed command.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            log.write_text(run_cli(cli, argv))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"set-up command {argv[0]} failed")
    return log.read_text()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_synth(forward, data_dir: Path, printed: str, expected_files: int):
    """Per-file checks of a synth call: reloads, points on Gamma_R, residual within tolerance.

    Returns (residuals, failed_files, notes, hashes).
    """
    residuals = [float(x) for x in _RESIDUAL.findall(printed)]
    files = sorted(data_dir.glob("data_w*_d*.json"))
    notes = []
    failed = max(expected_files - len(files), 0)
    if failed:
        notes.append(f"synth wrote {len(files)} of {expected_files} data files")
    if len(residuals) != len(files):
        notes.append(f"{len(residuals)} residual lines for {len(files)} files")
    for i, path in enumerate(files):
        try:
            ms = forward.MeasurementSet.load(path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            notes.append(f"{path.name} does not reload: {exc}")
            failed += 1
            continue
        r = [math.hypot(*p) for p in ms.points.tolist()]
        on_sphere = max(abs(x - ms.radius) for x in r) <= 1e-10 * ms.radius
        resid_ok = i < len(residuals) and residuals[i] <= SYNTH_RESIDUAL_TOL
        if not on_sphere:
            notes.append(f"{path.name}: points off the measurement sphere")
        if not resid_ok:
            notes.append(f"{path.name}: boundary residual missing or above {SYNTH_RESIDUAL_TOL}")
        failed += not (on_sphere and resid_ok)
    hashes = {p.name: sha256(p) for p in files}
    return residuals, failed, notes, hashes


def check_recon(geometry, inverse, out_dir: Path, expected_rows: int, truth, start_error: float):
    """Checks of an invert call.  Returns (surface_error, rows, notes, hashes)."""
    notes = []
    err = math.nan
    hashes = {}
    final = out_dir / "final_surface.json"
    try:
        err = inverse.surface_error(geometry.SurfaceParam.load(final), truth)
        hashes[final.name] = sha256(final)
    except (OSError, ValueError, KeyError) as exc:
        notes.append(f"final_surface.json does not load: {exc}")
    if not (math.isfinite(err) and err < start_error):
        notes.append(f"surface error {err} not below the r0={R0} sphere's {start_error}")
    history = out_dir / "objective_history.csv"
    rows = []
    if history.is_file():
        with open(history, newline="") as f:
            rows = list(csv.DictReader(f))
    if len(rows) != expected_rows:
        notes.append(f"objective_history.csv has {len(rows)} rows, expected {expected_rows}")
    return err, rows, notes, hashes


def machine_facts(np, scipy, kernels) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba": bool(kernels.USE_NUMBA),
    }


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    import numpy as np
    import scipy

    from elastoscat import _kernels, cli, forward, geometry, inverse

    work = Path(args.workdir)
    data_dir, out_dir = work / "data", work / "out"
    rec: dict = {"traced": bool(args.trace), "notes": []}
    seed = ["--seed", str(args.seed)]
    if w.inverts:
        printed = run_cli_in_child(cli, [*w.setup, *seed, "--out", str(data_dir)], work / "setup.log")
        timed = [*w.timed, "--data", str(data_dir / "data_*.json"), "--out", str(out_dir)]
    else:
        printed = ""
        timed = [*w.timed, *seed, "--out", str(data_dir)]

    if args.setup_only:
        return {"setup_s": time.monotonic() - args.spawned}

    tracer = installation = None
    if args.trace:
        tracer = Tracer()
        installation = install(tracer)
    t0 = time.monotonic()
    rec["setup_s"] = t0 - args.spawned
    try:
        printed += run_cli(cli, timed)
    except Exception:  # the record reports any failure of the program; the run goes on
        rec["notes"].append("timed command raised:\n" + traceback.format_exc())
    rec["run_s"] = time.monotonic() - t0
    if installation is not None:
        installation.uninstall()
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec["setup_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    rec["machine"] = machine_facts(np, scipy, _kernels)

    residuals, bad_files, notes, hashes = check_synth(forward, data_dir, printed, w.synth_files)
    rec["notes"] += notes
    rec["residual_rel_max"] = max(residuals, default=math.nan)
    truth = geometry.ellipsoid_coeffs(*TRUTH_AXES, 1)
    start_error = inverse.surface_error(inverse.initial_guess(R0, 1), truth)
    if w.inverts:
        err, rows, notes, more = check_recon(geometry, inverse, out_dir, w.history_rows, truth, start_error)
        rec["notes"] += notes
        hashes.update(more)
        accepted, rejected = rejected_steps(rows, w.history_rows)
        rec["surface_error"] = err
        # Operations are trial steps, plus the output check as one more.
        rec["attempted"] = accepted + rejected + 1
        rec["failed"] = rejected + (1 if rec["notes"] else 0)
    else:
        # synth reconstructs nothing; it reports the error of the r0 starting sphere, see README.md
        rec["surface_error"] = start_error
        accepted = rejected = 0
        rec["attempted"] = w.synth_files
        rec["failed"] = bad_files or (1 if rec["notes"] else 0)
    rec["hashes"] = hashes
    rec["ok"] = not rec["notes"]
    if tracer is not None:
        rec["layers"] = layer_metrics(tracer.spans, rec["run_s"])
        rec["layers"].update(
            {
                "inverse.steps_accepted": accepted,
                "inverse.steps_rejected": rejected,
                "inverse.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
            }
        )
    return rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop where the timed command would start")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    if not (SRC / "elastoscat" / "__init__.py").is_file():
        print(f"perfbench: no elastoscat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import elastoscat

    if Path(elastoscat.__file__).resolve().parent != SRC / "elastoscat":
        print(f"perfbench: imported elastoscat from {elastoscat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    rec = run(args)
    Path(args.result).write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
