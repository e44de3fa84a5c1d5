"""elastoscat benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload recon-desk --seed 1 --seconds 30 --trace 0

Each repetition is a fresh process (``worker.py``) that builds its inputs from
``--seed``, sets up, runs the timed command and checks the outputs.
Repetitions continue until ``--seconds`` have passed, and at least four
run.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (medians over the repetitions); with
``--trace 1`` untraced and traced repetitions alternate and the metrics are
the per-layer ones.  Lines before it give the machine, every repetition and
the output hashes.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "surface_error": "ratio",
    "residual_rel_max": "ratio",
}
MIN_REPS = 4
# Set-up-only repetitions top the set-up samples up to SETUP_SAMPLES within a
# tenth of --seconds.  Only a cheap set-up (imports alone) fits, and that is
# the one whose median needs the extra samples.
SETUP_SAMPLES = 15
SETUP_SHARE = 0.1
BUDGET_S = 150.0  # stop starting repetitions well before the 180 s limit
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def run_rep(args, traced: bool, workdir: Path, timeout: float, setup_only: bool = False) -> dict:
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    env = {**os.environ, **THREAD_ENV}
    load_start = loadavg()
    spawned = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--workdir", str(workdir),
        "--spawned", repr(spawned),
        "--result", str(result),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    rec = json.loads(result.read_text())
    rec["wall_s"] = time.monotonic() - spawned
    if not setup_only:
        rec["loadavg"] = [load_start, loadavg()]
    return rec


def median(recs, key):
    return statistics.median(r[key] for r in recs)


def summarize(recs: list[dict], setups: list[float], trace: bool) -> dict:
    plain = [r for r in recs if not r["traced"]]
    traced = [r for r in recs if r["traced"]]
    # A repetition whose checks failed counts as failed, never as a timing.
    good = [r for r in plain if r["ok"]] or plain
    if not trace:
        values = {name: median(good, name) for name in END_TO_END}
        values["setup_s"] = statistics.median([r["setup_s"] for r in good] + setups)
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    good_traced = [r for r in traced if r["ok"]] or traced
    values = {name: statistics.median(r["layers"][name] for r in good_traced) for name in good_traced[0]["layers"]}
    values["trace.overhead_frac"] = median(good_traced, "run_s") / median(good, "run_s") - 1.0
    values["fail_frac"] = sum(r["failed"] for r in recs) / sum(r["attempted"] for r in recs)
    return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]} for name in LAYER_METRICS}


def main() -> int:
    ap = argparse.ArgumentParser(description="elastoscat benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="keep starting repetitions until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "elastoscat" / "__init__.py").is_file():
        print(f"perfbench: no elastoscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    start = time.monotonic()
    recs: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            traced = bool(args.trace) and len(recs) % 2 == 1
            elapsed = time.monotonic() - start
            rec = run_rep(args, traced, run_dir / f"rep{len(recs)}", timeout=BUDGET_S + 20 - elapsed)
            recs.append(rec)
            elapsed = time.monotonic() - start
            enough = len(recs) >= (2 if args.trace else MIN_REPS)
            if (enough and elapsed >= args.seconds) or elapsed + 1.3 * rec["wall_s"] > BUDGET_S:
                break
        probe_end = time.monotonic() + SETUP_SHARE * args.seconds
        probe_s = min(r["setup_s"] for r in recs)
        while not args.trace and len(recs) + len(setups) < SETUP_SAMPLES and time.monotonic() + probe_s < probe_end:
            probe = run_rep(args, False, run_dir / f"setup{len(setups)}", timeout=probe_end - time.monotonic() + 20, setup_only=True)
            setups.append(probe["setup_s"])
            probe_s = probe["wall_s"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    hashes = {json.dumps(r["hashes"], sort_keys=True) for r in recs}
    notes = [n for r in recs for n in r["notes"]]
    if len(hashes) > 1:
        notes.append("outputs differ between repetitions of one seed")
    correct = not notes
    metrics = summarize(recs, setups, bool(args.trace))

    print("# machine " + json.dumps(recs[0]["machine"], sort_keys=True))
    for i, r in enumerate(recs):
        row = {k: r[k] for k in ("traced", "setup_s", "run_s", "peak_rss_mb", "setup_peak_rss_mb", "surface_error", "residual_rel_max", "attempted", "failed", "loadavg")}
        print(f"# rep {i} " + json.dumps(row))
    if setups:
        print(f"# setup-only {len(setups)} " + json.dumps(setups))
    print("# sha256 " + json.dumps(recs[0]["hashes"], sort_keys=True))
    for n in notes:
        print("# check failed: " + n)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in recs),
                "failed": sum(r["failed"] for r in recs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
