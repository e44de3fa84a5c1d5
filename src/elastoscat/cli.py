"""Command-line entry points: data synthesis, inversion, verification, Jacobian dump.

All randomness (noise realizations) flows from the single ``--seed`` option
so every subcommand is reproducible; output files round-trip through their
parsers.
"""

from __future__ import annotations

import contextlib
import csv
import glob as globmod
import json
import math
import sys
from dataclasses import asdict, dataclass
from decimal import Decimal
from pathlib import Path

import click
import numpy as np

from . import derivative, forward, geometry, inverse, modal, specfun


@dataclass
class RunConfig:
    """Parsed options of one CLI invocation, written next to the outputs."""

    command: str
    options: dict

    def save(self, path: Path, **outcome) -> None:
        """Write the config; ``outcome`` entries become top-level keys next to it."""
        with open(path, "w") as f:
            json.dump({"schema": 1, **asdict(self), **outcome}, f, indent=2, sort_keys=True)
            f.write("\n")


def _positive(ctx, param, value):
    """Click callback: a positive finite number (``click.FloatRange`` lets NaN through)."""
    if not 0 < value < math.inf:
        raise click.BadParameter(f"must be positive and finite, got {value!r}")
    return value


def _nonnegative(ctx, param, value):
    """Click callback: a nonnegative finite number."""
    if not 0 <= value < math.inf:
        raise click.BadParameter(f"must be nonnegative and finite, got {value!r}")
    return value


def _parse_medium(text: str) -> tuple[float, float]:
    try:
        lam, mu = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise click.BadParameter(f"expected 'lambda,mu', got {text!r}", param_hint="'--medium'") from exc
    if not (0 < mu < math.inf and 0 < lam + mu < math.inf):
        raise click.BadParameter(f"need mu > 0 and lambda + mu > 0, both finite, got {text!r}", param_hint="'--medium'")
    return lam, mu


def _parse_freqs(text: str) -> list[float]:
    is_range = text.count(":") == 2
    try:
        values = [float(x) for x in text.split(":" if is_range else ",")]
    except ValueError as exc:
        raise click.BadParameter(f"expected 'a:b:step' or comma list, got {text!r}", param_hint="'--freqs'") from exc
    if not all(0 < x < math.inf for x in values):
        raise click.BadParameter(
            f"frequencies (and the step) must be positive and finite, got {text!r}", param_hint="'--freqs'"
        )
    if not is_range:
        return values
    # in decimal arithmetic on the text, so that each value is the double nearest the decimal one
    a, b, step = (Decimal(x) for x in text.split(":"))
    if b < a:
        raise click.BadParameter(f"bad frequency range {text!r}", param_hint="'--freqs'")
    return [float(a + i * step) for i in range(int((b - a) / step) + 1)]


_CUBE_FACES = [
    (-1.0, 0.0, 0.0),
    (1.0, 0.0, 0.0),
    (0.0, -1.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, -1.0),
    (0.0, 0.0, 1.0),
]


def _unit_direction(row, source: str, option: str) -> tuple[float, float, float]:
    d = np.asarray(row, dtype=float)
    norm = np.linalg.norm(d)
    if d.shape != (3,) or not 0 < norm < math.inf:
        raise click.BadParameter(
            f"direction {row!r} in {source!r} is not a nonzero finite 3-vector", param_hint=f"'{option}'"
        )
    return tuple(d / norm)


def _parse_direction(text: str, option: str) -> tuple[float, float, float]:
    try:
        row = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise click.BadParameter(f"expected 'x,y,z', got {text!r}", param_hint=f"'{option}'") from exc
    return _unit_direction(row, text, option)


def _parse_directions(text: str) -> list[tuple[float, float, float]]:
    if text == "preset:cube-faces":
        return list(_CUBE_FACES)
    if text.startswith("single:"):
        return [_parse_direction(text[len("single:") :], "--directions")]
    path = Path(text)
    if not path.exists():
        raise click.BadParameter(f"directions file {text!r} does not exist", param_hint="'--directions'")
    try:
        with open(path) as f:
            raw = json.load(f)
        return [_unit_direction(row, text, "--directions") for row in raw]
    except (OSError, ValueError, TypeError) as exc:  # unreadable, not JSON, or not a list of number triples
        raise click.BadParameter(f"bad directions file {text!r}: {exc}", param_hint="'--directions'") from exc


def _parse_surface(text: str) -> geometry.SurfaceParam:
    """The surface named by ``text``; the solve checks that it lies inside Gamma_R."""
    try:
        if text.startswith("sphere:"):
            return geometry.sphere_coeffs(float(text[len("sphere:") :]), 1)
        if text.startswith("ellipsoid:"):
            ax, ay, az = (float(x) for x in text[len("ellipsoid:") :].split(","))
            return geometry.ellipsoid_coeffs(ax, ay, az, 1)
        if Path(text).exists():
            return geometry.SurfaceParam.load(text)
    except (OSError, ValueError) as exc:  # unreadable file, unparsable numbers, JSON or coefficients
        raise click.BadParameter(f"bad surface {text!r}: {exc}", param_hint="'--surface'") from exc
    raise click.BadParameter(f"surface file {text!r} does not exist", param_hint="'--surface'")


@contextlib.contextmanager
def _solve_failures_as_usage_errors():
    """Report a forward solve's rejection of the surface or truncation as a usage error."""
    try:
        yield
    except geometry.GeometryError as exc:
        raise click.BadParameter(str(exc), param_hint="'--surface'") from exc
    except forward.SolverError as exc:
        raise click.BadParameter(str(exc), param_hint="'--n-trunc'") from exc


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


@click.group()
def main() -> None:
    """Forward and inverse elastic-wave obstacle scattering toolkit."""


@main.command()
@click.option("--surface", required=True, help="surface JSON file, 'sphere:R0', or 'ellipsoid:ax,ay,az'")
@click.option("--medium", default="2,1", show_default=True, help="Lame parameters 'lambda,mu'")
@click.option("--radius", default=1.0, show_default=True, callback=_positive, help="measurement sphere radius R")
@click.option("--freqs", default="1:5:1", show_default=True, help="frequencies 'a:b:step' or comma list")
@click.option("--noise", default=0.05, show_default=True, callback=_nonnegative, help="relative noise level delta")
@click.option("--seed", default=7, show_default=True, type=click.IntRange(min=0), help="noise seed")
@click.option("--directions", default="single:0,1,0", show_default=True, help="'single:x,y,z', 'preset:cube-faces', or JSON file")
@click.option(
    "--kpoints",
    default=100,
    show_default=True,
    type=click.IntRange(min=1),
    help="number of measurement points on Gamma_R",
)
@click.option("--wave-kind", default="p", type=click.Choice(["p", "s"]), show_default=True)
@click.option(
    "--n-trunc", default=None, type=click.IntRange(min=0), help="override the data-synthesis truncation order"
)
@click.option("--out", "outdir", required=True, help="output directory")
def synth(surface, medium, radius, freqs, noise, seed, directions, kpoints, wave_kind, n_trunc, outdir):
    """Synthesize measurement files, one per (frequency, direction)."""
    lam, mu = _parse_medium(medium)
    sp = _parse_surface(surface)
    omegas = _parse_freqs(freqs)
    dirs = _parse_directions(directions)
    out = Path(outdir)
    points = forward.fibonacci_sphere(kpoints, radius)
    opts = forward.SolverOptions(n_trunc=n_trunc, residual_tol=2e-2)
    results = []  # (file name, measurements, report) of every solve, written once all have passed
    for iw, omega in enumerate(omegas):
        med = modal.Medium(lam, mu, omega)
        sol = None  # every direction shares this frequency's boundary system
        for jd, d in enumerate(dirs):
            if wave_kind == "p":
                wave = forward.IncidentWave("p", d)
            else:
                helper = (0.0, 0.0, 1.0) if abs(d[2]) < 0.9 else (1.0, 0.0, 0.0)
                pol = np.cross(helper, d)
                pol = pol / np.linalg.norm(pol)
                wave = forward.IncidentWave("s", d, tuple(pol))
            with _solve_failures_as_usage_errors():
                if sol is None:
                    sol = forward.solve_rigid_scattering(sp, wave, med, radius, opts)
                else:
                    sol = sol.resolve_incident(wave)
            ms = sol.measure(wave, points)
            if noise > 0:
                ms = forward.add_noise(ms, noise, seed + 1000 * iw + jd)
            report = f"omega={omega} dir={jd} n_trunc={sol.order} boundary residual={sol.residual_rel:.3e}"
            results.append((f"data_w{iw}_d{jd}.json", ms, report))
    out.mkdir(parents=True, exist_ok=True)
    for name, ms, report in results:
        ms.save(out / name)
        click.echo(f"wrote {out / name}  {report}")
    RunConfig(
        "synth",
        {
            "surface": surface,
            "medium": [lam, mu],
            "radius": radius,
            "freqs": omegas,
            "noise": noise,
            "seed": seed,
            "directions": [list(d) for d in dirs],
            "kpoints": kpoints,
            "wave_kind": wave_kind,
            "n_trunc": n_trunc,
            "files": len(results),
        },
    ).save(out / "synth_config.json")


@main.command()
@click.option("--data", required=True, help="glob or comma list of measurement JSON files")
@click.option("--out", "outdir", required=True, help="output directory")
@click.option(
    "--iterations", default=100, show_default=True, type=click.IntRange(min=0), help="descent iterations per stage L"
)
@click.option("--tau", default=0.005, show_default=True, callback=_positive, help="step coefficient: tau = coeff / k_i")
@click.option("--r0", default=0.5, show_default=True, callback=_positive, help="initial sphere radius")
@click.option("--sum-directions", is_flag=True, help="sum misfits over directions instead of sweeping")
@click.option("--backtracking", is_flag=True, help="reject objective-increasing steps (off: plain fixed step)")
@click.option(
    "--residual-tol",
    default=0.05,
    show_default=True,
    callback=_positive,
    help="forward relative boundary residual tolerance; on noisy data a stage's coarser "
    "truncations solve to min(tol, delta/(2 sqrt 3))",
)
@click.option(
    "--n-trunc", default=None, type=click.IntRange(min=0), help="fixed solver truncation (default: per-stage adaptive)"
)
def invert(data, outdir, iterations, tau, r0, sum_directions, backtracking, residual_tol, n_trunc):
    """Run the frequency-continuation reconstruction on a data bundle."""
    paths = sorted(globmod.glob(data)) if any(ch in data for ch in "*?[") else data.split(",")
    if not paths:
        raise click.ClickException(f"no data files match {data!r}")
    datasets = []
    for p in paths:
        try:
            datasets.append(forward.MeasurementSet.load(p))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:  # missing, not JSON, not schema 1
            raise click.BadParameter(
                f"{p!r} is not a measurement file ({type(exc).__name__}: {exc})", param_hint="'--data'"
            ) from exc
    radius = datasets[0].radius
    lam, mu = datasets[0].med.lam, datasets[0].med.mu
    for ds, p in zip(datasets, paths):
        if abs(ds.radius - radius) > 1e-12 or abs(ds.med.lam - lam) > 1e-12 or abs(ds.med.mu - mu) > 1e-12:
            raise click.ClickException(f"inconsistent data bundle: {p} disagrees on R or medium")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    omegas = tuple(sorted({ds.med.omega for ds in datasets}))
    schedule = inverse.FrequencySchedule(omegas, iterations=iterations, tau_coefficient=tau)
    failed_stage = None
    try:
        state = inverse.continuation_run(
            datasets,
            schedule,
            r0=r0,
            sweep_directions=not sum_directions,
            backtracking=backtracking,
            n_trunc=n_trunc,
            residual_tol=residual_tol,
        )
    except inverse.StageError as exc:
        click.echo(f"stage failed: {exc}; writing partial history", err=True)
        state, failed_stage = exc.state, exc.stage
    for i, snap in enumerate(state.snapshots):
        snap.save(out / f"stage_{i}.json")
    state.surface.save(out / "final_surface.json")
    _write_csv(
        out / "objective_history.csv",
        ["stage", "omega", "sweep", "iteration", "objective", "tau"],
        [[h["stage"], h["omega"], h["sweep"], h["iteration"], h["objective"], h["tau"]] for h in state.history],
    )
    for plane in ("x1", "x2", "x3"):
        cs = geometry.cross_section(state.surface, plane)
        _write_csv(
            out / f"cross_section_{plane}.csv",
            ["plane", "t", "c1", "c2"],
            [[plane, *map(float, row)] for row in cs],
        )
    RunConfig(
        "invert",
        {
            "data": paths,
            "iterations": iterations,
            "tau": tau,
            "r0": r0,
            "sum_directions": sum_directions,
            "backtracking": backtracking,
            "residual_tol": residual_tol,
            "n_trunc": n_trunc,
            "omegas": list(omegas),
        },
    ).save(
        out / "run_config.json",
        status="finished" if failed_stage is None else "stage_failed",
        failed_stage=failed_stage,
        stage_n_trunc=list({h["stage"]: h["n_trunc"] for h in state.history}.values()),  # each stage's final rung
    )
    if state.history:
        click.echo(f"final objective {state.history[-1]['objective']:.6e}; outputs in {out}")
    else:
        click.echo(f"no completed iterations; outputs in {out}")
    if failed_stage is not None:
        sys.exit(1)


def _check_report(lam: float, mu: float, omega: float, radius: float, seed: int) -> dict:
    med = modal.Medium(lam, mu, omega)
    rng = np.random.default_rng(seed)
    report = {"schema": 1, "medium": {"lambda": lam, "mu": mu, "omega": omega, "R": radius}, "checks": {}}

    def add(name, passed, **info):
        report["checks"][name] = {"pass": bool(passed), **info}

    # z_n bounds
    worst = 0.0
    ok = True
    for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
        z = specfun.z_log_derivative_table(60, t)
        n = np.arange(61)
        ok &= bool(
            np.all(z.real <= -1 + 1e-12)
            and np.all(z.real >= -(n + 1) - 1e-12 * (n + 1))
            and np.all(z.imag > 0)
            and np.all(z.imag <= t * (1 + 1e-12))
        )
        worst = max(worst, float(abs(z[0] - complex(-1, t))))
    add("z_bounds", ok, z0_max_err=worst)

    # Mhat positive definiteness scan
    bad = []
    for n in range(201):
        m = modal.dtn_matrix_M(med, radius, n)
        mh = -(m + m.conj().T) / 2
        ev = np.linalg.eigvalsh(mh) if n >= 1 else np.array([mh[2, 2].real])
        if not np.all(ev > 0):
            bad.append(n)
    n0 = (max(bad) + 1) if bad else 0
    add("mhat_definiteness", n0 <= 200, N0=n0, non_pd_orders=bad)

    # round trip and Lambda sign
    max_rt = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 31))
        blk = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if n == 0:
            blk[:2] = 0
        v = modal.DisplacementCoeffs(n, radius=radius)
        v.set_block(n, 0, blk)
        p = modal.displacement_to_potentials(v, med, radius)
        v2 = modal.potentials_to_displacement(p, med, radius)
        max_rt = max(max_rt, float(np.abs(v2.data - v.data).max()))
    lam_tab = modal.lambda_table(med, radius, 60)
    add("roundtrip_vtp_ptv", max_rt < 1e-12 and bool(np.all(lam_tab.imag < 0)), max_err=max_rt)

    # TBC exactness
    p = modal.random_potentials(12, rng)
    b_g = modal.traction_from_potentials(p, med, radius)
    b_m = modal.apply_T(modal.potentials_to_displacement(p, med, radius), med, radius)
    tbc_err = float(np.abs(b_g.data - b_m.data).max() / np.abs(b_g.data).max())
    add("tbc_exactness", tbc_err < 1e-8, rel_err=tbc_err)

    # T1 / T2 sign conditions
    ok1 = ok2 = True
    for _ in range(200):
        order = int(rng.integers(1, 9))
        nm = (order + 1) ** 2
        phi = rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
        q1 = np.vdot(phi, modal.apply_T1(phi, med, radius))
        ok1 &= q1.real <= 1e-12 and q1.imag >= -1e-12
        tang = rng.standard_normal((nm, 2)) + 1j * rng.standard_normal((nm, 2))
        tang[0] = 0
        q2 = np.vdot(tang.ravel(), modal.apply_T2(tang, med, radius).ravel())
        ok2 &= q2.real >= -1e-12
    add("t1_sign", ok1)
    add("t2_sign", ok2)

    report["pass"] = all(c["pass"] for c in report["checks"].values())
    return report


@main.command()
@click.option("--medium", default="2,1", show_default=True)
@click.option("--radius", default=1.0, show_default=True, callback=_positive)
@click.option("--omega", default=2.0, show_default=True, callback=_positive)
@click.option("--seed", default=7, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "outpath", default=None, help="write the JSON report here as well")
def check(medium, radius, omega, seed, outpath):
    """Run the modal/special-function verification suite; exit 1 on failure."""
    lam, mu = _parse_medium(medium)
    report = _check_report(lam, mu, omega, radius, seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    click.echo(text)
    if outpath:
        Path(outpath).write_text(text + "\n")
    if not report["pass"]:
        sys.exit(1)


@main.command(name="jacobian-dump")
@click.option("--surface", required=True)
@click.option("--medium", default="2,1", show_default=True)
@click.option("--radius", default=1.0, show_default=True, callback=_positive)
@click.option("--omega", default=2.0, show_default=True, callback=_positive)
@click.option("--direction", default="0,1,0", show_default=True)
@click.option("--kpoints", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--n-trunc", default=None, type=click.IntRange(min=0))
@click.option("--out", "outpath", required=True)
def jacobian_dump(surface, medium, radius, omega, direction, kpoints, n_trunc, outpath):
    """Dump the shape Jacobian u'_i(x_k) to CSV (long format)."""
    lam, mu = _parse_medium(medium)
    med = modal.Medium(lam, mu, omega)
    sp = _parse_surface(surface)
    wave = forward.IncidentWave("p", _parse_direction(direction, "--direction"))
    opts = forward.SolverOptions(n_trunc=n_trunc, residual_tol=5e-2)
    with _solve_failures_as_usage_errors():
        sol = forward.solve_rigid_scattering(sp, wave, med, radius, opts)
    points = forward.fibonacci_sphere(kpoints, radius)
    jac = derivative.shape_jacobian(sp, sol, wave, points)
    rows = []
    kk, ncoef = jac.matrix.shape[0] // 3, jac.matrix.shape[1]
    for i in range(1, ncoef + 1):
        col = jac.column(i)
        for k in range(kk):
            for c in range(3):
                rows.append([i, k, c, float(col[k, c].real), float(col[k, c].imag)])
    _write_csv(Path(outpath), ["i", "k", "component", "re", "im"], rows)
    click.echo(f"wrote {outpath}: {ncoef} columns x {kk} points")


if __name__ == "__main__":
    main()
