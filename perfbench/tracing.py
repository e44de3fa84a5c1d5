"""Span tracing of the elastoscat layers, installed from outside the package.

``install`` wraps every public function and public method of the traced
modules.  A function is replaced under every name any ``elastoscat`` module
binds it to (``derivative`` imports ``solve_rigid_scattering`` by name, for
example); methods are replaced on their class.  Click commands of ``cli``
are traced through their callbacks, and ``WaveBasis.__init__`` and
``cli._write_csv`` are traced too.  Each call appends one span
``[name, start, end, parent, info]`` to an in-memory list; ``layer_metrics``
turns the spans into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

TRACED_MODULES = ("specfun", "geometry", "wavefields", "forward", "derivative", "inverse", "cli")

IO_SPANS = frozenset(
    {
        "forward.MeasurementSet.load",
        "forward.MeasurementSet.save",
        "forward.MeasurementSet.from_json_dict",
        "forward.MeasurementSet.to_json_dict",
        "forward.IncidentWave.from_json_dict",
        "forward.IncidentWave.to_json_dict",
        "geometry.SurfaceParam.load",
        "geometry.SurfaceParam.save",
        "geometry.SurfaceParam.from_json_dict",
        "geometry.SurfaceParam.to_json_dict",
        "cli.RunConfig.save",
        "cli._write_csv",
    }
)
MAX_STAGES = 3


class Tracer:
    """Single-threaded span recorder: a list of spans and a stack of open ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.paused = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()


# ---------------------------------------------------------------------------
# Per-call facts recorded into a span's info dict
# ---------------------------------------------------------------------------


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def system_key(sp, med, radius, options) -> tuple:
    """Everything the boundary system matrix of one solve depends on."""
    opts = options.resolve(med, radius)
    return (
        sp.order,
        sp.coeffs.tobytes(),
        float(med.lam),
        float(med.mu),
        float(med.omega),
        float(radius),
        int(opts.n_trunc),
        int(opts.quad_order),
    )


def svd_flop_estimate(m: int, n: int) -> float:
    """Textbook R-SVD count for U1, S, V of an m x n matrix (m >= n),
    6 m n^2 + 20 n^3 real flops, times 4 for complex arithmetic."""
    m, n = max(m, n), min(m, n)
    return 4.0 * (6.0 * m * n * n + 20.0 * n**3)


def _info_solve(fn, args, kwargs, result, info):
    a = _bound(fn, args, kwargs)
    info["key"] = system_key(a["sp"], a["med"], a["radius"], a["options"])
    if result is not None:
        rows, cols = 3 * result.sample.npts, result.basis.ncols
        info.update(rows=rows, cols=cols, residual_rel=result.residual_rel, rank_deficient=result.rank < min(rows, cols))


def _info_matrix(fn, args, kwargs, result, info):
    basis = args[0]
    info["entries"] = 3 * basis.npts * basis.ncols


def _info_solve_rhs(fn, args, kwargs, result, info):
    data = _bound(fn, args, kwargs)["data_values"]
    info["rhs_cols"] = 1 if data.ndim == 2 else int(data.shape[2])


def _info_objective(fn, args, kwargs, result, info):
    a = _bound(fn, args, kwargs)
    if a["with_gradient"] and result is not None:
        info["grad_datasets"] = len(a["datasets"])


def _info_stage(fn, args, kwargs, result, info):
    info["stage"] = int(_bound(fn, args, kwargs)["stage"])


INFO_HOOKS = {
    "forward.solve_exterior_dirichlet": _info_solve,
    "wavefields.WaveBasis.matrix": _info_matrix,
    "forward.ScatteredSolution.solve_rhs": _info_solve_rhs,
    "derivative.objective_and_gradient": _info_objective,
    "inverse.descent_stage": _info_stage,
}


def wrap(tracer: Tracer, name: str, fn):
    """A wrapper that records one span per call of ``fn``."""
    hook = INFO_HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.spans[idx][4]["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(idx)
            if hook is not None:
                # Hooks may call traced code (SolverOptions.resolve); keep it out of the trace.
                tracer.paused = True
                try:
                    hook(fn, args, kwargs, result, tracer.spans[idx][4])
                finally:
                    tracer.paused = False
        return result

    return traced


# ---------------------------------------------------------------------------
# Installation on every binding
# ---------------------------------------------------------------------------


def _defined_here(module, attr, obj) -> bool:
    return not attr.startswith("_") and getattr(obj, "__module__", None) == module.__name__


def _public_functions(module):
    """(name, object) for the functions ``module`` defines, lru-cached ones included."""
    for attr, obj in vars(module).items():
        if _defined_here(module, attr, obj) and (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
            yield attr, obj


def _public_classes(module):
    for attr, obj in vars(module).items():
        if _defined_here(module, attr, obj) and isinstance(obj, type) and not issubclass(obj, BaseException):
            yield attr, obj


class Installation:
    """Record of every replaced binding, so ``uninstall`` restores them."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object]] = []

    def replace(self, owner, attr, new):
        self.bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self.bindings):
            setattr(owner, attr, old)
        self.bindings.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap the public callables of the traced elastoscat modules."""
    import click

    inst = Installation()
    originals: dict[int, tuple[object, object]] = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"elastoscat.{short}")
        for attr, fn in _public_functions(mod):
            originals[id(fn)] = (fn, wrap(tracer, f"{short}.{attr}", fn))
        for cls_name, cls in _public_classes(mod):
            _install_methods(tracer, inst, f"{short}.{cls_name}", cls)
        for attr, obj in vars(mod).items():
            if isinstance(obj, click.Command) and not isinstance(obj, click.Group) and obj.callback is not None:
                inst.replace(obj, "callback", wrap(tracer, f"{short}.{obj.name.replace('-', '_')}", obj.callback))
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "elastoscat" or name.startswith("elastoscat.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                inst.replace(mod, attr, hit[1])
    # Two private callables that do real work: the basis constructor and the CSV writer.
    from elastoscat import cli, wavefields

    init = vars(wavefields.WaveBasis)["__init__"]
    inst.replace(wavefields.WaveBasis, "__init__", wrap(tracer, "wavefields.WaveBasis.init", init))
    inst.replace(cli, "_write_csv", wrap(tracer, "cli._write_csv", cli._write_csv))
    return inst


def _install_methods(tracer, inst, prefix, cls):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(raw, classmethod):
            inst.replace(cls, attr, classmethod(wrap(tracer, name, raw.__func__)))
        elif isinstance(raw, staticmethod):
            inst.replace(cls, attr, staticmethod(wrap(tracer, name, raw.__func__)))
        elif inspect.isfunction(raw):
            inst.replace(cls, attr, wrap(tracer, name, raw))


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, s, e, parent, _ in spans:
        if parent >= 0:
            ps, pe = spans[parent][1], spans[parent][2]
            children[parent].append((max(s, ps), min(e, pe)))
    return [(e - s) - union_length(children[i]) for i, (_, s, e, _, _) in enumerate(spans)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile p >= 50 with at least 10 of ``n`` samples
    above it; 50 when there are too few samples for any tail."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def repeat_fraction(keys) -> float:
    """Share of keys that already occurred earlier in the sequence."""
    seen = set()
    repeats = 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / len(keys) if keys else 0.0


def rejected_steps(rows, expected_rows: int) -> tuple[int, int]:
    """(accepted, rejected) trial steps from ``objective_history.csv`` rows.

    Each accepted step halved its stage's step ``log2(tau_stage / tau_row)``
    times; a stage's tau is its iteration-0 row.  Fewer rows than expected
    means a stage gave up, which counts as one more rejection.
    """
    accepted = rejected = 0
    tau_stage = None
    for row in rows:
        tau = float(row["tau"])
        if int(row["iteration"]) == 0:
            tau_stage = tau
            continue
        accepted += 1
        rejected += round(math.log2(tau_stage / tau))
    failed_stage = 1 if len(rows) < expected_rows else 0
    return accepted, rejected + failed_stage


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {}


def _m(name, unit, better):
    LAYER_METRICS[name] = (unit, better)


for _f in ("specfun.sph_harmonic_tables", "specfun.spherical_h1_table", "geometry.sample_boundary"):
    _m(f"{_f}.calls", "count", "lower")
    _m(f"{_f}.self_s", "s", "lower")
_m("geometry.perturbation_q_table.self_s", "s", "lower")
_m("geometry.radial_function.self_s", "s", "lower")
for _f in ("init", "matrix", "deriv_along"):
    _m(f"wavefields.WaveBasis.{_f}.calls", "count", "lower")
    _m(f"wavefields.WaveBasis.{_f}.self_s", "s", "lower")
_m("wavefields.WaveBasis.matrix.entries_computed", "count", "lower")
_S = "forward.solve_exterior_dirichlet"
_m(f"{_S}.calls", "count", "lower")
_m(f"{_S}.self_s", "s", "lower")
_m(f"{_S}.rows_max", "count", "lower")
_m(f"{_S}.cols_max", "count", "lower")
_m(f"{_S}.flop_computed", "flop", "lower")
_m(f"{_S}.repeat_frac", "ratio", "lower")
_m(f"{_S}.residual_rel_max", "ratio", "lower")
_m(f"{_S}.rank_deficient", "count", "lower")
_m(f"{_S}.failed", "count", "lower")
_m("forward.ScatteredSolution.solve_rhs.calls", "count", "lower")
_m("forward.ScatteredSolution.solve_rhs.rhs_cols", "count", "lower")
_m("forward.ScatteredSolution.solve_rhs.self_s", "s", "lower")
_m("forward.ScatteredSolution.evaluate.calls", "count", "lower")
_m("forward.ScatteredSolution.evaluate.self_s", "s", "lower")
_O = "derivative.objective_and_gradient"
_m(f"{_O}.calls", "count", "lower")
_m(f"{_O}.p50_ms", "ms", "lower")
_m(f"{_O}.tail_ms", "ms", "lower")
_m(f"{_O}.tail_pct", "percent", "higher")
_m(f"{_O}.self_s", "s", "lower")
_m("derivative.shape_jacobian.self_s", "s", "lower")
_m("derivative.normal_derivative_total_field.self_s", "s", "lower")
_m("derivative.eval_cache.hit_ratio", "ratio", "higher")
_m("derivative.eval_cache.lookups", "count", "lower")
for _i in range(MAX_STAGES):
    _m(f"inverse.stage{_i}.s", "s", "lower")
_m("inverse.steps_accepted", "count", "higher")
_m("inverse.steps_rejected", "count", "lower")
_m("inverse.accept_ratio", "ratio", "higher")
_m("cli.io.self_s", "s", "lower")
_m("cli.cross_section.self_s", "s", "lower")
_m("cli.self_s", "s", "lower")
_m("trace.spans", "count", "lower")
_m("trace.self_sum_frac", "ratio", "higher")
_m("trace.overhead_frac", "ratio", "lower")
_m("fail_frac", "ratio", "lower")


def layer_metrics(spans, run_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced command (everything except
    ``trace.overhead_frac``, ``fail_frac`` and the step counts, which need
    the untraced runs and the output files)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(names):
        if isinstance(names, str):
            names = (names,)
        return sum(selfs[i] for n in names for i in by_name.get(n, ()))

    def infos(name):
        return [spans[i][4] for i in by_name.get(name, ())]

    out: dict[str, float] = {}
    for f in ("specfun.sph_harmonic_tables", "specfun.spherical_h1_table", "geometry.sample_boundary"):
        out[f"{f}.calls"] = calls(f)
        out[f"{f}.self_s"] = self_s(f)
    out["geometry.perturbation_q_table.self_s"] = self_s("geometry.perturbation_q_table")
    out["geometry.radial_function.self_s"] = self_s("geometry.radial_function")
    for f in ("init", "matrix", "deriv_along"):
        out[f"wavefields.WaveBasis.{f}.calls"] = calls(f"wavefields.WaveBasis.{f}")
        out[f"wavefields.WaveBasis.{f}.self_s"] = self_s(f"wavefields.WaveBasis.{f}")
    out["wavefields.WaveBasis.matrix.entries_computed"] = sum(i["entries"] for i in infos("wavefields.WaveBasis.matrix"))

    solves = infos(_S)
    done = [i for i in solves if "rows" in i]
    out[f"{_S}.calls"] = len(solves)
    out[f"{_S}.self_s"] = self_s(_S)
    out[f"{_S}.rows_max"] = max((i["rows"] for i in done), default=0)
    out[f"{_S}.cols_max"] = max((i["cols"] for i in done), default=0)
    out[f"{_S}.flop_computed"] = sum(svd_flop_estimate(i["rows"], i["cols"]) for i in done)
    out[f"{_S}.repeat_frac"] = repeat_fraction([i["key"] for i in solves])
    out[f"{_S}.residual_rel_max"] = max((i["residual_rel"] for i in done), default=0.0)
    out[f"{_S}.rank_deficient"] = sum(bool(i["rank_deficient"]) for i in done)
    out[f"{_S}.failed"] = sum("error" in i for i in solves)

    rhs = "forward.ScatteredSolution.solve_rhs"
    out[f"{rhs}.calls"] = calls(rhs)
    out[f"{rhs}.rhs_cols"] = sum(i["rhs_cols"] for i in infos(rhs))
    out[f"{rhs}.self_s"] = self_s(rhs)
    ev = "forward.ScatteredSolution.evaluate"
    out[f"{ev}.calls"] = calls(ev)
    out[f"{ev}.self_s"] = self_s(ev)

    durations_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in by_name.get(_O, ())]
    pct = tail_percentile(len(durations_ms))
    out[f"{_O}.calls"] = len(durations_ms)
    out[f"{_O}.p50_ms"] = percentile(durations_ms, 50) if durations_ms else 0.0
    out[f"{_O}.tail_ms"] = percentile(durations_ms, pct) if durations_ms else 0.0
    out[f"{_O}.tail_pct"] = pct
    out[f"{_O}.self_s"] = self_s(_O)
    out["derivative.shape_jacobian.self_s"] = self_s("derivative.shape_jacobian")
    out["derivative.normal_derivative_total_field.self_s"] = self_s("derivative.normal_derivative_total_field")
    lookups = sum(i.get("grad_datasets", 0) for i in infos(_O))
    out["derivative.eval_cache.hit_ratio"] = 1.0 - calls("derivative.measurement_basis") / lookups if lookups else 0.0
    out["derivative.eval_cache.lookups"] = lookups

    stage_s = [0.0] * MAX_STAGES
    for i in by_name.get("inverse.descent_stage", ()):
        stage_s[spans[i][4]["stage"]] += spans[i][2] - spans[i][1]
    for k, v in enumerate(stage_s):
        out[f"inverse.stage{k}.s"] = v

    out["cli.io.self_s"] = self_s(IO_SPANS)
    out["cli.cross_section.self_s"] = self_s("geometry.cross_section")
    out["cli.self_s"] = self_s(("cli.synth", "cli.invert"))
    out["trace.spans"] = len(spans)
    out["trace.self_sum_frac"] = sum(selfs) / run_s if run_s > 0 else 0.0
    return out
