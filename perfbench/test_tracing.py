"""Tests of the benchmark's trace helpers.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from tracing import (  # noqa: E402
    Tracer,
    install,
    layer_metrics,
    rejected_steps,
    repeat_fraction,
    self_times,
    system_key,
    tail_percentile,
    union_length,
)


@pytest.fixture
def traced():
    import elastoscat.cli  # noqa: F401  (load every module before installing)

    tracer = Tracer()
    inst = install(tracer)
    yield tracer
    inst.uninstall()


def test_wrapper_is_installed_on_every_binding(traced):
    import elastoscat
    from elastoscat import derivative, forward, geometry, inverse, wavefields

    assert derivative.solve_rigid_scattering is forward.solve_rigid_scattering
    assert inverse.objective_and_gradient is derivative.objective_and_gradient
    assert inverse.objective_and_gradient.__wrapped__.__module__ == "elastoscat.derivative"
    for mod in (geometry, forward, inverse, elastoscat):
        assert mod.sample_boundary.__wrapped__ is geometry.sample_boundary.__wrapped__
    assert wavefields.WaveBasis.matrix.__wrapped__ is not None
    assert wavefields.WaveBasis.__init__.__wrapped__ is not None
    assert elastoscat.cli._write_csv.__wrapped__ is not None
    assert forward.MeasurementSet.load.__func__.__wrapped__ is not None


def test_calls_through_any_binding_are_recorded(traced):
    from elastoscat import derivative, forward, geometry, modal

    sp = geometry.sphere_coeffs(0.5, 1)
    med = modal.Medium(2.0, 1.0, 1.0)
    opts = forward.SolverOptions(n_trunc=3, quad_order=7, residual_tol=1e-2)
    wave = forward.IncidentWave("p", (0.0, 0.0, 1.0))
    traced.spans.clear()
    derivative.solve_rigid_scattering(sp, wave, med, 1.0, opts)
    names = [s[0] for s in traced.spans]
    assert names[0] == "forward.solve_rigid_scattering"
    assert "forward.solve_exterior_dirichlet" in names
    assert "wavefields.WaveBasis.init" in names and "wavefields.WaveBasis.matrix" in names
    solve = traced.spans[names.index("forward.solve_exterior_dirichlet")]
    assert traced.spans[solve[3]][0] == "forward.solve_rigid_scattering"
    assert solve[4]["rows"] > solve[4]["cols"] == 3 * 16 - 2


def test_uninstall_restores_every_binding():
    import elastoscat.cli
    from elastoscat import derivative, forward, wavefields

    def bindings():
        return (
            derivative.solve_rigid_scattering,
            forward.solve_rigid_scattering,
            wavefields.WaveBasis.__dict__["matrix"],
            wavefields.WaveBasis.__dict__["__init__"],
            elastoscat.cli._write_csv,
        )

    before = bindings()
    callback = elastoscat.cli.invert.callback
    inst = install(Tracer())
    assert derivative.solve_rigid_scattering is not before[0]
    assert elastoscat.cli.invert.callback is not callback
    inst.uninstall()
    assert all(a is b for a, b in zip(before, bindings()))
    assert elastoscat.cli.invert.callback is callback


def test_exceptions_close_the_span_and_are_recorded():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracing.wrap(tracer, "m.boom", boom)()
    assert tracer.spans[0][2] is not None and tracer.spans[0][4]["error"] == "ValueError"
    assert tracer._stack == []


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 6.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_is_span_minus_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, {}],
        ["a", 1.0, 4.0, 0, {}],
        ["b", 3.0, 6.0, 0, {}],  # overlaps a
        ["c", 8.0, 12.0, 0, {}],  # runs past the parent: only 8..10 counts
        ["a.child", 2.0, 3.0, 1, {}],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_nested_calls_get_parent_links():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracing.wrap(tracer, "m.inner", lambda: None)
    outer = tracing.wrap(tracer, "m.outer", lambda: (inner(), inner()))
    outer()
    assert [(s[0], s[3]) for s in tracer.spans] == [("m.outer", -1), ("m.inner", 0), ("m.inner", 0)]
    assert self_times(tracer.spans) == pytest.approx([3.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "n, p",
    [(0, 50), (19, 50), (20, 50), (21, 52), (100, 90), (200, 95), (1000, 99), (5000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    if n >= 20:
        assert n - int(np.ceil(p * n / 100)) >= 10


def test_repeat_fraction_counts_earlier_keys():
    assert repeat_fraction([]) == 0.0
    assert repeat_fraction(["a", "b", "c"]) == 0.0
    assert repeat_fraction(["a", "a", "b", "a"]) == 0.5


def test_system_key_covers_what_the_matrix_depends_on():
    from elastoscat import forward, geometry, modal

    sp = geometry.ellipsoid_coeffs(0.6, 0.75, 0.9, 1)
    med = modal.Medium(2.0, 1.0, 3.0)
    opts = forward.SolverOptions(n_trunc=8, quad_order=12)
    key = system_key(sp, med, 1.0, opts)
    assert system_key(sp.copy(), modal.Medium(2.0, 1.0, 3.0), 1.0, forward.SolverOptions(n_trunc=8, quad_order=12)) == key
    # the residual tolerance does not change the system
    assert system_key(sp, med, 1.0, forward.SolverOptions(n_trunc=8, quad_order=12, residual_tol=0.5)) == key
    # defaults are keyed by their resolved values
    resolved = forward.SolverOptions().resolve(med, 1.0)
    assert system_key(sp, med, 1.0, forward.SolverOptions()) == system_key(sp, med, 1.0, resolved)
    moved = sp.copy()
    moved.coeffs = moved.coeffs + 1e-9
    for other in (
        system_key(moved, med, 1.0, opts),
        system_key(sp.resized(2), med, 1.0, opts),
        system_key(sp, modal.Medium(2.0, 1.0, 2.0), 1.0, opts),
        system_key(sp, modal.Medium(2.5, 1.0, 3.0), 1.0, opts),
        system_key(sp, med, 1.1, opts),
        system_key(sp, med, 1.0, forward.SolverOptions(n_trunc=9, quad_order=12)),
        system_key(sp, med, 1.0, forward.SolverOptions(n_trunc=8, quad_order=13)),
    ):
        assert other != key


def _rows(*stages):
    rows = []
    for s, taus in enumerate(stages):
        rows.append({"stage": s, "iteration": 0, "tau": taus[0]})
        rows += [{"stage": s, "iteration": i, "tau": t} for i, t in enumerate(taus[1:], 1)]
    return rows


def test_rejected_steps_from_the_tau_column():
    rows = _rows([0.005, 0.005, 0.0025, 0.00125], [0.0025, 0.0025, 0.0025])
    assert rejected_steps(rows, expected_rows=7) == (5, 3)
    # a stage that gave up leaves fewer rows and counts once more
    assert rejected_steps(rows[:5], expected_rows=7) == (3, 4)
    assert rejected_steps([], expected_rows=7) == (0, 1)


def test_rejected_steps_reads_csv_strings():
    rows = [{"iteration": "0", "tau": "0.005"}, {"iteration": "1", "tau": repr(0.005 / 8)}]
    assert rejected_steps(rows, expected_rows=2) == (1, 3)


def test_layer_metrics_eval_cache_and_repeats():
    key_a, key_b = ("a",), ("b",)
    spans = [
        ["cli.invert", 0.0, 10.0, -1, {}],
        ["derivative.objective_and_gradient", 1.0, 4.0, 0, {"grad_datasets": 3}],
        ["forward.solve_exterior_dirichlet", 1.0, 2.0, 1, {"key": key_a, "rows": 30, "cols": 10, "residual_rel": 1e-3, "rank_deficient": False}],
        ["forward.solve_exterior_dirichlet", 2.0, 3.0, 1, {"key": key_a, "rows": 30, "cols": 10, "residual_rel": 2e-3, "rank_deficient": True}],
        ["derivative.measurement_basis", 3.0, 3.5, 1, {}],
        ["forward.solve_exterior_dirichlet", 5.0, 6.0, 0, {"key": key_b, "error": "SolverError"}],
        ["inverse.descent_stage", 6.0, 9.0, 0, {"stage": 1}],
    ]
    m = layer_metrics(spans, run_s=10.0)
    assert m["forward.solve_exterior_dirichlet.calls"] == 3
    assert m["forward.solve_exterior_dirichlet.repeat_frac"] == pytest.approx(1 / 3)
    assert m["forward.solve_exterior_dirichlet.failed"] == 1
    assert m["forward.solve_exterior_dirichlet.rank_deficient"] == 1
    assert m["forward.solve_exterior_dirichlet.residual_rel_max"] == 2e-3
    assert m["derivative.eval_cache.lookups"] == 3
    assert m["derivative.eval_cache.hit_ratio"] == pytest.approx(2 / 3)
    assert m["inverse.stage1.s"] == 3.0 and m["inverse.stage0.s"] == 0.0
    assert m["derivative.objective_and_gradient.self_s"] == pytest.approx(0.5)
    assert m["trace.self_sum_frac"] == pytest.approx(1.0)


def test_benchmark_json_names_match_the_code():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.LAYER_METRICS.items()
    ]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
