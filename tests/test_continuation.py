"""Frequency continuation on a shape that needs it.

The order-1 ellipsoid of the acceptance criteria is represented exactly at
the first stage, so it cannot show what the paper's continuation buys.
The probe truth here adds order-2 and order-3 content (its order-1 crop is
2.9 % off), which only the later stages can represent.
"""

import numpy as np

from elastoscat import forward as fw, geometry as geo, inverse as inv, modal
from oracles import encode_coeff_index

R = 1.0
PW = fw.IncidentWave("p", (0.0, 1.0, 0.0))
STEPS = 90  # the evaluation budget of both schedules
MARGIN = 0.5  # continuation error at most this share of the single stage's (measured: 0.0456 against 0.1367)


def _probe_truth():
    truth = geo.ellipsoid_coeffs(0.6, 0.75, 0.9, 3)
    for j, n, m, value in ((3, 2, 0, 0.06), (3, 3, 2, 0.06), (3, 3, -2, 0.06), (1, 3, 1, 0.06), (1, 3, -1, -0.06)):
        truth.coeffs[encode_coeff_index(j, False, n, m, 3) - 1] += value
    return truth


def _noisy_bundle(truth, seeds):
    datasets = []
    for omega, seed in zip((1.0, 2.0, 3.0), seeds):
        med = modal.Medium(2.0, 1.0, omega)
        n = modal.default_truncation(med.kappa_s, R) + 4
        opts = fw.SolverOptions(n_trunc=n, residual_tol=2e-2)
        ms = fw.solve_rigid_scattering(truth, PW, med, R, opts).measure(PW, fw.fibonacci_sphere(100, R))
        datasets.append(fw.add_noise(ms, 0.05, seed))
    return datasets


def test_continuation_beats_one_stage_at_the_highest_frequency():
    truth = _probe_truth()
    data = _noisy_bundle(truth, seeds=(101, 102, 103))
    staged = inv.continuation_run(data, inv.FrequencySchedule((1.0, 2.0, 3.0), iterations=STEPS // 3), r0=0.5)
    single = inv.continuation_run(data[2:], inv.FrequencySchedule((3.0,), iterations=STEPS), r0=0.5)
    errors = [inv.surface_error(inv.initial_guess(0.5, 1), truth)]
    errors += [inv.surface_error(s, truth) for s in staged.snapshots]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] <= MARGIN * inv.surface_error(single.surface, truth), (errors, single.surface)
