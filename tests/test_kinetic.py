import math

import numpy as np
import pytest

from swarmsphere import (
    Ensemble,
    MeanField,
    SkewMatrix,
    TimeDelayField,
    ball_mass,
    bipolar_report,
    conservation_drift,
    dR2_dt_analytic,
    exact_mean,
    instability_experiment,
    order_parameter,
    order_parameter_series,
    per_omega_conservation,
    sample_uniform,
    sample_vmf,
    simulate,
)


def consensus(d, n):
    return Ensemble(np.tile(np.eye(d + 1)[-1], (n, 1)))


def bipolar(d, n_plus, n_minus):
    e = np.eye(d + 1)[-1]
    return Ensemble(np.vstack([np.tile(e, (n_plus, 1)), np.tile(-e, (n_minus, 1))]))


def test_order_parameter_consensus():
    r2, x_c = order_parameter(consensus(2, 10))
    assert r2 == pytest.approx(1.0)
    np.testing.assert_allclose(x_c, [0.0, 0.0, 1.0])


def test_order_parameter_balanced_bipolar_is_exactly_zero():
    r2, _ = order_parameter(bipolar(2, 5, 5))
    assert r2 == 0.0


def test_order_parameter_fraction_split():
    # fractions q and 1-q at antipodes give R^2 = (2q - 1)^2
    for n_plus, n_minus in [(7, 3), (9, 1), (6, 4)]:
        q = n_plus / (n_plus + n_minus)
        r2, _ = order_parameter(bipolar(2, n_plus, n_minus))
        assert r2 == pytest.approx((2 * q - 1) ** 2, rel=1e-12)


def test_dR2_analytic_vanishes_at_consensus_and_bipolar():
    assert dR2_dt_analytic(consensus(2, 8)) == pytest.approx(0.0, abs=1e-30)
    assert dR2_dt_analytic(bipolar(2, 6, 2)) == pytest.approx(0.0, abs=1e-28)


def test_dR2_analytic_matches_finite_difference():
    ens = sample_vmf([0.0, 0.0, 1.0], 1.0, 256, 5)
    series, _ = order_parameter_series(ens, MeanField(1.0), 0.2, 1e-3, record_every=1)
    fd = (series.R2[2:] - series.R2[:-2]) / (series.times[2:] - series.times[:-2])
    defect = np.max(np.abs(series.dR2_analytic[1:-1] - fd))
    assert defect <= 1e-4


def test_dR2_analytic_free_rotation_term_cancels():
    # the generator contributes 2 <Omega x_c, x_c> = 0, so the analytic value
    # is the same with or without a common rotation
    ens = sample_uniform(2, 64, 7)
    om = SkewMatrix.random(2, 9, 2.0)
    x_c = exact_mean(ens.points)
    assert abs(2.0 * float(om.apply(x_c) @ x_c)) <= 1e-12
    assert dR2_dt_analytic(ens) == dR2_dt_analytic(ens.with_omega(om))


def test_ball_mass_cases():
    ens = consensus(2, 10)
    e = np.eye(3)[-1]
    assert ball_mass(ens, e, 0.1) == 1.0
    assert ball_mass(ens, -e, 0.1) == 0.0
    spread = sample_uniform(2, 200, 11)
    assert ball_mass(spread, e, 1.999) >= 0.99
    with pytest.raises(ValueError):
        ball_mass(ens, e, 2.5)


def test_ball_mass_two_blob_construction():
    e = np.eye(3)[-1]
    blob_plus = sample_vmf(e, 80.0, 300, 13).points
    blob_minus = sample_vmf(-e, 80.0, 100, 17).points
    ens = Ensemble(np.vstack([blob_plus, blob_minus]))
    assert ball_mass(ens, e, 0.5) == pytest.approx(0.75, abs=0.02)
    assert ball_mass(ens, -e, 0.5) == pytest.approx(0.25, abs=0.02)


def test_order_parameter_series_monotone_and_bounds():
    ens = sample_vmf([0.0, 0.0, 1.0], 1.0, 128, 19)
    series, final = order_parameter_series(ens, MeanField(1.0), 5.0, 1e-2, record_every=5)
    assert np.all(np.diff(series.R2) >= -1e-10)
    assert np.all(series.R2 <= 1.0 + 1e-12)
    assert np.all(series.dR2_analytic >= 0.0)
    alive = ~np.isnan(series.gamma[:, 0])
    norms = np.linalg.norm(series.gamma[alive], axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert final.time == pytest.approx(5.0)


@pytest.mark.parametrize("make_field", [lambda: MeanField(1.0), lambda: TimeDelayField(1.0, 0.01)])
def test_order_parameter_series_matches_simulate_snapshots(make_field):
    ens = sample_uniform(2, 40, 5)
    series, final = order_parameter_series(ens, make_field(), 0.5, 1e-2, record_every=3)
    traj = simulate(ens, make_field(), 0.5, 1e-2, record_every=3)
    assert np.array_equal(series.times, traj.times)
    assert np.array_equal(series.R2, [order_parameter(st)[0] for st in traj.states])
    assert np.array_equal(final.points, traj.states[-1].points)


def test_sandwich_inequality_along_run():
    ens = sample_vmf([0.0, 0.0, 1.0], 2.0, 128, 23)
    traj = simulate(ens, MeanField(1.0), 2.0, 1e-2, record_every=20)
    for st in traj.states:
        x_c = exact_mean(st.points)
        gamma = x_c / np.linalg.norm(x_c)
        cosines = st.points @ gamma
        mean_abs = float(np.mean(np.abs(cosines)))
        mean_sq = float(np.mean(cosines**2))
        assert mean_sq - 1e-12 <= mean_abs <= 1.0 + 1e-12


def test_bipolar_report_consensus_and_bounds():
    ens = sample_vmf([0.0, 0.0, 1.0], 5.0, 200, 29)
    traj = simulate(ens, MeanField(1.0), 10.0, 1e-2, record_every=100)
    rep = bipolar_report(traj, 0.5)
    assert rep.mass_plus[-1] >= 0.99
    assert rep.R_infinity_estimate <= 1.0 + 1e-12
    assert rep.R_infinity_estimate >= rep.R_series[0] - 1e-12


def test_bipolar_report_gamma_undefined():
    traj = simulate(bipolar(2, 4, 4), MeanField(1.0), 0.05, 1e-2)
    with pytest.raises(ValueError, match="undefined"):
        bipolar_report(traj, 0.5)


def test_instability_experiment_small_scale():
    rep = instability_experiment(N=200, d=2, kappa=1.0, delta=1e-3, seed=3,
                                 t_end=40.0, dt=1e-2, record_every=50)
    assert rep.R_max_symmetric <= 1e-6
    assert rep.R_initial_perturbed > 0.0
    assert rep.R_end_perturbed >= 0.99
    assert rep.mixed_tuple_max >= 1e3
    assert rep.control_max_drift <= 1e-6


def test_instability_experiment_validation():
    with pytest.raises(ValueError):
        instability_experiment(N=2, d=2, kappa=1.0, delta=1e-3, seed=1)
    with pytest.raises(ValueError, match="even"):
        instability_experiment(N=5, d=2, kappa=1.0, delta=1e-3, seed=1)


def two_group_trajectory(t_end=3.0, dt=1e-3, record_every=10, n_per=24):
    om_a = SkewMatrix.zero(2)
    om_b = SkewMatrix.planar(2, 1.0)
    pts = sample_uniform(2, 2 * n_per, 31).points
    ens = Ensemble(pts, (om_a,) * n_per + (om_b,) * n_per)
    return simulate(ens, MeanField(1.0), t_end, dt, record_every)


def test_per_omega_conservation_two_groups():
    traj = two_group_trajectory()
    rep = per_omega_conservation(traj, 0.3, 2, 40, seed=5)
    assert len(rep.groups) == 2
    for _, size, drift in rep.groups:
        assert size == 24
        assert drift.per_tuple_max_drift <= 1e-6
    assert rep.mixed_drift.per_tuple_max_drift >= 1e-2
    np.testing.assert_allclose(rep.fractions, [0.5, 0.5])
    assert rep.fractions_constant


def test_per_omega_single_group_reduces_to_conservation_drift():
    om = SkewMatrix.random(2, 37, 1.0)
    ens = sample_uniform(2, 24, 41).with_omega(om)
    traj = simulate(ens, MeanField(1.0), 1.0, 1e-3, record_every=20)
    rep = per_omega_conservation(traj, 0.3, 2, 30, seed=7)
    assert len(rep.groups) == 1
    assert rep.mixed_drift is None
    assert rep.groups[0][2].max_relative_drift <= 1e-6
    plain = conservation_drift(traj, 0.3, 2, 30, seed=7)
    assert plain.max_relative_drift <= 1e-6


def test_per_omega_small_group_skipped():
    om_a = SkewMatrix.zero(2)
    om_b = SkewMatrix.planar(2, 1.0)
    pts = sample_uniform(2, 20, 43).points
    ens = Ensemble(pts, (om_a,) * 17 + (om_b,) * 3)  # 3 < 2k for k = 2
    traj = simulate(ens, MeanField(1.0), 0.2, 1e-3, record_every=20)
    rep = per_omega_conservation(traj, 0.3, 2, 10, seed=9)
    assert rep.skipped == [(1, 3)]
    assert len(rep.groups) == 1
