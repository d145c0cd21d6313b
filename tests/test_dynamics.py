import math

import numpy as np
import pytest

from swarmsphere import (
    Ensemble,
    MeanField,
    PrescribedField,
    ReplayField,
    SkewMatrix,
    TimeDelayField,
    WinfreeField,
    collision_residual,
    eval_field,
    rng_stream,
    sample_uniform,
    simulate,
    step,
    velocity,
)


def consensus_ensemble(d, n, axis=-1):
    pts = np.tile(np.eye(d + 1)[axis], (n, 1))
    return Ensemble(pts)


def test_mean_field_of_identical_points():
    ens = consensus_ensemble(2, 5)
    x = eval_field(MeanField(1.0), ens, 0.0)
    np.testing.assert_allclose(x, [0.0, 0.0, 1.0], atol=1e-15)


def test_mean_field_antipodal_cancellation():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    x = eval_field(MeanField(3.0), Ensemble(pts), 0.0)
    assert np.all(x == 0.0)


def test_winfree_constant_influence_gives_pole():
    pole = np.array([0.0, 0.0, 1.0])
    field = WinfreeField(1.0, pole, influence=lambda pts: np.ones(pts.shape[0]))
    ens = sample_uniform(2, 17, 3)
    np.testing.assert_allclose(eval_field(field, ens, 0.0), pole, atol=1e-15)


def test_winfree_default_influence_is_affine_in_pole_alignment():
    pole = np.array([0.0, 0.0, 1.0])
    ens = sample_uniform(2, 50, 13)
    got = eval_field(WinfreeField(2.0, pole), ens, 0.0)
    expected = 2.0 * (1.0 + float(np.mean(ens.points @ pole))) * pole
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_winfree_default_influence_mean_is_exact():
    pole = np.array([0.0, 0.0, 1.0])
    for n in (50, 1000):
        ens = sample_uniform(2, n, 13)
        got = eval_field(WinfreeField(2.0, pole), ens, 0.0)
        vals = (1.0 + ens.points @ pole).tolist()
        assert got.tobytes() == (2.0 * (math.fsum(vals) / n) * pole).tobytes()


def test_frustrated_field_applies_matrix_to_mean():
    from swarmsphere import FrustratedField

    v = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    ens = sample_uniform(2, 40, 15)
    got = eval_field(FrustratedField(1.5, v), ens, 0.0)
    np.testing.assert_allclose(got, 1.5 * v @ ens.points.mean(axis=0), atol=1e-13)
    # identity frustration reduces to the plain mean field
    plain = eval_field(MeanField(1.5), ens, 0.0)
    np.testing.assert_allclose(eval_field(FrustratedField(1.5, np.eye(3)), ens, 0.0),
                               plain, atol=1e-15)


def test_velocity_trivial_cases():
    om = SkewMatrix.planar(1, 1.0)
    x = np.array([1.0, 0.0])
    np.testing.assert_allclose(velocity(x, om, np.zeros(2)), [0.0, 1.0], atol=1e-15)
    # aligned with the field and no rotation: equilibrium
    xf = np.array([0.0, 2.0])
    np.testing.assert_allclose(velocity(np.array([0.0, 1.0]), None, xf), 0.0, atol=1e-15)


def test_velocity_hand_case_d1():
    om = SkewMatrix.from_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    out = velocity(np.array([1.0, 0.0]), om, np.array([0.0, 0.5]))
    np.testing.assert_allclose(out, [0.0, 1.5], atol=1e-15)


def test_velocity_tangency_random():
    rng = rng_stream(8)
    om = SkewMatrix.random(3, 4, 1.0)
    for _ in range(100):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        xf = rng.standard_normal(4)
        assert abs(x @ velocity(x, om, xf)) <= 1e-12


def test_step_is_fixed_point_without_forcing():
    ens = sample_uniform(2, 12, 5)
    out = step(ens, PrescribedField(lambda t: np.zeros(3)), 1e-2)
    assert np.max(np.abs(out.points - ens.points)) <= 1e-15
    assert out.time == pytest.approx(1e-2)


def test_step_matches_planar_rotation_oracle():
    # closed form: x(t) = exp(t Omega) x0 for X = 0
    om = SkewMatrix.planar(1, 1.0)
    ens = Ensemble(np.array([[1.0, 0.0]]), om)
    field = PrescribedField(lambda t: np.zeros(2))
    for _ in range(1000):
        ens = step(ens, field, 1e-3)
    angle = 1000 * 1e-3
    oracle = np.array([math.cos(angle), math.sin(angle)])
    assert np.linalg.norm(ens.points[0] - oracle) <= 1e-10


def test_step_outputs_exactly_unit():
    om = SkewMatrix.random(2, 6, 1.0)
    ens = sample_uniform(2, 20, 7).with_omega(om)
    out = step(ens, MeanField(1.0), 1e-2)
    norms = np.linalg.norm(out.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-15


def test_simulate_zero_horizon_single_snapshot():
    ens = sample_uniform(2, 4, 1)
    traj = simulate(ens, MeanField(1.0), 0.0, 1e-3)
    assert len(traj.states) == 1 and traj.times[0] == 0.0


def test_simulate_snapshot_count():
    ens = sample_uniform(2, 4, 1)
    traj = simulate(ens, MeanField(1.0), 1.0, 1e-2, record_every=20)
    assert len(traj.states) == 100 // 20 + 1


def test_simulate_rk4_self_convergence():
    # Richardson: halving dt shrinks the final-state defect by ~2^4
    om = SkewMatrix.random(2, 11, 1.0)
    ens = sample_uniform(2, 16, 19).with_omega(om)

    def final(dt):
        return simulate(ens, MeanField(1.0), 1.0, dt, record_every=10**9).states[-1].points

    e1 = np.max(np.abs(final(4e-3) - final(2e-3)))
    e2 = np.max(np.abs(final(2e-3) - final(1e-3)))
    ratio = e1 / e2
    assert 16 / 1.3 <= ratio <= 16 * 1.3


def test_common_rotation_isometry():
    om = SkewMatrix.random(2, 14, 1.0)
    ens = sample_uniform(2, 8, 23).with_omega(om)
    traj = simulate(ens, PrescribedField(lambda t: np.zeros(3)), 10.0, 1e-3, record_every=1000)
    d0 = np.linalg.norm(ens.points[:, None] - ens.points[None, :], axis=2)
    for st in traj.states:
        d = np.linalg.norm(st.points[:, None] - st.points[None, :], axis=2)
        assert np.max(np.abs(d - d0)) <= 1e-10


def test_collision_residual_pure_rotation():
    om = SkewMatrix.random(2, 31, 1.0)
    ens = sample_uniform(2, 6, 37).with_omega(om)
    traj = simulate(ens, PrescribedField(lambda t: np.zeros(3)), 2.0, 1e-3, record_every=10)
    assert collision_residual(traj, 0, 3) <= 1e-10


def test_collision_residual_swarm_run():
    om = SkewMatrix.random(2, 41, 1.0)
    ens = sample_uniform(2, 16, 43).with_omega(om)
    traj = simulate(ens, MeanField(1.0), 5.0, 1e-3, record_every=1)
    assert collision_residual(traj, 2, 9) <= 1e-6
    # distinct initial points stay distinct on any finite recorded run
    for st in traj.states[:: len(traj.states) // 10]:
        gram = st.points @ st.points.T
        np.fill_diagonal(gram, -1.0)
        assert np.sqrt(max(0.0, 2.0 - 2.0 * gram.max())) > 0.0


def test_collision_residual_errors():
    ens = sample_uniform(2, 4, 2)
    traj = simulate(ens, MeanField(1.0), 0.1, 1e-2)
    with pytest.raises(ValueError):
        collision_residual(traj, 1, 1)
    coincident = Ensemble(np.vstack([ens.points[:1], ens.points[:1]]))
    traj2 = simulate(coincident, MeanField(1.0), 0.1, 1e-2)
    with pytest.raises(ValueError, match="coincident"):
        collision_residual(traj2, 0, 1)


def test_replay_field_roundtrip_and_span():
    om = SkewMatrix.random(2, 3, 1.0)
    ens = sample_uniform(2, 8, 5).with_omega(om)
    traj = simulate(ens, MeanField(1.0), 0.5, 1e-3)
    replay = ReplayField.from_trajectory(traj)
    np.testing.assert_allclose(replay.evaluate(None, 0.25), traj.field_samples[250], atol=1e-12)
    with pytest.raises(ValueError, match="span"):
        replay.evaluate(None, 0.5 + 1e-3)


def test_replay_interpolation_accuracy():
    times = np.linspace(0.0, 1.0, 101)
    values = np.stack([np.sin(3 * times), np.cos(2 * times)], axis=1)
    replay = ReplayField(times, values)

    def worst(lo, hi):
        probe = np.linspace(lo, hi, 197)
        return max(
            float(np.max(np.abs(replay.evaluate(None, t)
                                - np.array([math.sin(3 * t), math.cos(2 * t)]))))
            for t in probe
        )

    assert worst(0.025, 0.975) <= 1e-8  # fourth-order interior stencil at h = 0.01
    assert worst(0.0, 1.0) <= 5e-6      # second-order one-sided slopes at the edges


def test_time_delay_runs_and_errors():
    field = TimeDelayField(1.0, 0.05)
    ens = sample_uniform(2, 8, 9)
    with pytest.raises(ValueError, match="not initialized"):
        field.evaluate(ens.points, 0.0)
    traj = simulate(ens, field, 0.3, 1e-2, record_every=5)
    assert len(traj.states) == 7
    assert np.max(np.abs(np.linalg.norm(traj.states[-1].points, axis=1) - 1.0)) <= 1e-12
    with pytest.raises(ValueError, match="before history start"):
        field.evaluate(ens.points, -0.1)
    with pytest.raises(ValueError, match="delay shorter"):
        TimeDelayField(1.0, 1e-3).initialize(ens, 1e-2)


def test_time_delay_constant_history_matches_plain_mean_field_initially():
    # during t < tau the delayed field sees the frozen initial mean
    ens = sample_uniform(2, 32, 12)
    field = TimeDelayField(1.0, 0.5)
    field.initialize(ens, 1e-2)
    x0 = eval_field(MeanField(1.0), ens, 0.0)
    np.testing.assert_allclose(field.evaluate(ens.points, 0.3), x0, atol=1e-15)


def test_simulate_deterministic():
    om = SkewMatrix.random(2, 3, 1.0)
    ens = sample_uniform(2, 8, 5).with_omega(om)
    a = simulate(ens, MeanField(1.0), 0.2, 1e-3).states[-1].points
    b = simulate(ens, MeanField(1.0), 0.2, 1e-3).states[-1].points
    np.testing.assert_array_equal(a, b)
