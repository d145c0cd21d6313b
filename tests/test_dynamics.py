import math
import warnings

import numpy as np
import pytest

from swarmsphere import (
    Ensemble,
    FrustratedField,
    MeanField,
    PrescribedField,
    ReplayField,
    SkewMatrix,
    TimeDelayField,
    Trajectory,
    WinfreeField,
    collision_residual,
    dR2_dt_analytic,
    eval_field,
    exact_mean,
    order_parameter,
    order_parameter_series,
    rng_stream,
    sample_uniform,
    simulate,
    step,
)
from swarmsphere import dynamics
from swarmsphere.dynamics import _run, _velocities


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


def one_velocity(x, om, xf):
    """``_velocities`` of one particle under generator ``om`` and driving
    vector ``xf``: a one-column stack, the column in one group slice."""
    return _velocities(x[:, None], xf, ((om, slice(0, 1)),))[:, 0]


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("stack", [(), (3,)])
def test_column_velocities_have_the_bits_of_the_row_form(d, stack):
    # the component sum is einsum's and the free flow om.matrix @ cols is
    # BLAS's pts @ om.matrix.T: both must keep the row-major bits
    rng = rng_stream(d)
    n = 40
    pts = rng.standard_normal(stack + (n, d + 1))
    x = rng.standard_normal(stack + (d + 1,))
    slice_om, index_om = SkewMatrix.random(d, 1, 1.0), SkewMatrix.random(d, 2, 0.7)
    groups = ((None, np.array([0, 3, 4])), (index_om, np.array([1, 2, 5, 6, 9, 30, 33])),
              (slice_om, slice(10, 30)))
    want = x[..., None, :] - np.einsum("...ij,...j->...i", pts, x)[..., None] * pts
    for om, idx in groups[1:]:
        want[..., idx, :] += pts[..., idx, :] @ om.matrix.T
    got = _velocities(np.swapaxes(pts, -1, -2).copy(), x, groups)
    assert np.swapaxes(got, -1, -2).copy().tobytes() == want.tobytes()


@pytest.mark.parametrize("stack", [(), (3,)])
def test_a_zero_generator_group_moves_as_a_group_without_one(stack):
    # X = -0 makes every velocity component of a point with positive
    # coordinates -0.0, which an added zero free flow would turn into +0.0
    zero, planar = SkewMatrix.zero(2), SkewMatrix.planar(2, 1.0)
    ens = Ensemble(np.abs(sample_uniform(2, 10, 3).points), (zero,) * 4 + (planar,) * 6)
    assert [om for om, _ in ens.omega_groups()] == [zero, planar]
    cols = np.broadcast_to(ens.points.T, stack + ens.points.T.shape).copy()
    unlabelled = ((None, slice(0, 4)), (planar, slice(4, 10)))
    for x in (np.full(stack + (3,), -0.0), rng_stream(4).standard_normal(stack + (3,))):
        got = _velocities(cols, x, ens._omega_slices())
        assert got.tobytes() == _velocities(cols, x, unlabelled).tobytes()
    assert np.signbit(_velocities(cols, np.full(stack + (3,), -0.0), unlabelled)[..., :4]).all()


def test_winfree_field_on_a_transposed_stage_view_keeps_its_row_bits():
    # a stage reaches the field as the transpose view of its columns; the
    # product over that view can differ in the last bit, which shows in X
    # for a few of these small populations
    field = WinfreeField(1.1, [0.2, 0.0, 1.0])
    for seed in range(50):
        pts = sample_uniform(2, 8, seed).points
        view = np.swapaxes(pts.T.copy(), -1, -2)
        assert field.evaluate(view, 0.0).tobytes() == field.evaluate(pts, 0.0).tobytes()


def test_velocity_trivial_cases():
    om = SkewMatrix.planar(1, 1.0)
    x = np.array([1.0, 0.0])
    np.testing.assert_allclose(one_velocity(x, om, np.zeros(2)), [0.0, 1.0], atol=1e-15)
    # aligned with the field and no rotation: equilibrium
    xf = np.array([0.0, 2.0])
    np.testing.assert_allclose(one_velocity(np.array([0.0, 1.0]), None, xf), 0.0, atol=1e-15)


def test_velocity_hand_case_d1():
    om = SkewMatrix.from_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    out = one_velocity(np.array([1.0, 0.0]), om, np.array([0.0, 0.5]))
    np.testing.assert_allclose(out, [0.0, 1.5], atol=1e-15)


def test_velocity_tangency_random():
    rng = rng_stream(8)
    om = SkewMatrix.random(3, 4, 1.0)
    for _ in range(100):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        xf = rng.standard_normal(4)
        assert abs(x @ one_velocity(x, om, xf)) <= 1e-12


def test_step_is_fixed_point_without_forcing():
    ens = sample_uniform(2, 12, 5)
    out = step(ens, PrescribedField(lambda t: np.zeros(3)), 1e-2)
    assert np.max(np.abs(out.points - ens.points)) <= 1e-15
    assert not hasattr(out, "time")  # the run keeps the clock


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
    assert len(traj.times) == 1 and traj.times[0] == 0.0


def test_simulate_snapshot_count():
    ens = sample_uniform(2, 4, 1)
    traj = simulate(ens, MeanField(1.0), 1.0, 1e-2, record_every=20)
    assert len(traj.times) == 100 // 20 + 1


def test_simulate_rk4_self_convergence():
    # Richardson: halving dt shrinks the final-state defect by ~2^4
    om = SkewMatrix.random(2, 11, 1.0)
    ens = sample_uniform(2, 16, 19).with_omega(om)

    def final(dt):
        return simulate(ens, MeanField(1.0), 1.0, dt, record_every=10**9).points[-1]

    e1 = np.max(np.abs(final(4e-3) - final(2e-3)))
    e2 = np.max(np.abs(final(2e-3) - final(1e-3)))
    ratio = e1 / e2
    assert 16 / 1.3 <= ratio <= 16 * 1.3


def test_common_rotation_isometry():
    om = SkewMatrix.random(2, 14, 1.0)
    ens = sample_uniform(2, 8, 23).with_omega(om)
    traj = simulate(ens, PrescribedField(lambda t: np.zeros(3)), 10.0, 1e-3, record_every=1000)
    d0 = np.linalg.norm(ens.points[:, None] - ens.points[None, :], axis=2)
    for pts in traj.points:
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
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
    for pts in traj.points[:: len(traj.times) // 10]:
        gram = pts @ pts.T
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


@pytest.mark.parametrize("k, l", [(True, 0), (0, True), (1.0, 2), (0, np.float64(2.0)), ("1", 2)])
def test_collision_residual_refuses_non_integer_indices_by_name(k, l):
    traj = simulate(sample_uniform(2, 4, 2), MeanField(1.0), 0.1, 1e-2)
    with pytest.raises(TypeError, match="^particle indices must be integers"):
        collision_residual(traj, k, l)


def test_collision_residual_takes_numpy_integers():
    traj = simulate(sample_uniform(2, 6, 3), MeanField(1.0), 0.5, 1e-3)
    want = collision_residual(traj, 1, 4)
    assert collision_residual(traj, np.int64(1), np.uint8(4)) == want <= 1e-6


def test_simulate_records_the_points_the_loop_yields():
    ens = Ensemble(sample_uniform(2, REF_N, 8).points, TWO_GROUPS)
    traj = simulate(ens, MeanField(1.0), 0.1, REF_DT, record_every=3)
    yielded = list(_run(ens, MeanField(1.0), 0.1, REF_DT, 3))
    assert len(traj.times) == len(yielded) == 5
    for j, (t, points, _, x) in enumerate(yielded):
        assert traj.times[j] == t and traj.points[j].tobytes() == points.tobytes()
        assert traj.field_samples[j].tobytes() == x.tobytes()
    for a in (traj.times, traj.points, traj.field_samples):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def _fed(start, field=MeanField(1.0)):
    """The blocks of the feed of a run to t = 0.5 recorded every second
    step, copied, and each of times, points, fields and means concatenated."""
    blocks = [tuple(a.copy() for a in block)
              for block in dynamics._snapshot_blocks(start, field, 0.5, 1e-2, 2)]
    return blocks, [np.concatenate(arrays) for arrays in zip(*blocks)]


@pytest.mark.parametrize("rows", [1, 7, 26])
def test_snapshot_blocks_are_the_recording_of_simulate_in_blocks(monkeypatch, rows):
    # one snapshot per block, blocks of 7 that leave a short last one of 5,
    # and one block of all 26 snapshots
    ens = Ensemble(sample_uniform(2, REF_N, 8).points, TWO_GROUPS)
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_FLOATS", rows * REF_N * 3)
    traj = simulate(ens, MeanField(1.0), 0.5, 1e-2, record_every=2)
    blocks, (times, points, fields, means) = _fed(ens)
    sizes = [len(block[0]) for block in blocks]
    assert sizes == [rows] * (26 // rows) + ([26 % rows] if 26 % rows else [])
    assert times.tobytes() == traj.times.tobytes()
    assert points.swapaxes(1, 2).tobytes() == traj.points.tobytes()  # component-major
    assert fields.tobytes() == traj.field_samples.tobytes()
    assert means.tobytes() == np.array([exact_mean(pts) for pts in traj.points]).tobytes()
    # a stack of three, in blocks of a third as many states: member by member
    # the blocks of each one's own run
    members = [sample_uniform(2, REF_N, seed).points for seed in (8, 9, 10)]
    _, stacked = _fed(np.stack(members))
    assert stacked[1].shape == (26, 3, 3, REF_N)
    for i, member in enumerate(members):
        _, alone = _fed(Ensemble(member))
        assert stacked[0].tobytes() == alone[0].tobytes()
        for name, got, want in zip(("points", "fields", "means"), stacked[1:], alone[1:]):
            assert got[:, i].tobytes() == want.tobytes(), name


def test_snapshot_blocks_hand_no_means_for_a_field_that_does_not_read_them():
    field = PrescribedField(lambda t: np.array([0.0, math.cos(t), math.sin(t)]))
    blocks = dynamics._snapshot_blocks(sample_uniform(2, 8, 4), field, 0.5, 1e-2, 2)
    assert all(means is None for *_, means in blocks)


@pytest.mark.parametrize("fault, message", [
    ("point", "trajectory points must lie on the unit sphere"),
    ("field", "field samples must be finite"),
])
def test_snapshot_blocks_check_each_block_by_the_trajectory_rules(monkeypatch, fault, message):
    # the fault enters at the last step, so the first full blocks pass and
    # the refusal comes from the check of the short last block
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_FLOATS", 4 * 8 * 3)
    ens = sample_uniform(2, 8, 3)
    run = dynamics._run

    def faulty(*args):
        for s, (t, points, mean, x) in enumerate(run(*args)):
            if s == 9:
                points = points * (1 + 1e-6) if fault == "point" else points
                x = x * math.inf if fault == "field" else x
            yield t, points, mean, x

    monkeypatch.setattr(dynamics, "_run", faulty)
    blocks = dynamics._snapshot_blocks(ens, MeanField(1.0), 0.09, 1e-2, 1)
    assert [len(next(blocks)[0]) for _ in range(2)] == [4, 4]
    with pytest.raises(ValueError, match=message):
        next(blocks)


def test_replay_field_roundtrip_and_span():
    om = SkewMatrix.random(2, 3, 1.0)
    ens = sample_uniform(2, 8, 5).with_omega(om)
    traj = simulate(ens, MeanField(1.0), 0.5, 1e-3)
    replay = ReplayField.from_trajectory(traj)
    np.testing.assert_allclose(replay.evaluate(None, 0.25), traj.field_samples[250], atol=1e-12)
    with pytest.raises(ValueError, match="span"):
        replay.evaluate(None, 0.5 + 1e-3)


def test_replay_queries_at_a_nan_time_are_refused_by_name():
    replay = ReplayField([0.0, 0.5, 1.0], np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"replay query at t = nan outside the recorded span"):
        replay.evaluate(None, math.nan)
    with pytest.raises(ValueError, match=r"replay query at t in \[nan, nan\] outside the recorded span"):
        replay._at_times(np.array([0.5, math.nan]))


def test_replay_field_rejects_nan_time():
    with pytest.raises(ValueError, match="times must be finite"):
        ReplayField([0.0, math.nan, 1.0], np.zeros((3, 2)))


def test_replay_field_rejects_nan_value():
    values = np.zeros((3, 2))
    values[1, 0] = math.nan
    with pytest.raises(ValueError, match="values must be finite"):
        ReplayField([0.0, 0.5, 1.0], values)


@pytest.mark.parametrize("values", [5.0, [1.0, 2.0], np.ones((2, 3, 1)), np.ones((3, 3))])
def test_replay_field_rejects_values_of_the_wrong_shape(values):
    with pytest.raises(ValueError, match=r"replay values must be an \(m, d\+1\) array matching times"):
        ReplayField([0.0, 1.0], values)


def test_replay_field_rejects_infinite_end_time():
    with pytest.raises(ValueError, match="times must be finite"):
        ReplayField([0.0, 0.5, math.inf], np.zeros((3, 2)))


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


def _reference_hermite_point(times, values, t):
    """Per-point cubic Hermite interpolation with the slope rules written out
    knot by knot; the slope table behind ReplayField must agree bitwise."""
    m = times.size
    if t <= times[0]:
        return values[0].copy()
    if t >= times[-1]:
        return values[-1].copy()
    i = int(np.searchsorted(times, t, side="right") - 1)
    i = min(max(i, 0), m - 2)
    h = times[i + 1] - times[i]

    def slope(j):
        if 2 <= j <= m - 3:
            hl = times[j] - times[j - 1]
            hr = times[j + 1] - times[j]
            if abs(hl - hr) < 1e-12 * hr and abs(times[j + 2] - times[j + 1] - hr) < 1e-12 * hr \
                    and abs(times[j - 1] - times[j - 2] - hr) < 1e-12 * hr:
                return (values[j - 2] - 8.0 * values[j - 1] + 8.0 * values[j + 1]
                        - values[j + 2]) / (12.0 * hr)
        if j == 0:
            h0 = times[1] - times[0]
            if m >= 3 and abs((times[2] - times[1]) - h0) < 1e-12 * h0:
                return (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h0)
            return (values[1] - values[0]) / h0
        if j == m - 1:
            h0 = times[-1] - times[-2]
            if m >= 3 and abs((times[-2] - times[-3]) - h0) < 1e-12 * h0:
                return (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h0)
            return (values[-1] - values[-2]) / h0
        hl = times[j] - times[j - 1]
        hr = times[j + 1] - times[j]
        dl = (values[j] - values[j - 1]) / hl
        dr = (values[j + 1] - values[j]) / hr
        return (dl * hr + dr * hl) / (hl + hr)

    s = (t - times[i]) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * values[i] + h10 * h * slope(i) + h01 * values[i + 1] + h11 * h * slope(i + 1)


def _replay_grid(kind, m, rng):
    if kind == "uniform":
        return np.arange(m) * 0.1
    if kind == "nonuniform":
        return np.cumsum(rng.uniform(0.01, 1.0, m))
    # uniform with one wider step in the middle: the stencil switches near it
    times = np.arange(m) * 0.1
    times[m // 2:] += 0.05
    return times


@pytest.mark.parametrize("kind", ["uniform", "nonuniform", "kinked"])
def test_replay_slope_table_matches_reference_stencil(kind):
    rng = np.random.default_rng(17)
    for m in list(range(2, 13)) + [40, 5001]:
        times = _replay_grid(kind, m, rng)
        values = rng.normal(size=(m, 3))
        replay = ReplayField(times, values)
        probes = rng.uniform(times[0], times[-1], 200 if m < 5001 else 2000)
        slack = 1e-10 * (times[-1] - times[0])  # inside the span tolerance
        ends = [times[0] - slack, times[-1] + slack]
        for t in np.concatenate([times, probes, ends]):
            got = replay.evaluate(None, float(t))
            want = _reference_hermite_point(times, values, float(t))
            assert got.tobytes() == want.tobytes(), (kind, m, float(t))


@pytest.mark.parametrize("tau", [1e-2, 5e-2])
def test_time_delay_slopes_match_reference_stencil(tau):
    # the reference run keeps its own history and interpolates it with the
    # reference stencil
    ens = sample_uniform(2, 16, 21).with_omega(SkewMatrix.random(2, 5, 1.0))
    got = simulate(ens, TimeDelayField(1.0, tau), 0.3, 1e-2, record_every=3)
    want = _reference_run(ens, TimeDelayField(1.0, tau), 0.3, 1e-2, 3)
    assert got.field_samples.tobytes() == np.array([x for *_, x in want]).tobytes()
    assert got.points[-1].tobytes() == want[-1][1].points.tobytes()


DELAY_IN_RUN = r"a time-delay field reads its run's history; step it through simulate\(\)"


@pytest.mark.parametrize("make, message", [
    (lambda: MeanField(math.nan), "coupling kappa must be finite"),
    (lambda: FrustratedField(1.0, [[math.nan, 0.0], [0.0, 1.0]]), "frustration matrix entries"),
    (lambda: WinfreeField(math.nan, [0.0, 0.0, 1.0]), "coupling kappa must be finite"),
    (lambda: WinfreeField(1.0, [math.nan, 0.0, 1.0]), "non-finite entry"),
    (lambda: TimeDelayField(math.inf, 0.1), "coupling kappa must be finite"),
], ids=["mean", "frustrated", "winfree", "winfree_pole", "time_delay"])
def test_a_field_rejects_a_non_finite_parameter_by_name(make, message):
    with pytest.raises(ValueError, match=message):
        make()


TRAJECTORY_CASES = {
    "nan_time": (lambda t, p, f, om: ([0.0, math.nan], p, f, om), "snapshot times must be finite"),
    "nan_field": (lambda t, p, f, om: (t, p, np.where([[0], [1]], math.nan, f), om),
                  "field samples must be finite"),
    "field_width": (lambda t, p, f, om: (t, p, np.zeros((2, 5)), om),
                    r"field samples must be an \(m, d\+1\) array"),
    "state_shapes": (lambda t, p, f, om: (t, p[0], f, om),
                     r"points must be an \(m, n, d\+1\) array"),
    "no_snapshots": (lambda t, p, f, om: (t[:0], p[:0], f[:0], om), "at least one snapshot"),
    "flat_points": (lambda t, p, f, om: (t, p[:, :, :1], f[:, :1], om),
                    r"with d >= 1, not \(2, 8, 1\)"),
    "no_particles": (lambda t, p, f, om: (t, p[:, :0], f, om), r"with d >= 1, not \(2, 0, 3\)"),
    "points_length": (lambda t, p, f, om: (t, p[:1], f, om), "must have equal length"),
    "fields_length": (lambda t, p, f, om: (t, p, f[:1], om), "must have equal length"),
    "off_sphere": (lambda t, p, f, om: (t, p * np.where(np.arange(8) == 5, 1.001, 1.0)[:, None],
                                        f, om),
                   "trajectory points must lie on the unit sphere"),
    "nan_point": (lambda t, p, f, om: (t, np.where(np.arange(3) == 2, math.nan, p), f, om),
                  "trajectory points must lie on the unit sphere"),
    "label_count": (lambda t, p, f, om: (t, p, f, om[:7]), "generator list length must match"),
    "label_dim": (lambda t, p, f, om: (t, p, f, SkewMatrix.zero(3)),
                  "generator dimension must match"),
    "label_in_list": (lambda t, p, f, om: (t, p, f, om[:7] + (SkewMatrix.zero(1),)),
                      "generator dimension must match"),
}


@pytest.mark.parametrize("case", TRAJECTORY_CASES)
def test_trajectory_rejects_malformed_records_by_name(case):
    # the label checks are Ensemble's: the same messages
    a, b = sample_uniform(2, 8, 1), sample_uniform(2, 8, 2)
    record = ([0.0, 1.0], np.stack([a.points, b.points]), np.zeros((2, 3)),
              (SkewMatrix.zero(2),) * 8)
    make, message = TRAJECTORY_CASES[case]
    with pytest.raises(ValueError, match=message):
        Trajectory(*make(*record))
    with pytest.raises(TypeError, match="omega must be None"):
        Trajectory(*record[:3], "zero")


def test_a_trajectory_takes_its_arrays_over_and_freezes_them():
    times, points, fields = np.array([0.0, 0.5]), np.stack([sample_uniform(2, 4, 1).points] * 2), \
        np.zeros((2, 3))
    om = [SkewMatrix.planar(2, 1.0)] * 4
    traj = Trajectory(times, points, fields, om)
    assert traj.times is times and traj.points is points and traj.field_samples is fields
    assert not (times.flags.writeable or points.flags.writeable or fields.flags.writeable)
    assert traj.omega == tuple(om) and (traj.n, traj.d) == (4, 2)
    assert Trajectory([0], points[:1].tolist(), [[0, 0, 0]]).points.dtype == np.float64


def test_time_delay_runs_and_errors():
    field = TimeDelayField(1.0, 0.05)
    ens = sample_uniform(2, 8, 9)
    with pytest.raises(ValueError, match=DELAY_IN_RUN):
        field.evaluate(ens.points, 0.0)
    traj = simulate(ens, field, 0.3, 1e-2, record_every=5)
    assert len(traj.times) == 7
    assert np.max(np.abs(np.linalg.norm(traj.points[-1], axis=1) - 1.0)) <= 1e-12
    with pytest.raises(ValueError, match="delay shorter than the step size"):
        simulate(ens, TimeDelayField(1.0, 1e-3), 0.1, 1e-2)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
def test_time_delay_rejects_a_delay_outside_zero_to_infinity(tau):
    with pytest.raises(ValueError, match="delay must be positive and finite"):
        TimeDelayField(1.0, tau)


def test_bare_step_past_tau_points_at_the_stepping_loop():
    # a single step has no run history to read, even before t = tau
    with pytest.raises(ValueError, match=DELAY_IN_RUN):
        step(sample_uniform(2, 8, 9), TimeDelayField(1.0, 1e-2), 1e-2)


def test_simulate_names_the_non_finite_step():
    # the field turns infinite inside the step from t = 0.04 to t = 0.05
    field = PrescribedField(lambda t: np.full(3, math.inf if t > 0.042 else 0.5))
    with pytest.raises(ValueError, match=r"non-finite particle state at step time t = 0\.05"):
        simulate(sample_uniform(2, 8, 3), field, 0.1, 1e-2)


def test_simulate_names_a_step_whose_row_norm_overflows():
    # finite entries whose squared norm overflows leave no unit direction
    field = PrescribedField(lambda t: np.array([1e200, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"non-finite particle state at step time t = 0\.01"):
        simulate(sample_uniform(2, 8, 3), field, 0.05, 1e-2)


def test_a_bare_step_names_its_blow_up_without_a_numpy_warning():
    # the step's own finite check names the blow-up; RuntimeWarning is an
    # error here, and a bare step used to raise "overflow encountered in multiply"
    field = PrescribedField(lambda t: np.array([1e308, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"non-finite particle state at step time t = 0\.01"):
            step(sample_uniform(2, 8, 3), field, 1e-2)


@pytest.mark.parametrize("vector", [
    lambda t: np.array([0.5]),  # used to broadcast, stepping as X = (0.5, 0.5, 0.5)
    lambda t: np.full(4, 0.5),  # used to fail in a bare numpy broadcast
    lambda t: np.full(3 if t == 0.0 else 1, 0.5),  # wrong at a later stage only
], ids=["width 1", "width d+2", "later stage"])
def test_step_refuses_a_driving_vector_of_the_wrong_width(vector):
    with pytest.raises(ValueError, match="^driving field returned a vector of the wrong dimension$"):
        step(sample_uniform(2, 8, 3), PrescribedField(vector), 1e-2)


def test_time_delay_constant_history_matches_plain_mean_field_initially():
    # during t < tau the delayed field sees the frozen initial mean
    ens = sample_uniform(2, 32, 12)
    traj = simulate(ens, TimeDelayField(1.0, 0.5), 0.4, 1e-2, record_every=10)
    x0 = eval_field(MeanField(1.0), ens, 0.0)
    assert traj.field_samples.tobytes() == np.tile(x0, (5, 1)).tobytes()


def test_simulate_deterministic():
    om = SkewMatrix.random(2, 3, 1.0)
    ens = sample_uniform(2, 8, 5).with_omega(om)
    a = simulate(ens, MeanField(1.0), 0.2, 1e-3).points[-1]
    b = simulate(ens, MeanField(1.0), 0.2, 1e-3).points[-1]
    np.testing.assert_array_equal(a, b)


# Reference particle step that reuses nothing: every stage evaluated afresh
# from its points, the groups worked out per step, out-of-place arithmetic,
# every state validated.  The stepping loop must reproduce it bit for bit.
def _reference_step(ens, evaluate, dt, t):
    groups = ens.omega_groups()

    def rhs(pts, ts):
        x = np.asarray(evaluate(pts, ts), dtype=float)
        v = x - np.einsum("ij,j->i", pts, x)[:, None] * pts
        for om, idx in groups:
            if om is None:
                continue
            if idx.size == pts.shape[0]:
                v = v + pts @ om.matrix.T
            else:
                v[idx] += pts[idx] @ om.matrix.T
        return v

    def project(pts):
        return pts / np.sqrt(np.einsum("ij,ij->i", pts, pts))[:, None]

    y = ens.points
    k1 = rhs(y, t)
    k2 = rhs(project(y + (0.5 * dt) * k1), t + 0.5 * dt)
    k3 = rhs(project(y + (0.5 * dt) * k2), t + 0.5 * dt)
    k4 = rhs(project(y + dt * k3), t + dt)
    return Ensemble(project(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)), ens.omega)


def _reference_delay(field, times, means, dt):
    """X(points, t) of a delayed field from the history of a run whose
    states at ``times`` have the exact means ``means``: the reference
    stencil on the six-knot window that the stepping loop interpolates."""

    def evaluate(points, t):
        s = t - field.tau
        if s <= 0.0:
            return field.kappa * means[0]
        center = int(s / dt)
        lo, hi = max(0, center - 2), min(len(means), center + 4)
        return field.kappa * _reference_hermite_point(
            np.asarray(times[lo:hi]), np.asarray(means[lo:hi]), float(s))

    return evaluate


def _reference_run(ens0, field, t_end, dt, record_every):
    """(time, state, field sample) triples as recorded with the reference
    step, state s at s * dt; the history a delayed field reads is kept here."""
    steps = int(round(t_end / dt))
    times, means = [], []
    delayed = isinstance(field, TimeDelayField)
    evaluate = _reference_delay(field, times, means, dt) if delayed else field.evaluate
    ens, out = ens0, []
    for s in range(steps + 1):
        if s:
            ens = _reference_step(ens, evaluate, dt, times[-1])
        times.append(s * dt)
        means.append(exact_mean(ens.points))
        if s % record_every == 0 or s == steps:
            out.append((times[-1], ens, np.asarray(evaluate(ens.points, times[-1]), dtype=float)))
    return out


REF_DT = 1e-2
REF_N = 200  # above the row count where exact_mean switches to the vector extraction


def _replay_field():
    traj = simulate(sample_uniform(2, 16, 3), MeanField(1.0), 0.5, REF_DT)
    return ReplayField.from_trajectory(traj)


TWO_GROUPS = (SkewMatrix.planar(2, 1.0),) * (REF_N // 2) \
    + (SkewMatrix.random(2, 9, 0.7),) * (REF_N - REF_N // 2)
# two interleaved groups (index arrays) ahead of one contiguous run (a slice)
MIXED_GROUPS = (SkewMatrix.planar(2, 1.0), SkewMatrix.random(2, 10, 0.5)) * (REF_N // 4) \
    + (SkewMatrix.random(2, 11, 0.9),) * (REF_N - 2 * (REF_N // 4))

# field factory and omega
FIELD_CASES = {
    "mean": (lambda: MeanField(1.3), SkewMatrix.random(2, 5, 1.0)),
    "frustrated": (lambda: FrustratedField(0.8, [[1.0, 0.3, 0.0], [-0.3, 1.0, 0.1], [0.0, -0.1, 1.0]]),
                   None),
    "winfree": (lambda: WinfreeField(1.1, [0.2, 0.0, 1.0]), None),
    "delay_dt": (lambda: TimeDelayField(1.0, REF_DT), None),
    "delay_5dt": (lambda: TimeDelayField(1.0, 5 * REF_DT), SkewMatrix.random(2, 6, 1.0)),
    "replay": (_replay_field, SkewMatrix.random(2, 7, 1.0)),
    "two_groups": (lambda: MeanField(1.0), TWO_GROUPS),
    "mixed_groups": (lambda: MeanField(1.0), MIXED_GROUPS),
}


def test_group_views_turn_contiguous_runs_into_slices():
    ens = Ensemble(sample_uniform(2, REF_N, 4).points, MIXED_GROUPS)
    groups = ens._omega_slices()
    assert [type(idx) for _, idx in groups] == [np.ndarray, np.ndarray, slice]
    assert groups[2][1] == slice(2 * (REF_N // 4), REF_N)
    (_, whole), = sample_uniform(2, 5, 4)._omega_slices()
    assert whole == slice(0, 5)
    # worked out once with the groups, and shared with the states made from them
    later = ens._at(ens.points.copy())
    assert later._omega_slices() is groups and later.omega_groups() is ens.omega_groups()


@pytest.mark.parametrize("case", FIELD_CASES)
def test_simulate_matches_the_reference_step_bit_for_bit(case):
    make_field, omega = FIELD_CASES[case]
    ens = Ensemble(sample_uniform(2, REF_N, 17).points, omega)
    traj = simulate(ens, make_field(), 0.3, REF_DT, record_every=4)
    want = _reference_run(ens, make_field(), 0.3, REF_DT, 4)
    assert traj.times.tobytes() == np.array([t for t, _, _ in want]).tobytes()
    for got, (_, st, _) in zip(traj.points, want, strict=True):
        assert got.tobytes() == st.points.tobytes()
    assert traj.omega is ens.omega
    assert traj.field_samples.tobytes() == np.array([x for *_, x in want]).tobytes()

    series, final = order_parameter_series(ens, make_field(), 0.3, REF_DT)
    every = [st for _, st, _ in _reference_run(ens, make_field(), 0.3, REF_DT, 1)]
    assert series.R2.tobytes() == np.array([order_parameter(st)[0] for st in every]).tobytes()
    # the derivative identity holds under a mean field with one generator group
    # only, at its coupling
    field = make_field()
    want_dR2 = field.kappa * np.array([dR2_dt_analytic(st) for st in every]) \
        if isinstance(field, MeanField) and len(ens.omega_groups()) == 1 \
        else np.full(len(every), np.nan)
    assert series.dR2_analytic.tobytes() == want_dR2.tobytes()
    assert final.points.tobytes() == every[-1].points.tobytes()


def test_step_keeps_its_single_population_contract():
    # a bare step works out groups and the first stage itself
    ens = Ensemble(sample_uniform(2, REF_N, 4).points, TWO_GROUPS)
    got = step(ens, MeanField(1.0), REF_DT)
    want = _reference_step(ens, MeanField(1.0).evaluate, REF_DT, 0.0)
    assert got.points.tobytes() == want.points.tobytes()
    assert not got.points.flags.writeable
    with pytest.raises(ValueError, match="dt must be positive"):
        step(ens, MeanField(1.0), 0.0)


def test_step_evaluates_a_clock_driven_field_at_its_time():
    # X(t) = t e: a step from t = 1 reads X at the stage times 1, 1 + dt/2 and 1 + dt
    ens = Ensemble(sample_uniform(2, REF_N, 4).points, TWO_GROUPS)
    e, seen = np.array([0.0, 0.6, 0.8]), []
    field = PrescribedField(lambda t: seen.append(t) or t * e)
    got = step(ens, field, REF_DT, 1.0)
    assert seen == [1.0, 1.0 + 0.5 * REF_DT, 1.0 + 0.5 * REF_DT, 1.0 + REF_DT]
    want = _reference_step(ens, field.evaluate, REF_DT, 1.0)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.points.tobytes() != step(ens, field, REF_DT).points.tobytes()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_step_refuses_a_non_finite_time_by_name(t):
    with pytest.raises(ValueError, match="step time t must be finite"):
        step(sample_uniform(2, 4, 3), MeanField(1.0), REF_DT, t)


@pytest.mark.parametrize("case", ["mean", "delay_5dt", "two_groups"])
def test_a_single_population_steps_through_the_public_step(case, monkeypatch):
    # one call of step per particle step, each handed the grid time of its state
    make_field, omega = FIELD_CASES[case]
    ens = Ensemble(sample_uniform(2, REF_N, 6).points, omega)
    calls = []

    def counted(state, field, dt, t):
        calls.append(t)
        return step(state, field, dt, t)

    monkeypatch.setattr(dynamics, "step", counted)
    simulate(ens, make_field(), 0.1, REF_DT, record_every=3)
    assert calls == [s * REF_DT for s in range(10)]
    calls.clear()
    order_parameter_series(ens, make_field(), 0.1, REF_DT)
    assert calls == [s * REF_DT for s in range(10)]


@pytest.mark.parametrize("t_end, dt, message", [
    (math.nan, 1e-2, "t_end must be finite and nonnegative"),
    (math.inf, 1e-2, "t_end must be finite and nonnegative"),
    (-1.0, 1e-2, "t_end must be finite and nonnegative"),
    (1.0, math.nan, "dt must be positive"),
    (1.0, 0.0, "dt must be positive"),
    (1.0, 1e-320, "t_end / dt overflows"),
])
def test_simulate_rejects_non_finite_run_arguments_by_name(t_end, dt, message):
    with pytest.raises(ValueError, match=message):
        simulate(sample_uniform(2, 4, 1), MeanField(1.0), t_end, dt)


def _attributes(field):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(field).items()}


@pytest.mark.parametrize("case", FIELD_CASES)
def test_a_run_leaves_its_field_as_it_was(case):
    make_field, omega = FIELD_CASES[case]
    field = make_field()
    before = _attributes(field)
    ens = Ensemble(sample_uniform(2, REF_N, 5).points, omega)
    simulate(ens, field, 0.1, REF_DT)
    order_parameter_series(ens, field, 0.1, REF_DT)
    assert _attributes(field) == before
    if isinstance(field, TimeDelayField):
        assert vars(field) == {"kappa": 1.0, "tau": field.tau}


def _outputs(ens, field):
    return _run(ens, field, 0.3, REF_DT, 1)


def test_interleaved_delay_runs_equal_fresh_runs():
    # two runs over one delayed field each read their own history
    a, b = sample_uniform(2, 32, 1), sample_uniform(2, 32, 2).with_omega(SkewMatrix.random(2, 3, 1.0))
    shared = TimeDelayField(1.0, 5 * REF_DT)
    interleaved = list(zip(_outputs(a, shared), _outputs(b, shared), strict=True))
    fresh = zip(_outputs(a, TimeDelayField(1.0, 5 * REF_DT)),
                _outputs(b, TimeDelayField(1.0, 5 * REF_DT)), strict=True)
    for got_pair, want_pair in zip(interleaved, fresh, strict=True):
        for (t, points, mean, x), (t_w, points_w, mean_w, x_w) in zip(got_pair, want_pair):
            assert t == t_w and points.tobytes() == points_w.tobytes()
            assert mean.tobytes() == mean_w.tobytes() and x.tobytes() == x_w.tobytes()


def _stack_field(kind, d):
    if kind == "mean":
        return MeanField(1.3)
    v = np.eye(d + 1) + 0.3 * rng_stream(d).standard_normal((d + 1, d + 1))
    return FrustratedField(0.8, v)


@pytest.mark.parametrize("kind", ["mean", "frustrated"])
@pytest.mark.parametrize("d", [1, 3, 6])
def test_stack_members_equal_their_single_runs(kind, d):
    # the component-major stack sums its rows in einsum's order: same bits
    members = [sample_uniform(d, REF_N, seed).points for seed in (1, 2, 3)]
    stacked = list(_run(np.stack(members), _stack_field(kind, d), 0.1, REF_DT, 3))
    for i, member in enumerate(members):
        alone = list(_run(Ensemble(member), _stack_field(kind, d), 0.1, REF_DT, 3))
        for (t, points, mean, x), (t_w, points_w, mean_w, x_w) in zip(stacked, alone, strict=True):
            assert t == t_w and points.shape == (3, REF_N, d + 1)
            assert points[i].copy().tobytes() == points_w.tobytes()
            assert mean[i].tobytes() == mean_w.tobytes() and x[i].tobytes() == x_w.tobytes()
        traj = simulate(Ensemble(member), _stack_field(kind, d), 0.1, REF_DT, 3)
        assert traj.field_samples.tobytes() == np.array([x[i] for *_, x in stacked]).tobytes()


def test_a_stack_refuses_a_delayed_field():
    stack = np.stack([sample_uniform(2, 8, 1).points] * 4)
    with pytest.raises(ValueError, match="time-delay field steps a single population"):
        next(_run(stack, TimeDelayField(1.0, 5 * REF_DT), 0.1, REF_DT, 1))


@pytest.mark.parametrize("field", [
    WinfreeField(1.0, [0.0, 0.0, 1.0]),
    PrescribedField(lambda t: np.array([0.0, 0.0, 1.0])),
    ReplayField([0.0, 1.0], np.tile([0.0, 0.0, 1.0], (2, 1))),
], ids=["winfree", "prescribed", "replay"])
def test_a_stack_refuses_a_field_that_does_not_read_the_mean(monkeypatch, field):
    calls = []
    monkeypatch.setattr(field, "evaluate", lambda *args: calls.append(args))
    stack = np.stack([sample_uniform(2, 8, seed).points for seed in (1, 2)])
    name = type(field).__name__
    with pytest.raises(ValueError, match=f"field that reads the population mean, not {name}"):
        next(_run(stack, field, 0.02, 0.01, 1))
    assert calls == []  # refused before the first evaluation
