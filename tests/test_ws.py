import math

import numpy as np
import pytest

from swarmsphere import (
    Ensemble,
    MeanField,
    MobiusPoleError,
    PrescribedField,
    ReplayField,
    SkewMatrix,
    WsState,
    algebraic_identity_residuals,
    conjugacy_residual,
    cross_ratio,
    heterogeneous_push_forward,
    mobius,
    push_forward,
    renormalize,
    rng_stream,
    sample_uniform,
    simulate,
    ws_evolve,
    ws_evolve_groups,
    ws_rhs,
)


def random_ball_vector(rng, dim, rmax=0.95):
    w = rng.standard_normal(dim)
    return w * (rmax * rng.random() ** (1.0 / dim) / np.linalg.norm(w))


def test_ws_rhs_at_origin():
    om = SkewMatrix.random(2, 2, 1.0)
    x = np.array([0.3, -0.1, 0.2])
    dw, drot = ws_rhs(np.zeros(3), np.eye(3), om, x)
    np.testing.assert_allclose(dw, 0.5 * x, atol=1e-15)
    np.testing.assert_allclose(drot, om.matrix, atol=1e-15)


def test_ws_rhs_free_flow():
    om = SkewMatrix.random(2, 5, 1.0)
    rng = rng_stream(3)
    w = random_ball_vector(rng, 3)
    rot = np.eye(3)
    dw, drot = ws_rhs(w, rot, om, np.zeros(3))
    np.testing.assert_allclose(dw, om.matrix @ w, atol=1e-15)
    np.testing.assert_allclose(drot, om.matrix @ rot, atol=1e-15)


def test_ws_rhs_radial_identity():
    rng = rng_stream(7)
    om = SkewMatrix.random(2, 9, 1.0)
    for _ in range(300):
        w = random_ball_vector(rng, 3)
        x = rng.standard_normal(3)
        dw, _ = ws_rhs(w, np.eye(3), om, x)
        lhs = float(w @ dw)
        rhs = 0.5 * (1.0 - float(w @ w)) * float(w @ x)
        assert abs(lhs - rhs) <= 1e-13


def test_ws_rhs_orthogonality_preserved_to_first_order():
    rng = rng_stream(11)
    om = SkewMatrix.random(2, 13, 1.0)
    w = random_ball_vector(rng, 3)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    _, drot = ws_rhs(w, rot, om, rng.standard_normal(3))
    sym = drot @ rot.T + rot @ drot.T
    assert np.max(np.abs(sym)) <= 1e-12


def test_ws_evolve_free_flow_closed_form():
    # X = 0: w stays 0 and R is the planar rotation exp(t Omega)
    om = SkewMatrix.planar(1, 1.0)
    field = PrescribedField(lambda t: np.zeros(2))
    path = ws_evolve(om, field, 1.0, 1e-3)
    final = path[-1]
    assert np.all(final.w == 0.0)
    oracle = np.array([[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]])
    assert np.max(np.abs(final.rotation - oracle)) <= 1e-10


def test_ws_evolve_zero_horizon():
    field = PrescribedField(lambda t: np.zeros(3))
    path = ws_evolve(None, field, 0.0, 1e-3)
    assert len(path) == 1
    assert np.all(path[0].w == 0.0)
    np.testing.assert_array_equal(path[0].rotation, np.eye(3))


def test_ws_evolve_orthogonality_invariant():
    om = SkewMatrix.random(2, 3, 1.0)
    ens = sample_uniform(2, 16, 4).with_omega(om)
    traj = simulate(ens, MeanField(1.0), 1.0, 1e-3)
    path = ws_evolve(om, ReplayField.from_trajectory(traj), 1.0, 1e-3)
    worst = max(np.linalg.norm(st.rotation.T @ st.rotation - np.eye(3)) for st in path)
    assert worst <= 1e-8


def test_ws_evolve_orthogonality_holds_at_coarse_steps():
    # large dt drifts faster than the 100-step cadence allows; the defect
    # trigger must keep every recorded state inside the 1e-8 invariant
    field = PrescribedField(lambda t: np.array([1.5 * math.sin(3 * t), 0.5, 1.0]))
    om = SkewMatrix.random(2, 87, 2.0)
    path = ws_evolve(om, field, 20.0, 5e-2)
    worst = max(np.linalg.norm(st.rotation.T @ st.rotation - np.eye(3)) for st in path)
    assert worst <= 1e-8


def test_ws_evolve_ball_guard_on_saturating_field():
    # a constant strong field drives w to the boundary; the guard must keep it inside
    field = PrescribedField(lambda t: np.array([0.0, 0.0, 2.0]))
    path = ws_evolve(None, field, 12.0, 1e-3)
    assert max(np.linalg.norm(st.w) for st in path) < 1.0
    assert path.guard_events > 0


def test_ws_evolve_rejects_state_dependent_field():
    with pytest.raises(ValueError, match="replayed"):
        ws_evolve(None, MeanField(1.0), 1.0, 1e-3)


def test_ws_evolve_rejects_short_replay():
    times = np.linspace(0.0, 0.5, 51)
    replay = ReplayField(times, np.zeros((51, 3)))
    with pytest.raises(ValueError, match="span"):
        ws_evolve(None, replay, 1.0, 1e-2)


def test_mobius_identity_at_zero():
    x = renormalize(np.array([0.3, -0.5, 0.2]))
    np.testing.assert_array_equal(mobius(np.zeros(3), x), x)


def test_mobius_hand_case():
    w = np.array([0.5, 0.0, 0.0])
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(mobius(w, e1), e1, atol=1e-15)


def test_mobius_inverse_and_sphere_preservation():
    rng = rng_stream(19)
    for _ in range(300):
        w = random_ball_vector(rng, 3, rmax=0.99)
        x = renormalize(rng.standard_normal(3))
        y = mobius(w, x)
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
        back = mobius(-w, y)
        assert np.linalg.norm(back - x) <= 1e-10


def test_mobius_pole_error():
    # the pole needs |w| within 1e-7 of the boundary: |x + w| = 1 - |w| at x = -w/|w|
    w = (1.0 - 1e-8) * np.array([1.0, 0.0])
    with pytest.raises(MobiusPoleError):
        mobius(w, np.array([-1.0, 0.0]))


def test_mobius_preserves_cross_ratio():
    rng = rng_stream(23)
    for _ in range(50):
        w = random_ball_vector(rng, 3, rmax=0.9)
        pts = [renormalize(rng.standard_normal(3)) for _ in range(4)]
        before = cross_ratio(*pts)
        after = cross_ratio(*(mobius(w, p) for p in pts))
        assert abs(after - before) <= 1e-10 * max(1.0, before)


def test_push_forward_identity_short_circuit():
    ens = sample_uniform(2, 8, 29)
    out = push_forward(WsState.initial(2), ens)
    assert out is ens


def test_push_forward_unit_norm_outputs():
    rng = rng_stream(31)
    w = random_ball_vector(rng, 3, rmax=0.8)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    state = WsState(w, rot, 1.0)
    out = push_forward(state, sample_uniform(2, 64, 33))
    assert np.max(np.abs(np.linalg.norm(out.points, axis=1) - 1.0)) <= 1e-12
    assert out.time == 1.0


def test_push_forward_matches_direct_simulation():
    om = SkewMatrix.random(2, 37, 1.0)
    ens0 = sample_uniform(2, 64, 39).with_omega(om)
    traj = simulate(ens0, MeanField(1.0), 1.0, 1e-3)
    path = ws_evolve(om, ReplayField.from_trajectory(traj), 1.0, 1e-3)
    pushed = push_forward(path[-1], ens0)
    mismatch = np.max(np.linalg.norm(pushed.points - traj.states[-1].points, axis=1))
    assert mismatch <= 1e-5


def test_push_forward_matches_direct_for_prescribed_field():
    # a closed-form field needs no recording, so this isolates the reduction
    # from any replay interpolation error
    om = SkewMatrix.random(2, 97, 1.0)
    field = PrescribedField(lambda t: np.array([0.3 * math.sin(2 * t), 0.1, 0.5 * math.cos(t)]))
    ens0 = sample_uniform(2, 32, 99).with_omega(om)
    traj = simulate(ens0, field, 2.0, 1e-3, record_every=10**9)
    path = ws_evolve(om, field, 2.0, 1e-3)
    pushed = push_forward(path[-1], ens0)
    mismatch = np.max(np.linalg.norm(pushed.points - traj.states[-1].points, axis=1))
    assert mismatch <= 1e-9


@pytest.mark.parametrize("d", [1, 3, 7])
def test_push_forward_equivalence_across_dimensions(d):
    om = SkewMatrix.random(d, 100 + d, 1.0)
    ens0 = sample_uniform(d, 16, 200 + d).with_omega(om)
    traj = simulate(ens0, MeanField(1.0), 0.5, 1e-3)
    path = ws_evolve(om, ReplayField.from_trajectory(traj), 0.5, 1e-3)
    pushed = push_forward(path[-1], ens0)
    mismatch = np.max(np.linalg.norm(pushed.points - traj.states[-1].points, axis=1))
    assert mismatch <= 1e-6


def test_conjugacy_residual_trivial_and_errors():
    field = PrescribedField(lambda t: np.zeros(3))
    path = ws_evolve(None, field, 0.01, 1e-3)
    pts = sample_uniform(2, 8, 41)
    assert conjugacy_residual(path, field, pts) <= 1e-14
    with pytest.raises(ValueError, match="three"):
        conjugacy_residual(path[:2], field, pts)
    uneven = [path[0], path[1], path[3]]
    with pytest.raises(ValueError, match="uniform"):
        conjugacy_residual(uneven, field, pts)


def test_conjugacy_residual_second_order():
    om = SkewMatrix.random(2, 43, 1.0)
    ens0 = sample_uniform(2, 32, 47).with_omega(om)
    samples = sample_uniform(2, 8, 53).with_omega(om)

    def residual(dt):
        traj = simulate(ens0, MeanField(1.0), 0.5, dt)
        replay = ReplayField.from_trajectory(traj)
        return conjugacy_residual(ws_evolve(om, replay, 0.5, dt), replay, samples)

    r1 = residual(2e-3)
    r2 = residual(1e-3)
    assert r1 <= 1e-5
    assert 4 / 1.3 <= r1 / r2 <= 4 * 1.3


def test_heterogeneous_push_forward_single_group_matches_plain():
    om = SkewMatrix.random(2, 59, 1.0)
    ens0 = sample_uniform(2, 16, 61).with_omega(om)
    traj = simulate(ens0, MeanField(1.0), 0.5, 1e-3)
    path = ws_evolve(om, ReplayField.from_trajectory(traj), 0.5, 1e-3)
    a = heterogeneous_push_forward({om: path[-1]}, ens0)
    b = push_forward(path[-1], ens0)
    np.testing.assert_array_equal(a.points, b.points)


def test_heterogeneous_push_forward_identity_and_missing_group():
    om_a = SkewMatrix.zero(2)
    om_b = SkewMatrix.planar(2, 1.0)
    pts = sample_uniform(2, 6, 67).points
    ens = Ensemble(pts, (om_a, om_b, om_a, om_b, om_a, om_b))
    states = {om_a: WsState.initial(2), om_b: WsState.initial(2)}
    out = heterogeneous_push_forward(states, ens)
    np.testing.assert_array_equal(out.points, ens.points)
    assert out.omega == ens.omega
    with pytest.raises(ValueError, match="missing"):
        heterogeneous_push_forward({om_a: WsState.initial(2)}, ens)


def test_heterogeneous_push_forward_matches_direct_two_groups():
    om_a = SkewMatrix.zero(2)
    om_b = SkewMatrix.planar(2, 1.0)
    pts = sample_uniform(2, 32, 71).points
    ens0 = Ensemble(pts, (om_a,) * 16 + (om_b,) * 16)
    traj = simulate(ens0, MeanField(1.0), 1.0, 1e-3)
    replay = ReplayField.from_trajectory(traj)
    paths = ws_evolve_groups([om_a, om_b], replay, 1.0, 1e-3)
    pushed = heterogeneous_push_forward({om: p[-1] for om, p in paths.items()}, ens0)
    mismatch = np.max(np.linalg.norm(pushed.points - traj.states[-1].points, axis=1))
    assert mismatch <= 1e-5


def test_algebraic_identity_residuals_random_states():
    rng = rng_stream(73)
    worst1 = worst3 = 0.0
    for _ in range(1000):
        w = random_ball_vector(rng, 3)
        m = renormalize(rng.standard_normal(3))
        x = rng.standard_normal(3)
        om = SkewMatrix(3, rng.standard_normal(3))
        r1, r3 = algebraic_identity_residuals(w, m, om, x)
        worst1 = max(worst1, r1)
        worst3 = max(worst3, r3)
    assert worst1 <= 1e-12
    assert worst3 <= 1e-12


def test_ws_state_validation():
    with pytest.raises(ValueError):
        WsState(np.array([1.0, 0.0, 0.0]), np.eye(3))  # |w| must be < 1
    with pytest.raises(ValueError):
        WsState(np.zeros(3), 2 * np.eye(3))


def test_ws_state_rejects_nan():
    with pytest.raises(ValueError):
        WsState(w=np.array([np.nan, 0.0, 0.0]), rotation=np.eye(3))
    with pytest.raises(ValueError):
        WsState(np.zeros(3), np.full((3, 3), np.nan))


def test_ws_evolve_names_the_non_finite_step():
    # the field turns infinite inside the step from t = 0.04 to t = 0.05
    field = PrescribedField(lambda t: np.full(3, math.inf if t > 0.042 else 0.5))
    with pytest.raises(ValueError, match=r"non-finite \(w, R\) state at step time t = 0\.05"):
        ws_evolve(None, field, 0.1, 1e-2)
