import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact_ws
from swarmsphere import (
    Ensemble,
    FrustratedField,
    MeanField,
    MobiusPoleError,
    PrescribedField,
    ReplayField,
    SkewMatrix,
    WinfreeField,
    WsPath,
    WsState,
    conjugacy_residual,
    cycle_ratio,
    push_forward,
    renormalize,
    rng_stream,
    sample_uniform,
    simulate,
    ws_evolve,
    ws_rhs,
)
from swarmsphere import ws as ws_module
from swarmsphere.dynamics import _rk4
from swarmsphere.geometry import reorthonormalize
from swarmsphere.ws import _apply_map


def map_point(w, x):
    """The reduction map with ball vector w and R = I at one point, as
    ``_apply_map`` runs it on a one-row array."""
    return _apply_map(w, np.eye(w.size), x[None])[0]


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
    # a coarse step costs accuracy but not orthogonality: the Cayley factor
    # of a skew increment is orthogonal at any step size
    field = PrescribedField(lambda t: np.array([1.5 * math.sin(3 * t), 0.5, 1.0]))
    om = SkewMatrix.random(2, 87, 2.0)
    path = ws_evolve(om, field, 20.0, 5e-2)
    worst = max(np.linalg.norm(st.rotation.T @ st.rotation - np.eye(3)) for st in path)
    assert worst <= 1e-12


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
    np.testing.assert_array_equal(map_point(np.zeros(3), x), x)


def test_mobius_hand_case():
    w = np.array([0.5, 0.0, 0.0])
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(map_point(w, e1), e1, atol=1e-15)


def test_mobius_inverse_and_sphere_preservation():
    rng = rng_stream(19)
    for _ in range(300):
        w = random_ball_vector(rng, 3, rmax=0.99)
        x = renormalize(rng.standard_normal(3))
        y = map_point(w, x)
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
        back = map_point(-w, y)
        assert np.linalg.norm(back - x) <= 1e-10


def test_mobius_pole_error():
    # the pole needs |w| within 1e-7 of the boundary: |x + w| = 1 - |w| at x = -w/|w|
    w = (1.0 - 1e-8) * np.array([1.0, 0.0])
    with pytest.raises(MobiusPoleError):
        map_point(w, np.array([-1.0, 0.0]))


def test_mobius_preserves_cross_ratio():
    rng = rng_stream(23)
    for _ in range(50):
        w = random_ball_vector(rng, 3, rmax=0.9)
        pts = [renormalize(rng.standard_normal(3)) for _ in range(4)]
        before = cycle_ratio(pts)
        after = cycle_ratio(_apply_map(w, np.eye(3), np.array(pts)))
        assert abs(after - before) <= 1e-10 * max(1.0, before)


def test_push_forward_identity_short_circuit():
    ens = sample_uniform(2, 8, 29)
    out = push_forward(WsState.initial(2), ens)
    assert out is ens
    # at any time: the state's time is not carried
    assert push_forward(WsState(np.zeros(3), np.eye(3), 1.0), ens) is ens


def test_push_forward_unit_norm_outputs():
    rng = rng_stream(31)
    w = random_ball_vector(rng, 3, rmax=0.8)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    state = WsState(w, rot, 1.0)
    out = push_forward(state, sample_uniform(2, 64, 33))
    assert np.max(np.abs(np.linalg.norm(out.points, axis=1) - 1.0)) <= 1e-12


def test_push_forward_matches_direct_simulation():
    om = SkewMatrix.random(2, 37, 1.0)
    ens0 = sample_uniform(2, 64, 39).with_omega(om)
    traj = simulate(ens0, MeanField(1.0), 1.0, 1e-3)
    path = ws_evolve(om, ReplayField.from_trajectory(traj), 1.0, 1e-3)
    pushed = push_forward(path[-1], ens0)
    mismatch = np.max(np.linalg.norm(pushed.points - traj.points[-1], axis=1))
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
    mismatch = np.max(np.linalg.norm(pushed.points - traj.points[-1], axis=1))
    assert mismatch <= 1e-9


@pytest.mark.parametrize("d", [1, 3, 7])
def test_push_forward_equivalence_across_dimensions(d):
    om = SkewMatrix.random(d, 100 + d, 1.0)
    ens0 = sample_uniform(d, 16, 200 + d).with_omega(om)
    traj = simulate(ens0, MeanField(1.0), 0.5, 1e-3)
    path = ws_evolve(om, ReplayField.from_trajectory(traj), 0.5, 1e-3)
    pushed = push_forward(path[-1], ens0)
    mismatch = np.max(np.linalg.norm(pushed.points - traj.points[-1], axis=1))
    assert mismatch <= 1e-6


def test_conjugacy_residual_trivial_and_errors():
    field = PrescribedField(lambda t: np.zeros(3))
    path = ws_evolve(None, field, 0.01, 1e-3)
    pts = sample_uniform(2, 8, 41)
    assert conjugacy_residual(path, field, pts) <= 1e-14
    with pytest.raises(ValueError, match="three"):
        conjugacy_residual(path[:2], field, pts)
    uneven = path[[0, 1, 3]]
    with pytest.raises(ValueError, match="uniform"):
        conjugacy_residual(uneven, field, pts)
    with pytest.raises(ValueError, match="dimensions do not match"):
        conjugacy_residual(path, field, sample_uniform(3, 8, 41))
    # states of two dimensions do not make one stack
    with pytest.raises(ValueError, match=r"must be \(\.\.\., d\+1\)"):
        WsState(np.zeros((3, 3)), np.stack((np.eye(4),) * 3), path.time[:3])


def _replayed_conjugacy(ens0, field, t_end, dt):
    """The conjugacy residual of ens0's run under ``field``, replayed into
    the reduced system, at ens0's own points."""
    replay = ReplayField.from_trajectory(simulate(ens0, field, t_end, dt))
    return conjugacy_residual(ws_evolve(ens0.omega, replay, t_end, dt), replay, ens0)


def test_conjugacy_residual_falls_at_least_6x_per_halving():
    # Simpson's rule on the pushed samples falls about 8x per halving here
    # (the replay's first and last steps interpolate to O(dt^3)); a central
    # difference fell 4x
    om = SkewMatrix.random(2, 43, 1.0)
    ens0 = sample_uniform(2, 32, 47).with_omega(om)
    r = [_replayed_conjugacy(ens0, MeanField(1.0), 0.5, dt) for dt in (1e-2, 5e-3, 2.5e-3)]
    assert r[0] <= 1e-7
    assert r[0] / r[1] >= 6 and r[1] / r[2] >= 6


def test_conjugacy_residual_passes_a_fast_frustrated_run_at_a_coarse_step():
    # the frustrated field under a scale-3 generator turns fast: the central
    # difference read 1.7e-2 at dt = 0.02, Simpson's rule reads 2.8e-5
    ens0 = sample_uniform(2, 32, 1).with_omega(SkewMatrix.random(2, 7, 3.0))
    field = FrustratedField(1.0, [[1.0, 0.6, 0.0], [-0.6, 1.0, 0.3], [0.0, -0.3, 1.0]])
    assert _replayed_conjugacy(ens0, field, 2.0, 0.02) <= 1e-4


def test_heterogeneous_push_forward_single_group_matches_plain():
    # labels of one generator are one group: one map, the bits of the shared generator's
    om = SkewMatrix.random(2, 59, 1.0)
    ens0 = sample_uniform(2, 16, 61).with_omega(om)
    traj = simulate(ens0, MeanField(1.0), 0.5, 1e-3)
    replay = ReplayField.from_trajectory(traj)
    path = ws_evolve(om, replay, 0.5, 1e-3)
    labelled = ws_evolve((om,) * 16, replay, 0.5, 1e-3)
    assert labelled.w.tobytes() == path.w.tobytes()
    assert labelled.rotation.tobytes() == path.rotation.tobytes()
    a = push_forward(labelled[-1], ens0.with_omega((om,) * 16))
    b = push_forward(path[-1], ens0)
    np.testing.assert_array_equal(a.points, b.points)


def test_heterogeneous_push_forward_identity_and_missing_group():
    om_a = SkewMatrix.zero(2)
    om_b = SkewMatrix.planar(2, 1.0)
    pts = sample_uniform(2, 6, 67).points
    ens = Ensemble(pts, (om_a, om_b, om_a, om_b, om_a, om_b))
    identity = WsState(np.zeros((2, 3)), np.stack((np.eye(3),) * 2), 0.0)
    out = push_forward(identity, ens)
    np.testing.assert_array_equal(out.points, ens.points)
    assert out.omega == ens.omega
    with pytest.raises(ValueError, match="one map per generator group"):
        push_forward(WsState.initial(2), ens)


def test_heterogeneous_push_forward_matches_direct_two_groups():
    om_a = SkewMatrix.zero(2)
    om_b = SkewMatrix.planar(2, 1.0)
    pts = sample_uniform(2, 32, 71).points
    ens0 = Ensemble(pts, (om_a,) * 16 + (om_b,) * 16)
    traj = simulate(ens0, MeanField(1.0), 1.0, 1e-3)
    replay = ReplayField.from_trajectory(traj)
    path = ws_evolve(ens0.omega, replay, 1.0, 1e-3)
    pushed = push_forward(path[-1], ens0)
    mismatch = np.max(np.linalg.norm(pushed.points - traj.points[-1], axis=1))
    assert mismatch <= 1e-5


def test_a_grouped_path_stacks_each_groups_own_run_bit_for_bit():
    # groups in the order of omega_groups(): the planar generator comes first
    planar, zero = SkewMatrix.planar(2, 1.0), SkewMatrix.zero(2)
    field = PrescribedField(lambda t: np.array([0.0, 0.0, 20.0]))  # reaches the ball guard
    labels = (planar, zero, planar, SkewMatrix.planar(2, 1.0))
    assert [om for om, _ in Ensemble(sample_uniform(2, 4, 1).points, labels).omega_groups()] \
        == [planar, zero]
    path = ws_evolve(labels, field, 1.5, 1e-3)
    assert type(path) is WsPath and path.w.shape == (1501, 2, 3)
    assert path.rotation.shape == (1501, 2, 3, 3) and path.time.shape == (1501,)
    guard = 0
    for g, om in enumerate((planar, zero)):
        own = ws_evolve(om, field, 1.5, 1e-3)
        assert path.w[:, g].tobytes() == own.w.tobytes()
        assert path.rotation[:, g].tobytes() == own.rotation.tobytes()
        assert path.time.tobytes() == own.time.tobytes()
        guard += own.guard_events
    assert path.guard_events == guard > 0
    # one state of the path is one instant, not a stack of its groups
    state = path[-1]
    assert type(state.time) is float and state.w.shape == (2, 3)
    with pytest.raises(TypeError):
        len(state)
    with pytest.raises(TypeError):
        state[0]
    assert ws_evolve([planar, zero], field, 0.01, 1e-3).w.shape == (11, 2, 3)
    with pytest.raises(ValueError, match="^need at least one generator label$"):
        ws_evolve((), field, 0.01, 1e-3)
    with pytest.raises(ValueError, match="generator dimension must match the ambient dimension"):
        ws_evolve((planar, SkewMatrix.zero(3)), field, 0.01, 1e-3)
    with pytest.raises(TypeError, match="omega must be None, a SkewMatrix, or a tuple"):
        ws_evolve("planar", field, 0.01, 1e-3)


def _two_groups():
    om = SkewMatrix.planar(2, 1.0)
    ens = sample_uniform(2, 8, 3).with_omega((om, SkewMatrix.zero(2)) * 4)
    field = PrescribedField(_smooth_field)
    return ens, field, ws_evolve(om, field, 0.05, 1e-2), ws_evolve(ens.omega, field, 0.05, 1e-2)


def test_push_forward_refuses_a_one_map_state_on_two_groups_by_name():
    # it used to move every particle by the one map, whatever its generator
    ens, _, one_map, grouped = _two_groups()
    with pytest.raises(ValueError, match=r"^need one state with one map per generator group of the "
                                         r"ensemble, w \(2, 3\), not w \(3,\)$"):
        push_forward(one_map[-1], ens)
    assert push_forward(grouped[-1], ens).omega is ens.omega


def test_a_grouped_state_has_one_time_per_instant():
    ens, field, _, grouped = _two_groups()
    rot = np.stack((np.eye(3),) * 2)
    assert len(WsState(np.zeros((4, 2, 3)), np.stack((rot,) * 4), np.arange(4) * 0.1)) == 4
    with pytest.raises(ValueError, match=r"not \(4, 2, 3\), \(4, 2, 3, 3\) and \(2,\)"):
        WsState(np.zeros((4, 2, 3)), np.stack((rot,) * 4), np.zeros(2))
    # a time per group makes a stack of one-map states, which a push-forward refuses
    st = grouped[-1]
    with pytest.raises(ValueError, match=r"^need one state with one map per generator group of the "
                                         r"ensemble, w \(2, 3\), not w \(2, 3\) and time \(2,\)$"):
        push_forward(WsState(st.w, st.rotation, np.full(2, st.time)), ens)
    per_group = np.stack((grouped.time,) * 2, axis=1)
    with pytest.raises(ValueError, match=r"^need a path with one map per generator group of the "
                                         r"ensemble, w \(6, 2, 3\), not w \(6, 2, 3\) and time \(6, 2\)$"):
        conjugacy_residual(WsState(grouped.w, grouped.rotation, per_group), field, ens)


def test_conjugacy_residual_refuses_a_one_map_path_on_two_groups_by_name():
    # it used to push every sample through the one map: 1.0 at the
    # heterogeneous-groups config over t in [0, 1], where each group's own map gives 2.1e-7
    ens, field, one_map, grouped = _two_groups()
    with pytest.raises(ValueError, match=r"^need a path with one map per generator group of the "
                                         r"ensemble, w \(6, 2, 3\), not w \(6, 3\)$"):
        conjugacy_residual(one_map, field, ens)
    assert conjugacy_residual(grouped, field, ens) <= 1e-3


def _ulps(got, want, scale) -> float:
    """The largest |got - want| over entries, floats against exact
    Fractions, in ulps of the largest entry of ``scale``."""
    err = max(abs(Fraction(g) - e) for g, e in zip(np.ravel(got).tolist(), np.ravel(want)))
    return float(err / Fraction(math.ulp(float(np.max(scale)))))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_the_float_rates_and_map_match_the_exact_formulas(d):
    # at float inputs read exactly as Fractions; a rate's scale is its terms
    # at absolute values, the bound of a sum with cancellation, and the map's
    # is its image, on the sphere
    rng = rng_stream(d)
    for _ in range(200):
        w = random_ball_vector(rng, d + 1)
        x = rng.standard_normal(d + 1)
        om = SkewMatrix(d + 1, rng.standard_normal(d * (d + 1) // 2)).matrix
        points = rng.standard_normal((2, d + 1))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        wq, xq = ([Fraction(v) for v in a.tolist()] for a in (w, x))
        omq = [[Fraction(v) for v in row] for row in om.tolist()]
        aw, ax = np.abs(w), np.abs(x)
        dw_scale = np.abs(om) @ aw + 0.5 * (1.0 + w @ w) * ax + (aw @ ax) * aw
        assert _ulps(ws_module._dw(w, om, x), exact_ws.exact_dw(wq, omq, xq), dw_scale) <= 16
        gen_scale = np.abs(om) + ax[:, None] * aw + aw[:, None] * ax
        assert _ulps(ws_module._generator(w, x, om), exact_ws.exact_generator(wq, xq, omq),
                     gen_scale) <= 16
        images = [exact_ws.mobius(wq, [Fraction(v) for v in p]) for p in points.tolist()]
        assert _ulps(ws_module._mobius_rows(w, points), images, np.abs(np.ravel(images))) <= 16


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_the_reduction_map_keeps_cycle_ratios_exactly(d):
    # the cross-ratio constants of motion, with no integrator in the way
    rng = random.Random(d)
    for k in (2, 3, 4):
        for _ in range(10):
            w, rot = exact_ws.draw(rng, d)[:2]
            points = exact_ws.distinct_sphere_points(rng, d, 2 * k)
            images = [exact_ws.mobius(w, exact_ws.matvec(rot, p)) for p in points]
            assert all(exact_ws.dot(y, y) == 1 for y in images)
            assert exact_ws.cycle_ratio(images) == exact_ws.cycle_ratio(points)


def _dw_with_a_third(w, omega, x):
    """dw/dt with 1/3 planted for its 1/2."""
    ww, wx = exact_ws.dot(w, w), exact_ws.dot(w, x)
    return [o + (1 + ww) * a / 3 - wx * b for o, a, b in zip(exact_ws.matvec(omega, w), x, w)]


def _generator_with_w_xt_flipped(w, x, omega):
    """A with the sign of its w X^T term planted as +."""
    return [[o + x[i] * w[j] + w[i] * x[j] for j, o in enumerate(row)] for i, row in enumerate(omega)]


@pytest.mark.parametrize("planted", [{"dw": _dw_with_a_third},
                                     {"generator": _generator_with_w_xt_flipped}],
                         ids=["dw-half-as-third", "generator-w-xT-sign"])
def test_a_planted_rate_makes_the_exact_residual_nonzero(planted):
    # the exact identity check can fail: each planted change is seen at every d
    for d in (1, 2, 3, 5, 8):
        draw = exact_ws.draw(random.Random(d), d)
        assert not any(exact_ws.flow_residual(*draw))
        assert any(exact_ws.flow_residual(*draw, **planted))


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


def test_ws_state_refuses_a_bad_member_of_a_stack_by_name():
    rot = np.stack([np.eye(3)] * 4)
    w = np.zeros((4, 3))
    times = np.arange(4) * 0.1
    assert len(WsState(w, rot, times)) == 4
    with pytest.raises(ValueError, match=r"not \(4, 3\), \(3, 3, 3\) and \(4,\)"):
        WsState(w, rot[:3], times)
    with pytest.raises(ValueError, match=r"not \(4, 3\), \(4, 3, 3\) and \(3,\)"):
        WsState(w, rot, times[:3])
    for bad_time in (math.nan, math.inf):
        with pytest.raises(ValueError, match="state times must be finite"):
            WsState(np.zeros(3), np.eye(3), bad_time)
        with pytest.raises(ValueError, match="state times must be finite"):
            WsState(w, rot, np.where(np.arange(4) == 2, bad_time, times))
    outside = w.copy()
    outside[3] = [0.0, 1.0, 0.0]
    with pytest.raises(ValueError, match="ball vector must have norm strictly below one"):
        WsState(outside, rot, times)
    skewed = rot.copy()
    skewed[1, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="rotation is not orthogonal within tolerance"):
        WsState(w, skewed, times)


def test_a_path_is_one_stack_whose_members_have_its_bits():
    dt = 1e-2
    path = ws_evolve(SkewMatrix.random(2, 5, 1.0), PrescribedField(_smooth_field), 0.5, dt)
    assert type(path) is WsPath and len(path) == 51 and path.w.shape == (51, 3)
    for s in range(len(path)):
        st = path[s]
        assert type(st) is WsState and type(st.time) is float
        assert st.w.tobytes() == path.w[s].tobytes()
        assert st.rotation.tobytes() == path.rotation[s].tobytes()
        assert st.time == s * dt
    picked = path[[0, 1, 3]]
    assert len(picked) == 3 and picked.time.tolist() == [0.0, dt, 3 * dt]
    assert path[10:20].w.tobytes() == path.w[10:20].tobytes()
    for arr in (path.w, path.rotation, path.time):
        assert not arr.flags.writeable
    single = path[-1]
    with pytest.raises(TypeError):
        len(single)
    with pytest.raises(TypeError):
        single[0]


def test_push_forwards_refuse_a_stack_of_states():
    om = SkewMatrix.planar(2, 1.0)
    path = ws_evolve(om, PrescribedField(_smooth_field), 0.05, 1e-2)
    ens = sample_uniform(2, 6, 3).with_omega(om)
    with pytest.raises(ValueError, match=r"not w \(6, 3\); index a path"):
        push_forward(path, ens)
    grouped = ens.with_omega((om, SkewMatrix.zero(2)) * 3)
    with pytest.raises(ValueError, match=r"not w \(6, 2, 3\); index a path"):
        push_forward(ws_evolve(grouped.omega, PrescribedField(_smooth_field), 0.05, 1e-2), grouped)
    assert push_forward(path[-1], ens).omega is ens.omega


@pytest.mark.parametrize("field", [MeanField(1.0), FrustratedField(1.0, np.eye(3)),
                                   WinfreeField(1.0, [0.0, 0.0, 1.0])],
                         ids=lambda f: type(f).__name__)
def test_conjugacy_residual_refuses_a_state_dependent_field_by_name(field):
    path = ws_evolve(None, PrescribedField(_smooth_field), 0.05, 1e-2)
    name = type(field).__name__
    with pytest.raises(ValueError, match=f"prescribed or replayed driving field, not {name}"):
        conjugacy_residual(path, field, sample_uniform(2, 8, 1))


def test_ws_evolve_names_the_non_finite_step():
    # the field turns infinite inside the step from t = 0.04 to t = 0.05
    field = PrescribedField(lambda t: np.full(3, math.inf if t > 0.042 else 0.5))
    with pytest.raises(ValueError, match=r"non-finite \(w, R\) state at step time t = 0\.05"):
        ws_evolve(None, field, 0.1, 1e-2)


def test_ws_evolve_names_the_first_non_finite_step_of_a_later_block():
    # blocks of 113 steps at d = 2; X turns NaN in the step from t = 1.30
    # to 1.31, so step 131, in the second block, is the first non-finite one
    assert ws_module._BLOCK_FLOATS // (4 * 3 * 3) == 113
    field = PrescribedField(lambda t: np.array([0.0, 0.0, 1.0]) if t < 1.305 else np.full(3, math.nan))
    with pytest.raises(ValueError, match=f"^non-finite \\(w, R\\) state at step time t = {131 * 1e-2}$"):
        ws_evolve(None, field, 2.0, 1e-2)


@pytest.mark.parametrize("t_end, dt, message", [
    (math.nan, 1e-2, "t_end must be finite and nonnegative"),
    (math.inf, 1e-2, "t_end must be finite and nonnegative"),
    (1.0, math.nan, "dt must be positive"),
])
def test_ws_evolve_rejects_non_finite_run_arguments_by_name(t_end, dt, message):
    with pytest.raises(ValueError, match=message):
        ws_evolve(None, PrescribedField(lambda t: np.zeros(3)), t_end, dt)


# Reference integrator that ws_evolve replaced: (w, R) stacked as one array
# and stepped by classical RK4, with R re-orthonormalised every 100 steps, at
# the end and whenever its defect exceeds 1e-9.  The right-hand side is
# written out as it was.  Returns [(w, R)] per step and the guard count.
def _reference_ws_evolve(omega, field, t_end, dt):
    dim = np.asarray(field.evaluate(None, 0.0)).size
    steps = int(round(t_end / dt))
    eye = np.eye(dim)
    y = np.vstack((eye, np.zeros(dim)))

    def rhs(yc, ts):
        w, rot = yc[-1], yc[:-1]
        x = np.asarray(field.evaluate(None, ts), dtype=float)
        w2 = float(w @ w)
        wx = float(w @ x)
        dw = 0.5 * (1.0 + w2) * x - wx * w
        coupling = x[:, None] * w - w[:, None] * x
        if omega is not None:
            dw = dw + omega.matrix @ w
            coupling = coupling + omega.matrix
        return np.concatenate((coupling @ rot, dw[None]))

    out, guard = [(y[-1].copy(), y[:-1].copy())], 0
    for s in range(1, steps + 1):
        y = _rk4(y, rhs, (s - 1) * dt, dt)
        wn = float(np.linalg.norm(y[-1]))
        if wn >= 1.0 - 1e-10:
            y[-1] *= (1.0 - 1e-10) / wn
            guard += 1
        rot = y[:-1]
        if s % 100 == 0 or s == steps or np.linalg.norm(rot.T @ rot - eye) > 1e-9:
            y[:-1] = reorthonormalize(rot)
        out.append((y[-1].copy(), y[:-1].copy()))
    return out, guard


# Reference push-forward of one state, as it was before states were
# pushed as stacks.
def _reference_push(st, pts):
    if not st.w.any() and np.array_equal(st.rotation, np.eye(st.d + 1)):
        return pts
    s = pts @ st.rotation.T + st.w
    q = np.einsum("ij,ij->i", s, s)
    return st.w + s * ((1.0 - float(st.w @ st.w)) / q)[:, None]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_stacked_map_matches_the_one_state_push_bit_for_bit(d):
    rng = np.random.default_rng(60 + d)
    pts = sample_uniform(d, 16, 61 + d).points
    states = [WsState(random_ball_vector(rng, d + 1), np.linalg.qr(rng.standard_normal((d + 1, d + 1)))[0])
              for _ in range(40)]
    stacked = ws_module._apply_map(np.array([st.w for st in states]),
                                   np.array([st.rotation for st in states]), pts)
    for st, got in zip(states, stacked):
        want = _reference_push(st, pts)
        assert got.tobytes() == want.tobytes()
        assert push_forward(st, Ensemble(pts)).points.tobytes() == want.tobytes()


# Reference push of one state with a map per generator group: each group's
# points on their own, through the group's map.
def _reference_group_push(st, samples):
    if st.w.ndim == 1:
        return _reference_push(st, samples.points)
    out = np.empty_like(samples.points)
    for g, (_, idx) in enumerate(samples.omega_groups()):
        out[idx] = _reference_push(WsState(st.w[g], st.rotation[g], st.time), samples.points[idx])
    return out


# Reference conjugacy check that conjugacy_residual replaced: every state
# pushed on its own, one velocity and field call per state, and Simpson's
# rule over the two steps around each interior state.
def _reference_conjugacy(states, field, samples):
    times = np.array([st.time for st in states])
    dt = np.diff(times)[0]
    pushed = [_reference_group_push(st, samples) for st in states]
    v = []
    for t, p in zip(times, pushed):
        x = np.asarray(field.evaluate(None, t), dtype=float)
        vi = x[None, :] - np.einsum("...ij,...j->...i", p, x)[..., None] * p
        for om, idx in samples.omega_groups():
            if om is None:
                continue
            if idx.size == samples.n:
                vi += p @ om.matrix.T
            else:
                vi[idx] += p[idx] @ om.matrix.T
        v.append(vi)
    worst = 0.0
    for i in range(1, len(states) - 1):
        gap = (pushed[i + 1] - pushed[i - 1]) - (dt / 3.0) * (v[i - 1] + 4.0 * v[i] + v[i + 1])
        worst = max(worst, float(np.max(np.linalg.norm(gap, axis=1))) / (2.0 * dt))
    return worst


def _smooth_field(t):
    return np.array([0.3 * math.sin(2 * t), 0.1, 0.5 * math.cos(t)])


def _replayed():
    om = SkewMatrix.random(2, 3, 1.0)
    traj = simulate(sample_uniform(2, 16, 4).with_omega(om), MeanField(1.0), 1.0, 1e-3)
    return ReplayField.from_trajectory(traj)


# omega, field factory, t_end, dt
WS_CASES = {
    "replay": (SkewMatrix.random(2, 3, 1.0), _replayed, 1.0, 1e-3),
    "prescribed_no_omega": (None, lambda: PrescribedField(_smooth_field), 2.0, 1e-3),
    "prescribed_random_omega": (SkewMatrix.random(2, 97, 1.0), lambda: PrescribedField(_smooth_field),
                                2.0, 1e-3),
    "d3_prescribed": (SkewMatrix.random(3, 5, 1.0),
                      lambda: PrescribedField(lambda t: np.array([math.sin(t), 0.2, -0.4, math.cos(3 * t)])),
                      1.0, 1e-3),
    # w = tanh(10 t) e_3 reaches the guard band after about 1.2 time units
    "ball_guard": (None, lambda: PrescribedField(lambda t: np.array([0.0, 0.0, 20.0])), 1.5, 1e-3),
}


@pytest.mark.parametrize("case", WS_CASES)
def test_ws_evolve_w_matches_the_stacked_rk4_bit_for_bit(case):
    omega, make_field, t_end, dt = WS_CASES[case]
    path = ws_evolve(omega, make_field(), t_end, dt)
    want, guard = _reference_ws_evolve(omega, make_field(), t_end, dt)
    assert path.guard_events == guard and (guard > 0) == (case == "ball_guard")
    assert [st.time for st in path] == [s * dt for s in range(len(want))]
    assert np.array([st.w for st in path]).tobytes() == np.array([w for w, _ in want]).tobytes()
    rot_gap = np.abs(np.array([st.rotation for st in path]) - np.array([r for _, r in want]))
    assert rot_gap.max() <= 1e-10
    assert not path[-1].w.flags.writeable and not path[-1].rotation.flags.writeable


def test_ws_evolve_is_fourth_order():
    om = SkewMatrix.random(2, 87, 1.0)
    field = PrescribedField(lambda t: np.array([1.5 * math.sin(3 * t), 0.5, math.cos(t)]))
    fine = ws_evolve(om, field, 2.0, 0.05 / 64)[-1]
    errs = [np.linalg.norm(ws_evolve(om, field, 2.0, h)[-1].rotation - fine.rotation)
            for h in (0.05, 0.025, 0.0125)]
    for coarse, finer in zip(errs, errs[1:]):
        assert 16 * 0.75 <= coarse / finer <= 16 * 1.25


def test_ws_evolve_keeps_r_orthogonal_over_5000_steps_without_correction():
    path = ws_evolve(SkewMatrix.random(2, 5, 1.0), PrescribedField(_smooth_field), 5.0, 1e-3)
    assert len(path) == 5001
    worst = max(np.linalg.norm(st.rotation.T @ st.rotation - np.eye(3)) for st in path)
    assert worst < 1e-12


@pytest.mark.parametrize("case", ["replay", "prescribed_random_omega", "d3_prescribed"])
def test_conjugacy_residual_matches_the_per_state_loop_bit_for_bit(case):
    omega, make_field, t_end, dt = WS_CASES[case]
    field = make_field()
    path = ws_evolve(omega, field, t_end, dt)
    d = path[0].d
    one_group = sample_uniform(d, 8, 5).with_omega(omega)
    # interleaved labels (index arrays) and a contiguous run (a slice), several blocks of states
    labels = (SkewMatrix.planar(d, 1.0), SkewMatrix.zero(d)) * 4 + (SkewMatrix.random(d, 6, 0.5),) * 8
    mixed = Ensemble(sample_uniform(d, 16, 6).points, labels)
    for samples in (one_group, sample_uniform(d, 3, 7)):
        got = conjugacy_residual(path, field, samples)
        assert got == _reference_conjugacy(path, field, samples)
    # the mixed samples' three groups each move by their own map
    grouped = ws_evolve(mixed.omega, field, t_end, dt)
    assert grouped.w.shape == (len(path), 3, d + 1)
    assert conjugacy_residual(grouped, field, mixed) == _reference_conjugacy(grouped, field, mixed)
    assert conjugacy_residual(grouped[:3], field, mixed) == _reference_conjugacy(grouped[:3], field, mixed)


def test_conjugacy_residual_is_nan_when_any_instant_is():
    # the field turns NaN in the second half; pushing per state used to
    # skip those instants and report the first half's residual
    field = PrescribedField(lambda t: np.array([0.3, 0.1, 0.2]))
    path = ws_evolve(None, field, 0.1, 1e-2)
    broken = PrescribedField(lambda t: np.array([0.3, 0.1, math.nan if t > 0.05 else 0.2]))
    assert math.isnan(conjugacy_residual(path, broken, sample_uniform(2, 8, 1)))


def _hermite_as_written(knots, values, slopes, t):
    """The scalar interpolant with its original arithmetic, ``** 2`` included."""
    if t <= knots[0]:
        return values[0]
    if t >= knots[-1]:
        return values[-1]
    i = bisect_right(knots, t) - 1
    h = knots[i + 1] - knots[i]
    s = (t - knots[i]) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * values[i] + h10 * h * slopes[i] + h01 * values[i + 1] + h11 * h * slopes[i + 1]


GRIDS = {
    "uniform": np.linspace(0.0, 2.0, 41),
    "non_uniform": np.cumsum(np.concatenate(([0.3], 0.01 + rng_stream(8).random(40) * 0.1))),
    # the step doubles half way: five-point, centred and one-sided slopes all occur
    "kinked": np.concatenate((np.linspace(0.0, 0.5, 21), 0.5 + 0.05 * np.arange(1, 11))),
}


@pytest.mark.parametrize("grid", GRIDS)
def test_replay_batch_evaluation_equals_the_one_time_call_bitwise(grid):
    times = GRIDS[grid]
    rng = rng_stream(9)
    replay = ReplayField(times, rng.standard_normal((times.size, 3)))
    tol = replay._tol
    ts = np.concatenate((times, rng.uniform(times[0], times[-1], 2000),
                         [times[0] - 0.5 * tol, times[-1] + 0.5 * tol]))
    got = replay._at_times(ts)
    assert got.tobytes() == np.array([replay.evaluate(None, t) for t in ts]).tobytes()
    knots = times.tolist()
    written = [_hermite_as_written(knots, replay.values, replay._slopes, t) for t in ts.tolist()]
    assert got.tobytes() == np.array(written).tobytes()
    for outside in (times[0] - 2 * tol, times[-1] + 2 * tol):
        with pytest.raises(ValueError, match="span"):
            replay._at_times(np.array([times[0], outside]))


def test_prescribed_batch_evaluation_calls_the_function_per_time():
    field = PrescribedField(_smooth_field)
    ts = np.linspace(0.0, 1.0, 7)
    assert field._at_times(ts).tobytes() == np.array([_smooth_field(t) for t in ts.tolist()]).tobytes()


def _random_rotation(rng, dim):
    rot = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    return rot


@settings(deadline=None, max_examples=60)
@given(d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_mobius_inverse_returns_every_point(d, seed):
    rng = rng_stream(seed)
    w = random_ball_vector(rng, d + 1, rmax=0.9)
    x = renormalize(rng.standard_normal(d + 1))
    assert np.linalg.norm(map_point(-w, map_point(w, x)) - x) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_push_forward_preserves_cross_ratios(d, seed):
    rng = rng_stream(seed)
    state = WsState(random_ball_vector(rng, d + 1, rmax=0.9), _random_rotation(rng, d + 1), 1.0)
    ens = sample_uniform(d, 4, seed)
    gaps = [np.sum((ens.points[i] - ens.points[j]) ** 2) for i in range(4) for j in range(i)]
    assume(min(gaps) > 1e-3)
    before = cycle_ratio(ens.points)
    after = cycle_ratio(push_forward(state, ens).points)
    assert abs(after - before) <= 1e-10 * before


@pytest.mark.parametrize("func, shape", [
    (lambda t: 1.0, r"\(\)"),
    (lambda t: np.zeros((2, 3)), r"\(2, 3\)"),
    (lambda t: np.zeros(3 if t < 0.005 else 4), r"\(3,\), \(4,\)"),
    (lambda t: np.zeros(1), r"\(1,\)"),
], ids=["scalar", "matrix", "ragged", "one_component"])
def test_a_prescribed_field_must_return_one_vector_of_a_fixed_width(func, shape):
    field = PrescribedField(func)
    message = (r"^PrescribedField must return one vector of a fixed width d\+1 >= 2, "
               rf"not arrays of shape {shape}$")
    with pytest.raises(ValueError, match=message):
        ws_evolve(None, field, 0.01, 1e-3)
    good = ws_evolve(None, PrescribedField(lambda t: np.zeros(3)), 0.01, 1e-3)
    with pytest.raises(ValueError, match=message):
        conjugacy_residual(good, field, sample_uniform(2, 8, 41))


def test_conjugacy_residual_refuses_times_that_do_not_increase():
    field = PrescribedField(lambda t: np.array([0.3, 0.0, 0.1]))
    path = ws_evolve(None, field, 0.01, 1e-3)
    pts = sample_uniform(2, 8, 41)
    for stalled in (path[[1, 1, 1]], path[::-1]):
        with pytest.raises(ValueError, match="^state times must increase$"):
            conjugacy_residual(stalled, field, pts)
