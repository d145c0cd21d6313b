import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from swarmsphere import (
    Ensemble,
    FrustratedField,
    MeanField,
    SkewMatrix,
    WinfreeField,
    ball_mass,
    conservation_drift,
    dR2_dt_analytic,
    exact_mean,
    instability_experiment,
    order_parameter,
    order_parameter_series,
    per_omega_conservation,
    rng_stream,
    sample_uniform,
    sample_vmf,
    renormalize,
    simulate,
    tangent_project,
)
from swarmsphere.dynamics import _snapshot_blocks
from swarmsphere.functionals import _draw_cycles
from swarmsphere.geometry import _FOLD_MIN_ROWS
from swarmsphere import kinetic
from swarmsphere.kinetic import (_RECORD_EVERY, _closest_pairs, _mixed_tuple_values,
                                 _series_with_instability)


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


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_dR2_analytic_matches_finite_difference(kappa):
    # dR^2/dt = 2 kappa E|x_c - <x, x_c> x|^2 under MeanField(kappa)
    ens = sample_vmf([0.0, 0.0, 1.0], 1.0, 256, 5)
    series, _ = order_parameter_series(ens, MeanField(kappa), 0.2, 1e-3, record_every=1)
    fd = (series.R2[2:] - series.R2[:-2]) / (series.times[2:] - series.times[:-2])
    defect = np.max(np.abs(series.dR2_analytic[1:-1] - fd))
    assert defect <= 1e-4
    assert series.dR2_analytic[0] == kappa * dR2_dt_analytic(ens)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_dR2_analytic_is_the_rounded_total_of_the_particle_terms(d):
    # each particle's |x_c - <y, x_c> y|^2 as einsum sums it, then one
    # correctly rounded total: no order of the particles changes a bit
    for seed in range(8):
        ens = sample_vmf(np.eye(d + 1)[-1], 1.0, 500, seed)
        x_c = exact_mean(ens.points)
        resid = x_c - np.einsum("ij,j->i", ens.points, x_c)[:, None] * ens.points
        terms = np.einsum("ij,ij->i", resid, resid).tolist()
        value = dR2_dt_analytic(ens)
        assert value == 2.0 * math.fsum(terms) / ens.n
        perm = rng_stream(seed, stream=1).permutation(ens.n)
        assert dR2_dt_analytic(Ensemble(ens.points[perm])) == value


@pytest.mark.parametrize("d", [1, 2, 7, 9])
def test_dR2_dt_and_ball_masses_take_either_layout(d):
    # a stack's own columns and the transpose view of row-major points
    rows = sample_vmf(np.eye(d + 1)[-1], 2.0, 301, d).points
    cols = np.ascontiguousarray(rows.T)
    x_c = exact_mean(rows)
    assert kinetic._dR2_dt(cols, x_c) == kinetic._dR2_dt(rows.T, x_c)
    g = x_c / np.linalg.norm(x_c)
    centers = np.stack([g, -g, np.eye(d + 1)[0]])
    masses = kinetic._ball_masses(cols, centers, 0.7)
    assert masses.tobytes() == kinetic._ball_masses(rows.T, centers, 0.7).tobytes()
    assert 0.0 < masses[0] < 1.0


def test_derivative_identity_is_nan_under_a_field_other_than_the_mean_field():
    ens = sample_vmf([0.0, 0.0, 1.0], 1.0, 32, 5)
    field = FrustratedField(1.0, [[1.0, 0.3, 0.0], [-0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])
    series, _ = order_parameter_series(ens, field, 0.2, 1e-2)
    assert math.isnan(series.derivative_defect)
    assert np.isnan(series.dR2_analytic).all() and np.isfinite(series.R2).all()


def test_derivative_identity_is_nan_with_several_generator_groups():
    # differing rotations add 2<x_c, mean(Omega_i x_i)> to dR2/dt; the central
    # difference read a defect of 6.2e-3 here
    points = sample_vmf([0.0, 0.0, 1.0], 1.0, 64, 3).points
    planar = SkewMatrix.planar(2, 1.0)
    two = Ensemble(points, (SkewMatrix.zero(2),) * 32 + (planar,) * 32)
    series, _ = order_parameter_series(two, MeanField(1.0), 1.0, 1e-3)
    assert math.isnan(series.derivative_defect)
    assert np.isnan(series.dR2_analytic).all() and np.isfinite(series.R2).all()
    # one common generator rotates x_c with the points, so the identity holds
    common, _ = order_parameter_series(Ensemble(points, planar), MeanField(1.0), 1.0, 1e-3)
    assert common.derivative_defect <= 1e-12
    assert common.dR2_analytic[0] == dR2_dt_analytic(Ensemble(points))


def test_an_exactly_antipodal_population_records_no_axis():
    # R = 0: no polarisation axis, so the axis and the masses around it are NaN
    series, final = order_parameter_series(bipolar(2, 4, 4), MeanField(1.0), 0.05, 1e-2)
    assert series.times.size == 6
    assert np.all(series.R2 == 0.0) and np.all(series.dR2_analytic == 0.0)
    assert np.isnan(series.gamma).all() and series.gamma.shape == (6, 3)
    assert np.isnan(series.mass_plus).all() and np.isnan(series.mass_minus).all()
    assert np.array_equal(final.points, bipolar(2, 4, 4).points)


def test_derivative_defect_is_measured_at_the_step_spacing():
    ens = sample_vmf([0.0, 0.0, 1.0], 1.0, 64, 5)
    every, every_final = order_parameter_series(ens, MeanField(1.0), 0.5, 1e-2, record_every=1)
    # Simpson's rule for the integral of dR2/dt over the two steps around each interior state
    span = every.times[2:] - every.times[:-2]
    f = every.dR2_analytic
    simpson = span / 6 * (f[:-2] + 4 * f[1:-1] + f[2:])
    gap = np.abs(every.R2[2:] - every.R2[:-2] - simpson) / span
    assert every.derivative_defect == float(np.max(gap))
    spaced, final = order_parameter_series(ens, MeanField(1.0), 0.5, 1e-2, record_every=7)
    assert spaced.derivative_defect == every.derivative_defect
    # so is the smallest increment of R^2
    assert spaced.min_R2_increment == every.min_R2_increment == float(np.min(np.diff(every.R2)))
    kept = np.r_[0:50:7, 50]  # every 7th of the 50 steps, and the last
    assert np.array_equal(spaced.times, every.times[kept])
    assert np.array_equal(spaced.R2, every.R2[kept])
    assert np.array_equal(spaced.dR2_analytic, every.dR2_analytic[kept])
    assert final.points.tobytes() == every_final.points.tobytes()


@pytest.mark.parametrize("t_end", [0.0, 1e-2])
def test_derivative_defect_of_fewer_than_three_states_is_nan(t_end):
    # no interior state, so no central difference was compared
    ens = sample_vmf([0.0, 0.0, 1.0], 1.0, 16, 5)
    series, _ = order_parameter_series(ens, MeanField(1.0), t_end, 1e-2)
    assert series.times.size == round(t_end / 1e-2) + 1
    assert math.isnan(series.derivative_defect)
    two_steps, _ = order_parameter_series(ens, MeanField(1.0), 2e-2, 1e-2)
    assert math.isfinite(two_steps.derivative_defect)


def test_dR2_analytic_free_rotation_term_cancels():
    # the generator contributes 2 <Omega x_c, x_c> = 0, so the analytic value
    # is the same with or without a common rotation
    ens = sample_uniform(2, 64, 7)
    om = SkewMatrix.random(2, 9, 2.0)
    x_c = exact_mean(ens.points)
    assert abs(2.0 * float((x_c @ om.matrix.T) @ x_c)) <= 1e-12
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
    series, _ = order_parameter_series(ens, MeanField(1.0), 5.0, 1e-2, record_every=5)
    assert np.all(np.diff(series.R2) >= -1e-10)
    assert np.all(series.R2 <= 1.0 + 1e-12)
    assert np.all(series.dR2_analytic >= 0.0)
    alive = ~np.isnan(series.gamma[:, 0])
    norms = np.linalg.norm(series.gamma[alive], axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert series.times[-1] == pytest.approx(5.0)


@pytest.mark.parametrize("make_field", [lambda: MeanField(1.0),
                                        lambda: WinfreeField(1.0, [0.0, 0.0, 1.0])])
def test_order_parameter_series_matches_simulate_snapshots(make_field):
    ens = sample_uniform(2, 40, 5)
    series, final = order_parameter_series(ens, make_field(), 0.5, 1e-2, record_every=3)
    traj = simulate(ens, make_field(), 0.5, 1e-2, record_every=3)
    assert np.array_equal(series.times, traj.times)
    assert np.array_equal(series.R2, [order_parameter(Ensemble(pts))[0] for pts in traj.points])
    assert np.array_equal(final.points, traj.points[-1])


def test_sandwich_inequality_along_run():
    ens = sample_vmf([0.0, 0.0, 1.0], 2.0, 128, 23)
    traj = simulate(ens, MeanField(1.0), 2.0, 1e-2, record_every=20)
    for pts in traj.points:
        x_c = exact_mean(pts)
        gamma = x_c / np.linalg.norm(x_c)
        cosines = pts @ gamma
        mean_abs = float(np.mean(np.abs(cosines)))
        mean_sq = float(np.mean(cosines**2))
        assert mean_sq - 1e-12 <= mean_abs <= 1.0 + 1e-12


def test_order_parameter_series_consensus_masses():
    # R is monotone and bounded by 1, and the whole mass gathers at +gamma
    ens = sample_vmf([0.0, 0.0, 1.0], 5.0, 200, 29)
    series, _ = order_parameter_series(ens, MeanField(1.0), 10.0, 1e-2, record_every=100)
    r_end = math.sqrt(series.R2[-1])
    assert series.mass_plus[-1] >= 0.99
    assert r_end <= 1.0 + 1e-12
    assert r_end >= math.sqrt(series.R2[0]) - 1e-12


def test_instability_experiment_small_scale():
    rep = instability_experiment(N=200, d=2, kappa=1.0, delta=1e-3, seed=3,
                                 t_end=40.0, dt=1e-2)
    assert rep.R_max_symmetric <= 1e-6
    assert rep.R_initial_perturbed > 0.0
    assert rep.R_end_perturbed >= 0.99
    assert rep.mixed_tuple_max >= 1e3
    assert rep.control_max_drift <= 1e-6


def test_instability_control_holds_at_strong_coupling():
    # the control runs over kappa t in [0, 5]: a run to t = 5 at kappa = 3
    # would collapse its population to a degenerate tuple near t = 4
    rep = instability_experiment(N=100, d=2, kappa=3.0, delta=1e-3, seed=7, t_end=10.0, dt=5e-3)
    assert rep.R_max_symmetric == 0.0
    assert rep.R_end_perturbed >= 0.99
    assert rep.mixed_tuple_max >= 1e3
    assert rep.control_max_drift <= 1e-6


def test_mixed_tuple_values_are_the_unguarded_chord_quotients():
    a, b, c = np.eye(3)
    near = renormalize(a + 1e-9 * b)  # a squared chord of about 1e-18: no guard
    points = np.array([a, b, c, -a, near, a])
    tuples = np.array([[0, 1, 2, 3],    # distinct points
                       [0, 4, 1, 2],    # a chord below the functionals' tolerance
                       [1, 0, 5, 2],    # x2 = x3: zero denominator
                       [0, 5, 5, 1]])   # x1 = x2 = x3: 0/0
    turned = points[:, [1, 2, 0]]  # a rotation that keeps the chords exact
    snapshots = np.stack([points, turned])
    values = _mixed_tuple_values(snapshots.swapaxes(1, 2), tuples)
    assert values.shape == (2, 4)
    for pts, vals in zip(snapshots, values):
        for (i, j, k, l), got in zip(tuples[:2], vals[:2]):
            chord = [float((pts[u] - pts[v]) @ (pts[u] - pts[v]))
                     for u, v in ((i, j), (j, k), (k, l), (l, i))]
            assert got.tobytes() == np.float64(chord[0] * chord[2] / (chord[1] * chord[3])).tobytes()
        assert 0.0 < vals[1] < math.inf and vals[2] == math.inf and vals[3] == math.inf


def _closest_pairs_brute(points, idx, count):
    """Every pair i < j of the subset, ordered by (squared chord, i, j),
    the squared chord summed row-major from the chord vector."""
    i, j = np.triu_indices(idx.size, 1)
    chords = points[idx[i]] - points[idx[j]]
    d2 = np.einsum("ij,ij->i", chords, chords)
    return [(int(idx[a]), int(idx[b])) for _, a, b in sorted(zip(d2, i, j))[:count]]


def _closest_pairs_gram(points, idx, count):
    """The former selection rule, kept as a reference: squared chords as
    2 - 2<x, y> from the subset's full Gram matrix, pairs taken in stable
    order over the row-major upper triangle."""
    sub = points[idx]
    d2 = np.maximum(0.0, 2.0 - 2.0 * (sub @ sub.T))
    i, j = np.triu_indices(idx.size, 1)
    order = np.argsort(d2[i, j], kind="stable")[:count]
    return [(int(idx[i[r]]), int(idx[j[r]])) for r in order]


@pytest.mark.parametrize("size", [2, 3])
def test_closest_pairs_of_two_and_three_members(size):
    points = sample_uniform(2, 10, 4).points
    idx = np.array([7, 2, 5])[:size]
    for count in range(1, size * (size - 1) // 2 + 1):
        pairs = _closest_pairs(points, idx, count)
        assert pairs == _closest_pairs_brute(points, idx, count)
        assert len(pairs) == count


def test_closest_pairs_orders_exact_coincidences_by_index():
    base = sample_uniform(3, 6, 8).points
    points = np.vstack([base, base[[4, 1]], base[[4]]])  # 6 and 8 repeat 4, 7 repeats 1
    idx = np.arange(points.shape[0])
    pairs = _closest_pairs(points, idx, 6)
    assert pairs[:4] == [(1, 7), (4, 6), (4, 8), (6, 8)]  # zero chords, by (i, j)
    assert pairs == _closest_pairs_brute(points, idx, 6)


def test_closest_pairs_over_many_blocks(monkeypatch):
    base = sample_vmf([0.0, 0.0, 1.0], 20.0, 80, 12).points
    points = np.vstack([base, base[[10, 10, 50]]])  # 80 and 81 repeat 10, 82 repeats 50
    idx = np.r_[np.arange(0, 80, 2), 80, 81, 82]  # 43 members, not a multiple of the 4-row block
    want = {count: _closest_pairs_brute(points, idx, count) for count in (3, 5)}
    assert want[3] == [(10, 80), (10, 81), (50, 82)]  # (80, 81), a later block's zero, ties out
    monkeypatch.setattr(kinetic, "_DRIFT_BLOCK_FLOATS", 4 * 3 * idx.size)
    for count in (3, 5):
        assert _closest_pairs(points, idx, count) == want[count]


def test_closest_pairs_agree_with_the_gram_rule_without_duplicates():
    rng = rng_stream(21)
    for trial in range(40):
        d = int(rng.integers(1, 5))
        points = sample_vmf(np.eye(d + 1)[-1], float(rng.uniform(0.0, 50.0)), 60, trial).points
        idx = np.sort(rng.choice(60, size=int(rng.integers(2, 61)), replace=False))
        count = int(rng.integers(1, 6))
        assert _closest_pairs(points, idx, count) == _closest_pairs_brute(points, idx, count)
        assert _closest_pairs(points, idx, count) == _closest_pairs_gram(points, idx, count)


def test_closest_pairs_memory_is_bounded_by_a_block():
    points = sample_uniform(2, 3000, 6).points
    idx = np.arange(3000)
    tracemalloc.start()
    try:
        _closest_pairs(points, idx, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6  # an n x n array of float64 alone is 72 MB


def test_instability_branches_stacked_equal_their_separate_runs(monkeypatch):
    import swarmsphere.kinetic as kinetic

    built = []
    finish = kinetic._Branches.finish

    def recorded(branches):
        built.append(branches)
        return finish(branches)

    monkeypatch.setattr(kinetic._Branches, "finish", recorded)
    n, seed, t_end, dt = 200, 3, 6.0, 1e-2
    rep = instability_experiment(N=n, d=2, kappa=1.0, delta=1e-3, seed=seed, t_end=t_end, dt=dt)
    (stacked,) = built

    # the same two branches run one at a time: (a) through the feed, (b) through simulate
    half = sample_uniform(2, n // 2, seed).points
    sym = np.vstack([half, -half])
    r2 = [order_parameter(Ensemble(cols.T.copy()))[0]
          for _, block, _, _ in _snapshot_blocks(Ensemble(sym), MeanField(1.0), t_end, dt, _RECORD_EVERY)
          for cols in block]
    assert rep.R_max_symmetric == 0.0 and max(r2) == 0.0
    direction = tangent_project(sym[0], np.eye(3)[int(np.argmin(np.abs(sym[0])))])
    pert = sym.copy()
    pert[0] = renormalize(sym[0] + 1e-3 * direction / np.linalg.norm(direction))
    alone = simulate(Ensemble(pert), MeanField(1.0), t_end, dt, _RECORD_EVERY)
    assert np.array(stacked.times).tobytes() == alone.times.tobytes()
    assert stacked.points.swapaxes(1, 2).tobytes() == alone.points.tobytes()
    assert (1.0 * np.array(stacked.means)).tobytes() == alone.field_samples.tobytes()
    assert rep.R_end_perturbed == math.sqrt(order_parameter(Ensemble(alone.points[-1]))[0])


def test_series_and_branches_stacked_equal_the_separate_calls():
    # 600 steps, recorded every 7th (the final state apart) and every 50th
    ens0 = sample_vmf([0.0, 0.0, 1.0], 1.0, 200, 4)
    series, final, rep = _series_with_instability(ens0, 1.0, 6.0, 1e-2, 7, 1e-3, 3)
    want, want_final = order_parameter_series(ens0, MeanField(1.0), 6.0, 1e-2, 7)
    for name in ("times", "R2", "dR2_analytic", "gamma", "mass_plus", "mass_minus"):
        assert getattr(series, name).tobytes() == getattr(want, name).tobytes(), name
    assert series.derivative_defect == want.derivative_defect
    assert series.min_R2_increment == want.min_R2_increment
    assert final.points.tobytes() == want_final.points.tobytes()
    alone = instability_experiment(200, 2, 1.0, 1e-3, 3, t_end=6.0, dt=1e-2)
    assert rep.R_max_symmetric == 0.0
    for name, value in vars(alone).items():
        got = getattr(rep, name)
        assert got == value or (math.isnan(got) and math.isnan(value)), name
    with pytest.raises(ValueError, match="without free flow"):
        _series_with_instability(ens0.with_omega(SkewMatrix.zero(2)), 1.0, 0.1, 1e-2, 1, 1e-3, 3)


@pytest.mark.parametrize("n, kappa", [(32, 1.0), (2 * _FOLD_MIN_ROWS, 0.0)])
def test_series_alone_is_a_stack_of_one_with_the_bits_of_the_single_run(n, kappa):
    # without delta the series population steps as a (1, N, d+1) stack; both
    # sides of the exact mean's switch to vector extraction are covered
    ens0 = sample_vmf([0.0, 0.0, 1.0], kappa, n, 6)
    series, final, rep = _series_with_instability(ens0, 1.0, 0.6, 1e-2, 7, None, 3)
    want, want_final = order_parameter_series(ens0, MeanField(1.0), 0.6, 1e-2, 7)
    assert rep is None
    for name in ("times", "R2", "dR2_analytic", "gamma", "mass_plus", "mass_minus"):
        assert getattr(series, name).tobytes() == getattr(want, name).tobytes(), name
    assert series.derivative_defect == want.derivative_defect
    assert series.min_R2_increment == want.min_R2_increment
    assert final.points.tobytes() == want_final.points.tobytes()


def test_series_masses_are_the_ball_masses_of_each_state():
    ens = sample_vmf([0.0, 0.0, 1.0], 2.0, 64, 9)
    series, _ = order_parameter_series(ens, MeanField(1.0), 0.5, 1e-2, record_every=10)
    traj = simulate(ens, MeanField(1.0), 0.5, 1e-2, record_every=10)
    for pts, g, plus, minus in zip(traj.points, series.gamma, series.mass_plus, series.mass_minus,
                                  strict=True):
        assert plus == ball_mass(Ensemble(pts), g, 0.5) and minus == ball_mass(Ensemble(pts), -g, 0.5)


def test_order_parameter_series_computes_each_exact_mean_once(monkeypatch):
    import swarmsphere.dynamics as dynamics
    import swarmsphere.kinetic as kinetic

    calls = []

    def counted(points):
        calls.append(np.shape(points))
        return exact_mean(points)

    monkeypatch.setattr(dynamics, "exact_mean", counted)
    monkeypatch.setattr(kinetic, "exact_mean", counted)
    order_parameter_series(sample_uniform(2, 64, 1), MeanField(1.0), 0.1, 1e-2)
    assert len(calls) == 11 + 3 * 10  # one per state, one per later RK4 stage


def test_instability_experiment_validation():
    with pytest.raises(ValueError):
        instability_experiment(N=2, d=2, kappa=1.0, delta=1e-3, seed=1)
    with pytest.raises(ValueError, match="even"):
        instability_experiment(N=5, d=2, kappa=1.0, delta=1e-3, seed=1)


@pytest.mark.parametrize("kappa, delta", [(math.nan, 1e-3), (1.0, math.nan), (math.inf, 1e-3),
                                          (1.0, math.inf), (0.0, 1e-3), (1.0, -1e-3)])
def test_instability_experiment_rejects_non_finite_kappa_and_delta(kappa, delta):
    # a NaN used to run to 'non-finite particle state at step time t = 0.01'
    with pytest.raises(ValueError, match="kappa and delta must be positive and finite"):
        instability_experiment(N=8, d=2, kappa=kappa, delta=delta, seed=1)


def two_group_trajectory(t_end=3.0, dt=1e-3, record_every=10, n_per=24):
    om_a = SkewMatrix.zero(2)
    om_b = SkewMatrix.planar(2, 1.0)
    pts = sample_uniform(2, 2 * n_per, 31).points
    ens = Ensemble(pts, (om_a,) * n_per + (om_b,) * n_per)
    return simulate(ens, MeanField(1.0), t_end, dt, record_every)


def test_per_omega_conservation_needs_two_snapshots():
    # one snapshot has no drift to measure; it used to report drift 0
    traj = two_group_trajectory(t_end=0.0)
    assert traj.times.size == 1
    with pytest.raises(ValueError, match="two snapshots"):
        per_omega_conservation(traj, 0.3, 2, 40, seed=5)


def test_per_omega_conservation_two_groups():
    traj = two_group_trajectory()
    rep = per_omega_conservation(traj, 0.3, 2, 40, seed=5)
    assert len(rep.groups) == 2
    for drift in rep.groups:
        assert drift.per_tuple_max_drift <= 1e-6
    assert rep.mixed_drift.per_tuple_max_drift >= 1e-2
    # one label set: the group mass fractions are constant, so none is reported; a
    # group is named by its position in omega_groups(), which holds its indices and size
    assert [f.name for f in dataclasses.fields(rep)] == ["groups", "mixed_drift"]


def test_per_omega_single_group_reduces_to_conservation_drift():
    om = SkewMatrix.random(2, 37, 1.0)
    ens = sample_uniform(2, 24, 41).with_omega(om)
    traj = simulate(ens, MeanField(1.0), 1.0, 1e-3, record_every=20)
    rep = per_omega_conservation(traj, 0.3, 2, 30, seed=7)
    assert len(rep.groups) == 1
    assert rep.mixed_drift is None
    assert rep.groups[0].max_relative_drift <= 1e-6
    plain = conservation_drift(traj, 0.3, 2, 30, seed=7)
    assert plain.max_relative_drift <= 1e-6


def test_per_omega_mixed_tuples_reach_a_one_member_group():
    # 999 + 1: about one draw in 250 spans both groups, so the mixed draw
    # rejects far more than the 100 m draws the other draws may reject
    om_a, om_b = SkewMatrix.zero(2), SkewMatrix.planar(2, 1.0)
    ens = Ensemble(sample_uniform(2, 1000, 8).points, (om_a,) * 999 + (om_b,))
    traj = simulate(ens, MeanField(1.0), 0.01, 1e-3, record_every=5)
    rep = per_omega_conservation(traj, 0.3, 2, 50, seed=8)
    assert rep.groups[1] is None and rep.groups[0] is not None
    assert rep.mixed_drift.tuples.shape == (50, 4)
    assert np.all((rep.mixed_drift.tuples == 999).any(axis=1))
    label = np.r_[np.zeros(999, dtype=np.int64), 1]
    with pytest.raises(ValueError, match="single-group tuple draws; usually a group is too small "
                                         "to appear in 2k-cycles"):
        _draw_cycles(rng_stream(8, stream=0), ens.points, 50, 2, 100 * 50, label)


def test_per_omega_small_group_skipped():
    om_a = SkewMatrix.zero(2)
    om_b = SkewMatrix.planar(2, 1.0)
    pts = sample_uniform(2, 20, 43).points
    ens = Ensemble(pts, (om_a,) * 17 + (om_b,) * 3)  # 3 < 2k for k = 2
    traj = simulate(ens, MeanField(1.0), 0.2, 1e-3, record_every=20)
    rep = per_omega_conservation(traj, 0.3, 2, 10, seed=9)
    assert [group.size for _, group in ens.omega_groups()] == [17, 3]
    assert len(rep.groups) == 2
    assert rep.groups[0] is not None and rep.groups[1] is None


def test_per_omega_conservation_refuses_when_no_group_has_2k_members():
    # every group skipped used to give a report with no group in it
    om_a, om_b = SkewMatrix.zero(2), SkewMatrix.planar(2, 1.0)
    ens = Ensemble(sample_uniform(2, 6, 43).points, (om_a,) * 3 + (om_b,) * 3)
    traj = simulate(ens, MeanField(1.0), 0.05, 1e-2)
    with pytest.raises(ValueError, match=r"^no generator group has 2k = 4 members, so no "
                                         r"within-group cycle can be drawn$"):
        per_omega_conservation(traj, 0.3, 2, 10, seed=9)


@pytest.mark.parametrize("k, m, message", [
    (1, 10, "cycle half-length k must be at least 2"),
    (0, 10, "cycle half-length k must be at least 2"),
    (2, 0, "need at least one tuple"),
])
def test_per_omega_conservation_refuses_a_bad_cycle_size_by_name(k, m, message):
    # these used to fail in an IndexError or an empty reduction
    with pytest.raises(ValueError, match=f"^{message}$"):
        per_omega_conservation(two_group_trajectory(), 0.3, k, m, seed=5)


@pytest.mark.parametrize("epsilon", [-1.0, 0.0, 2.0, math.nan, math.inf])
def test_a_chordal_radius_outside_zero_to_two_is_refused_by_name(epsilon):
    ens = sample_vmf([0.0, 0.0, 1.0], 2.0, 16, 9)
    with pytest.raises(ValueError, match=r"^chordal radius must lie in \(0, 2\), not "):
        ball_mass(ens, [0.0, 0.0, 1.0], epsilon)


@pytest.mark.parametrize("center", [[0.0, math.nan, 1.0], [0.0, 1.0], [0.0, 0.0, 0.0, 1.0],
                                    [[0.0, 0.0, 1.0]]])
def test_a_ball_center_that_is_not_a_finite_vector_of_width_d_plus_one_is_refused(center):
    # a NaN center used to give a mass of 0.0, a wrong width numpy's broadcast error
    ens = sample_vmf([0.0, 0.0, 1.0], 2.0, 16, 9)
    with pytest.raises(ValueError, match=r"^ball center must be a finite vector of width "
                                         r"d\+1 = 3$"):
        ball_mass(ens, center, 0.5)


def _bits(value):
    """A result as nested plain values, every float and array by its bits."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def test_every_public_function_gives_its_bits_fed_one_state_at_a_time(monkeypatch):
    # an observer that kept a view of the reused block buffer would read the
    # states fed after the one it meant to keep
    from swarmsphere import conservation_drifts, dynamics

    two = sample_uniform(2, 24, 3).with_omega((SkewMatrix.zero(2),) * 12
                                              + (SkewMatrix.planar(2, 1.0),) * 12)
    polarised = sample_vmf([0.0, 0.0, 1.0], 1.0, 40, 4)
    calls = {
        "simulate": lambda: simulate(two, MeanField(1.0), 0.3, 1e-2, 3),
        "order_parameter_series": lambda: order_parameter_series(polarised, MeanField(1.0),
                                                                 0.6, 1e-2, 7),
        "instability_experiment": lambda: instability_experiment(40, 2, 2.0, 1e-3, 7, t_end=10.0),
        "conservation_drifts": lambda: conservation_drifts(
            simulate(two, MeanField(1.0), 0.3, 1e-2), [0.3, -0.3], 2, 20, 5),
        "per_omega_conservation": lambda: per_omega_conservation(
            simulate(two, MeanField(1.0), 0.3, 1e-2), 0.3, 2, 10, 5),
        "series_with_instability": lambda: _series_with_instability(polarised, 2.0, 10.0, 1e-2,
                                                                    7, 1e-3, 7),
    }
    want = {name: _bits(call()) for name, call in calls.items()}
    assert want["instability_experiment"]["selection_time"] != math.nan.hex()  # a selection
    monkeypatch.setattr(dynamics, "_DRIFT_BLOCK_FLOATS", 1)
    for name, call in calls.items():
        assert _bits(call()) == want[name], name
