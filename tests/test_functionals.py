import math

import numpy as np
import pytest

from swarmsphere import (
    DivergentIntegralError,
    Ensemble,
    MeanField,
    PrescribedField,
    SkewMatrix,
    Trajectory,
    UniformSphereSampler,
    VmfSampler,
    conservation_drift,
    conservation_drifts,
    cross_ratio,
    cycle_ratio,
    divergence_probe,
    estimate_cycle_moment,
    estimate_cycle_moments,
    existence_check,
    mixture_functional,
    reduced_pair_integral,
    renormalize,
    rng_stream,
    sample_uniform,
    simulate,
)


def circle_point(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def test_cross_ratio_square_on_circle():
    pts = [circle_point(a) for a in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    assert cross_ratio(*pts) == pytest.approx(1.0, abs=1e-14)


def test_cross_ratio_hand_case():
    e1, e2, e3 = np.eye(3)
    assert cross_ratio(e1, e2, e3, -e1) == pytest.approx(0.5, abs=1e-15)


def test_cross_ratio_rotation_invariance():
    rng = rng_stream(2)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    pts = [renormalize(rng.standard_normal(3)) for _ in range(4)]
    before = cross_ratio(*pts)
    after = cross_ratio(*(q @ p for p in pts))
    assert abs(after - before) <= 1e-12 * max(1.0, before)


def test_cross_ratio_degenerate_denominator():
    e1, e2 = np.eye(3)[:2]
    with pytest.raises(ValueError, match="coincident"):
        cross_ratio(e1, e2, e2, -e1)


def test_cycle_ratio_matches_cross_ratio_for_k2():
    rng = rng_stream(3)
    for _ in range(100):
        pts = np.array([renormalize(rng.standard_normal(4)) for _ in range(4)])
        assert cycle_ratio(pts) == pytest.approx(cross_ratio(*pts), rel=1e-14)


def test_cycle_ratio_cyclic_shift_inverts():
    rng = rng_stream(5)
    for _ in range(100):
        pts = np.array([renormalize(rng.standard_normal(3)) for _ in range(6)])
        shifted = np.roll(pts, -1, axis=0)
        assert cycle_ratio(shifted) * cycle_ratio(pts) == pytest.approx(1.0, rel=1e-12)


def test_cycle_ratio_regular_hexagon():
    pts = np.array([circle_point(k * math.pi / 3) for k in range(6)])
    assert cycle_ratio(pts) == pytest.approx(1.0, abs=1e-13)


def test_cycle_ratio_validation():
    with pytest.raises(ValueError):
        cycle_ratio(np.eye(3))  # odd count
    pts = np.array([circle_point(a) for a in (0.0, 1.0, 1.0, 2.0)])
    with pytest.raises(ValueError, match="coincident"):
        cycle_ratio(pts)


def test_estimate_zero_exponent_is_exactly_one():
    for source in (UniformSphereSampler(2), sample_uniform(2, 50, 11)):
        est = estimate_cycle_moment(source, 0.0, 2, 500, seed=3)
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert est.existence_flag


def test_estimate_exponent_symmetry_within_errors():
    src = UniformSphereSampler(2)
    a = estimate_cycle_moment(src, 0.3, 2, 200_000, seed=17)
    b = estimate_cycle_moment(src, -0.3, 2, 200_000, seed=18)
    assert abs(a.value - b.value) <= 3.0 * (a.std_error + b.std_error)


def test_estimate_two_seed_consistency_large_m():
    src = UniformSphereSampler(2)
    a = estimate_cycle_moment(src, 0.25, 2, 10**6, seed=100)
    b = estimate_cycle_moment(src, 0.25, 2, 10**6, seed=200)
    assert abs(a.value - b.value) <= 3.0 * (a.std_error + b.std_error)


def test_estimate_deterministic_and_thread_invariant(monkeypatch):
    src = UniformSphereSampler(2)
    base = estimate_cycle_moment(src, 0.3, 2, 50_000, seed=7)
    again = estimate_cycle_moment(src, 0.3, 2, 50_000, seed=7)
    assert base.value == again.value and base.std_error == again.std_error
    monkeypatch.setenv("SWARMSPHERE_THREADS", "4")
    threaded = estimate_cycle_moment(src, 0.3, 2, 50_000, seed=7)
    assert threaded.value == base.value


def test_ensemble_estimate_thread_invariant(monkeypatch):
    # repeated rows make some draws degenerate, so rejections are counted too
    pts = sample_uniform(2, 30, 4).points
    ens = Ensemble(np.vstack([pts, pts[:10]]))
    monkeypatch.delenv("SWARMSPHERE_THREADS", raising=False)
    base = estimate_cycle_moment(ens, 0.3, 2, 40_000, seed=3)
    monkeypatch.setenv("SWARMSPHERE_THREADS", "4")
    threaded = estimate_cycle_moment(ens, 0.3, 2, 40_000, seed=3)
    assert base.rejected > 0
    assert (threaded.value, threaded.std_error, threaded.rejected) == \
        (base.value, base.std_error, base.rejected)


def test_estimate_reports_median_of_means_for_heavy_tails():
    src = UniformSphereSampler(2)
    heavy = estimate_cycle_moment(src, 0.6, 2, 4096, seed=5)
    light = estimate_cycle_moment(src, 0.1, 2, 4096, seed=5)
    assert heavy.median_of_means is not None
    assert light.median_of_means is None


def test_estimate_vmf_source_and_k3():
    src = VmfSampler(np.array([0.0, 0.0, 1.0]), 2.0)
    est = estimate_cycle_moment(src, 0.2, 3, 20_000, seed=9)
    assert est.k == 3 and est.samples == 20_000
    assert est.std_error >= 0.0
    rec = est.record()
    assert set(rec) == {"p", "k", "d", "m", "seed", "value", "std_error",
                        "median_of_means", "existence_flag"}


def test_estimate_ensemble_source_rejects_tiny_and_bad_k():
    ens = Ensemble(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="small"):
        estimate_cycle_moment(ens, 0.3, 2, 10, seed=1)
    with pytest.raises(ValueError, match="half-length"):
        estimate_cycle_moment(UniformSphereSampler(2), 0.3, 1, 10, seed=1)


def test_estimate_ensemble_two_points_works():
    # two distinct points admit alternating cycles
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    est = estimate_cycle_moment(Ensemble(pts), 1.0, 2, 100, seed=2)
    assert est.value == pytest.approx(1.0)  # all chords equal by construction


def _estimate_bits(est):
    mom = None if est.median_of_means is None else est.median_of_means.hex()
    return (est.value.hex(), est.std_error.hex(), mom, est.rejected, est.samples, est.p, est.k)


def _repeated_rows_ensemble():
    # repeated rows make some draws degenerate, so rejections are counted too
    pts = sample_uniform(2, 30, 4).points
    return Ensemble(np.vstack([pts, pts[:10]]))


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("source, k", [
    (UniformSphereSampler(2), 2),
    (VmfSampler(np.array([0.0, 0.0, 1.0]), 2.0), 3),
    (_repeated_rows_ensemble(), 2),
])
def test_estimate_list_form_matches_single_p_bitwise(monkeypatch, threads, source, k):
    if threads is None:
        monkeypatch.delenv("SWARMSPHERE_THREADS", raising=False)
    else:
        monkeypatch.setenv("SWARMSPHERE_THREADS", threads)
    ps = [0.0, 0.3, -0.3, 0.6, -1.5]  # |p| >= d/4 also reports a median of means
    m = 20_000  # more than one block
    many = estimate_cycle_moments(source, ps, k, m, seed=13)
    assert [est.p for est in many] == ps
    for p, est in zip(ps, many):
        one = estimate_cycle_moment(source, p, k, m, seed=13)
        assert _estimate_bits(est) == _estimate_bits(one)
    assert many[3].median_of_means is not None
    if isinstance(source, Ensemble):
        assert many[0].rejected > 0


def test_mixture_functional_is_fsum_of_single_p_estimates():
    src = VmfSampler(np.array([0.0, 1.0, 0.0]), 1.0)
    weights = [(0.2, 0.5), (-0.2, 1.5), (0.0, -1.0)]
    total = mixture_functional(src, weights, 2, 5000, seed=4)
    assert total == math.fsum(wt * estimate_cycle_moment(src, p, 2, 5000, seed=4).value
                              for p, wt in weights)


def test_mixture_functional_thin_wrapper():
    src = UniformSphereSampler(2)
    total = mixture_functional(src, [(0.0, 2.0), (0.1, 0.0)], 2, 1000, seed=4)
    assert total == pytest.approx(2.0)


def test_existence_check_boundary_cases():
    assert existence_check(0.5, 1) is False
    assert existence_check(0.49, 1) is True
    assert existence_check(-0.9, 2) is True
    assert existence_check(-1.0, 2) is False
    with pytest.raises(ValueError):
        existence_check(0.1, 0)


def test_reduced_pair_integral_total_measure_anchor():
    assert reduced_pair_integral(0.0, 2) == pytest.approx(4 * math.pi, abs=1e-9)


def test_reduced_pair_integral_circle_anchor():
    assert reduced_pair_integral(-1.0, 1) == pytest.approx(4 * math.pi, abs=1e-9)


def test_reduced_pair_integral_matches_independent_quadrature():
    # oracle: midpoint rule in u = sqrt(theta); the substitution removes the
    # endpoint singularity so 1e6 nodes reach ~1e-12 relative
    d, p = 2, 0.75
    nodes = 10**6
    u = (np.arange(nodes) + 0.5) * math.sqrt(math.pi) / nodes
    theta = u * u
    a = d - 2 * p - 1
    vals = 2.0 ** a * np.sin(theta / 2) ** a * np.cos(theta / 2) ** (d - 1) * 2.0 * u
    oracle = 2 * math.pi * float(vals.sum() * math.sqrt(math.pi) / nodes)
    got = reduced_pair_integral(p, d)
    assert abs(got - oracle) <= 1e-6 * abs(oracle)


def test_reduced_pair_integral_divergent_raises():
    with pytest.raises(DivergentIntegralError):
        reduced_pair_integral(1.0, 2, cutoff=0.0)
    # but a positive cutoff is fine
    assert reduced_pair_integral(1.0, 2, cutoff=0.1) > 0


def test_reduced_pair_integral_validation():
    with pytest.raises(ValueError):
        reduced_pair_integral(0.0, 2, cutoff=-0.1)
    with pytest.raises(ValueError):
        reduced_pair_integral(0.0, 0)


def test_divergence_probe_convergent():
    assert divergence_probe(0.25, 1).classification == "convergent"


def test_divergence_probe_log_boundary_decade_differences():
    rep = divergence_probe(1.0, 2)  # p = d/2
    assert rep.classification == "log-divergent"
    diffs = np.array(rep.decade_differences)
    assert np.max(np.abs(diffs / diffs[0] - 1.0)) <= 0.10


def test_divergence_probe_power_case():
    rep = divergence_probe(1.5, 1)
    assert rep.classification == "power-divergent"
    assert rep.exponent_estimate == pytest.approx(2.0, abs=0.05)
    # the sign symmetry must classify the negative side identically
    assert divergence_probe(-1.5, 1).classification == "power-divergent"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_divergence_probe_grid_matches_existence(d):
    grid_max = d / 2.0 + 0.5
    p = -grid_max
    while p <= grid_max + 1e-12:
        rep = divergence_probe(p, d)
        assert (rep.classification == "convergent") == existence_check(p, d), (p, d)
        p += 0.25


def frozen_trajectory(points, omega=None):
    states = (Ensemble(points, omega, 0.0), Ensemble(points, omega, 1.0))
    fields = np.zeros((2, points.shape[1]))
    return Trajectory(np.array([0.0, 1.0]), states, fields)


def test_conservation_drift_frozen_trajectory():
    pts = sample_uniform(2, 12, 21).points
    rep = conservation_drift(frozen_trajectory(pts), 0.4, 2, 20, seed=1)
    assert rep.max_relative_drift == 0.0
    assert rep.per_tuple_max_drift == 0.0


def test_conservation_drift_pure_rotation():
    om = SkewMatrix.random(2, 23, 1.0)
    ens = sample_uniform(2, 16, 29).with_omega(om)
    traj = simulate(ens, PrescribedField(lambda t: np.zeros(3)), 2.0, 1e-3, record_every=20)
    rep = conservation_drift(traj, 0.5, 2, 30, seed=2)
    assert rep.max_relative_drift <= 1e-12


def test_conservation_drift_swarm_run_and_zero_exponent():
    om = SkewMatrix.random(2, 31, 1.0)
    ens = sample_uniform(2, 32, 37).with_omega(om)
    traj = simulate(ens, MeanField(1.0), 2.0, 1e-3, record_every=50)
    rep = conservation_drift(traj, 0.3, 2, 50, seed=3)
    assert rep.max_relative_drift <= 1e-6
    rep0 = conservation_drift(traj, 0.0, 3, 50, seed=3)
    assert rep0.max_relative_drift == 0.0
    assert np.all(rep0.estimates == 1.0)


def test_conservation_holds_for_every_common_field_variant():
    # any common driving vector conserves the cross ratio; a per-particle
    # inconsistency in a field implementation would show up here
    from swarmsphere import FrustratedField, TimeDelayField, WinfreeField

    om = SkewMatrix.random(2, 47, 1.0)
    ens = sample_uniform(2, 24, 53).with_omega(om)
    v = np.array([[1.0, -0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]])
    fields = [
        FrustratedField(1.0, v),
        WinfreeField(1.0, np.array([0.0, 0.0, 1.0])),
        TimeDelayField(1.0, 0.05),
        PrescribedField(lambda t: np.array([0.2 * math.sin(t), 0.0, 0.4])),
    ]
    for field in fields:
        traj = simulate(ens, field, 1.0, 1e-3, record_every=100)
        rep = conservation_drift(traj, 1.0, 2, 40, seed=6)
        assert rep.per_tuple_max_drift <= 1e-6, type(field).__name__


def test_conservation_drifts_match_single_p_bitwise():
    om = SkewMatrix.random(2, 31, 1.0)
    ens = sample_uniform(2, 24, 43).with_omega(om)
    traj = simulate(ens, MeanField(1.0), 0.5, 1e-2, record_every=5)
    ps = [0.0, 0.4, -0.4, 1.1]
    reports = conservation_drifts(traj, ps, 3, 60, seed=8)
    assert [rep.p for rep in reports] == ps
    for p, rep in zip(ps, reports):
        one = conservation_drift(traj, p, 3, 60, seed=8)
        for name in ("times", "estimates", "relative_drift", "tuples"):
            assert getattr(rep, name).tobytes() == getattr(one, name).tobytes(), name
        assert rep.max_relative_drift.hex() == one.max_relative_drift.hex()
        assert rep.per_tuple_max_drift.hex() == one.per_tuple_max_drift.hex()
        assert rep.k == one.k == 3


def test_conservation_drift_needs_two_snapshots():
    ens = sample_uniform(2, 8, 41)
    traj = simulate(ens, MeanField(1.0), 0.0, 1e-3)
    with pytest.raises(ValueError, match="two snapshots"):
        conservation_drift(traj, 0.3, 2, 10, seed=1)
