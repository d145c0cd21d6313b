import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmsphere import (
    DivergentIntegralError,
    Ensemble,
    MeanField,
    PrescribedField,
    SkewMatrix,
    Trajectory,
    VmfSampler,
    conservation_drift,
    conservation_drifts,
    cross_ratio,
    cycle_ratio,
    divergence_probe,
    estimate_cycle_moment,
    estimate_cycle_moments,
    existence_check,
    per_omega_conservation,
    reduced_pair_integral,
    renormalize,
    rng_stream,
    sample_uniform,
    simulate,
    sphere_surface,
)
from swarmsphere import functionals
from swarmsphere.functionals import _CHORD_TOL, _draw_cycles, _DriftRecorder, _pair_index
from swarmsphere.geometry import _component_dot


def _reference_cycle_ratios(pts):
    """Row-major reference for the cycle-ratio kernel: the ratios of a batch
    of cycles (m, 2k, d+1) and the mask of cycles with a chord at most
    ``_CHORD_TOL``, unguarded (a zero denominator gives inf, 0/0 NaN)."""
    diffs = pts - np.roll(pts, -1, axis=1)
    ch2 = np.einsum("mkd,mkd->mk", diffs, diffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = ch2[:, 0::2].prod(axis=1) / ch2[:, 1::2].prod(axis=1)
    return vals, (ch2 <= _CHORD_TOL).any(axis=1)


# the uniform density on S^2, as the CLI builds its ``uniform`` sampler
UNIFORM = VmfSampler(np.array([0.0, 0.0, 1.0]), 0.0)


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


def test_cross_ratio_has_the_bits_of_the_cycle_kernels():
    quads = sample_uniform(2, 4 * 2000, 23).points.reshape(2000, 4, 3)
    batch, _ = _reference_cycle_ratios(quads)
    for x, want in zip(quads, batch.tolist(), strict=True):
        assert cross_ratio(*x) == cycle_ratio(x) == want


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cycle_and_cross_ratio_refuse_a_non_finite_point(bad):
    pts = np.array([circle_point(a) for a in (0.0, 1.0, 2.0, 3.0)])
    pts[2, 1] = bad  # a NaN coordinate used to give a NaN ratio
    with pytest.raises(ValueError, match="cycle ratio points must be finite"):
        cycle_ratio(pts)
    with pytest.raises(ValueError, match="cycle ratio points must be finite"):
        cross_ratio(*pts)


def test_estimate_zero_exponent_is_exactly_one():
    for source in (UNIFORM, sample_uniform(2, 50, 11)):
        est = estimate_cycle_moment(source, 0.0, 2, 500, seed=3)
        assert est.value == 1.0
        assert est.std_error == 0.0


def test_estimate_exponent_symmetry_within_errors():
    src = UNIFORM
    a = estimate_cycle_moment(src, 0.3, 2, 200_000, seed=17)
    b = estimate_cycle_moment(src, -0.3, 2, 200_000, seed=18)
    assert abs(a.value - b.value) <= 3.0 * (a.std_error + b.std_error)


def test_estimate_two_seed_consistency_large_m():
    src = UNIFORM
    a = estimate_cycle_moment(src, 0.25, 2, 10**6, seed=100)
    b = estimate_cycle_moment(src, 0.25, 2, 10**6, seed=200)
    assert abs(a.value - b.value) <= 3.0 * (a.std_error + b.std_error)


def use_cpus(monkeypatch, count):
    """Make the process's CPU set, and so the Monte-Carlo worker count, read ``count``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_estimate_deterministic_and_thread_invariant(monkeypatch):
    src = UNIFORM
    use_cpus(monkeypatch, 1)
    base = estimate_cycle_moment(src, 0.3, 2, 50_000, seed=7)
    again = estimate_cycle_moment(src, 0.3, 2, 50_000, seed=7)
    assert base.value == again.value and base.std_error == again.std_error
    use_cpus(monkeypatch, 4)
    threaded = estimate_cycle_moment(src, 0.3, 2, 50_000, seed=7)
    assert _estimate_bits(threaded) == _estimate_bits(base)


def test_ensemble_estimate_thread_invariant(monkeypatch):
    # repeated rows make some draws degenerate, so rejections are counted too
    pts = sample_uniform(2, 30, 4).points
    ens = Ensemble(np.vstack([pts, pts[:10]]))
    use_cpus(monkeypatch, 1)
    base = estimate_cycle_moment(ens, 0.3, 2, 40_000, seed=3)
    use_cpus(monkeypatch, 4)
    threaded = estimate_cycle_moment(ens, 0.3, 2, 40_000, seed=3)
    assert base.rejected > 0
    assert _estimate_bits(threaded) == _estimate_bits(base)


@pytest.mark.parametrize("cpus, m, workers", [(1, 50_000, 1), (4, 50_000, 4), (4, 20_000, 2),
                                              (4, 100, 1)])
def test_worker_count_is_the_cpu_set_capped_by_the_blocks(monkeypatch, cpus, m, workers):
    import swarmsphere.functionals as functionals

    seen = []
    real_pool = functionals.ThreadPoolExecutor

    def pool(max_workers):
        seen.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(functionals, "ThreadPoolExecutor", pool)
    use_cpus(monkeypatch, cpus)
    estimate_cycle_moment(UNIFORM, 0.3, 2, m, seed=1)  # blocks of 2**14
    assert seen == [workers]


def test_estimate_reports_median_of_means_for_heavy_tails():
    src = UNIFORM
    heavy = estimate_cycle_moment(src, 0.6, 2, 4096, seed=5)
    light = estimate_cycle_moment(src, 0.1, 2, 4096, seed=5)
    assert heavy.median_of_means is not None
    assert light.median_of_means is None


def test_estimate_vmf_source_and_k3():
    src = VmfSampler(np.array([0.0, 0.0, 1.0]), 2.0)
    est = estimate_cycle_moment(src, 0.2, 3, 20_000, seed=9)
    assert est.samples == 20_000
    assert est.std_error >= 0.0
    # what was measured; p, k, d and the seed are the caller's
    assert [f.name for f in dataclasses.fields(est)] == [
        "value", "std_error", "samples", "median_of_means", "rejected"]


def test_estimate_ensemble_source_rejects_tiny_and_bad_k():
    ens = Ensemble(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="small"):
        estimate_cycle_moment(ens, 0.3, 2, 10, seed=1)
    with pytest.raises(ValueError, match="half-length"):
        estimate_cycle_moment(UNIFORM, 0.3, 1, 10, seed=1)


def test_estimate_ensemble_two_points_works():
    # two distinct points admit alternating cycles
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    est = estimate_cycle_moment(Ensemble(pts), 1.0, 2, 100, seed=2)
    assert est.value == pytest.approx(1.0)  # all chords equal by construction


def _estimate_bits(est):
    mom = None if est.median_of_means is None else est.median_of_means.hex()
    return (est.value.hex(), est.std_error.hex(), mom, est.rejected, est.samples)


def _repeated_rows_ensemble():
    # repeated rows make some draws degenerate, so rejections are counted too
    pts = sample_uniform(2, 30, 4).points
    return Ensemble(np.vstack([pts, pts[:10]]))


# None: one CPU, so one worker; 2: two CPUs, so the two blocks run on two workers
@pytest.mark.parametrize("cpus", [None, 2])
@pytest.mark.parametrize("source, k", [
    (UNIFORM, 2),
    (VmfSampler(np.array([0.0, 0.0, 1.0]), 2.0), 3),
    (_repeated_rows_ensemble(), 2),
])
def test_estimate_list_form_matches_single_p_bitwise(monkeypatch, cpus, source, k):
    use_cpus(monkeypatch, cpus or 1)
    ps = [0.0, 0.3, -0.3, 0.6, -1.5]  # |p| >= d/4 also reports a median of means
    m = 20_000  # more than one block
    many = estimate_cycle_moments(source, ps, k, m, seed=13)
    for p, est in zip(ps, many, strict=True):
        one = estimate_cycle_moment(source, p, k, m, seed=13)
        assert _estimate_bits(est) == _estimate_bits(one)
    assert many[3].median_of_means is not None
    if isinstance(source, Ensemble):
        assert many[0].rejected > 0


def _reference_moments(source, ps, k, m, seed):
    """The estimates as the blocks' ratios give them by the plain numpy
    formulas: ``ratios ** p``, ``np.mean``, ``np.std(ddof=1)`` and the median
    over ``np.array_split`` of 32 chunk means, one fresh array per step."""
    block = functionals._BLOCK
    draw_from = source.points if isinstance(source, Ensemble) else source
    parts = [_draw_cycles(rng_stream(seed, stream=b + 1), draw_from, min(block, m - b * block),
                          k, 100 * m)[1:] for b in range((m + block - 1) // block)]
    ratios = np.concatenate([vals for vals, _ in parts])
    rejected = sum(rej for _, rej in parts)
    out = []
    for p in ps:
        values = ratios ** p
        mom = None
        if abs(p) >= source.d / 4.0 and m >= 32:
            mom = float(np.median([chunk.mean() for chunk in np.array_split(values, 32)]))
        se = float(np.std(values, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
        out.append((float(np.mean(values)).hex(), se.hex(), None if mom is None else mom.hex(),
                    rejected, m))
    return out


# 0.5, 2 and -1 are the exponents numpy's ** computes by sqrt, square and reciprocal,
# in place as in ratios ** p
@pytest.mark.parametrize("source, ps, k, m", [
    (UNIFORM, [0.0, 0.3, -0.3, 0.5, 0.6], 2, 40_000),
    (VmfSampler(np.eye(6)[-1], 1.5), [2, -1, 0.5, -2.4], 3, 16_385),
    (_repeated_rows_ensemble(), [0.3, -0.7], 2, 33),
    (UNIFORM, [0.3], 2, 1),
])
def test_estimates_are_the_numpy_formulas_over_the_block_ratios(source, ps, k, m):
    got = [_estimate_bits(e) for e in estimate_cycle_moments(source, ps, k, m, seed=19)]
    assert got == _reference_moments(source, ps, k, m, seed=19)


@pytest.mark.parametrize("k", [2, 3])
def test_estimate_holds_the_ratios_and_one_power_buffer(monkeypatch, k):
    import tracemalloc

    # m ratios and one m-array of their powers, 2 x 8m bytes, and one block's
    # draw; collecting the blocks, a fresh power per p and np.std's deviations
    # took the traced peak to 3.0 to 3.2 x 8m
    use_cpus(monkeypatch, 1)
    m = 500_000
    tracemalloc.start()
    try:
        estimate_cycle_moments(UNIFORM, [0.0, 0.3, -0.3], k, m, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * 8 * m, f"traced peak {peak / (8 * m):.2f} x 8m"


@settings(deadline=None, max_examples=80)
@given(m=st.sampled_from([1, 2, 31, 32, 33, 10_000]), seed=st.integers(0, 2**32 - 1),
       tail=st.sampled_from(["light", "heavy", "infinite"]), heavy=st.booleans())
def test_moment_summary_is_numpys_mean_std_and_median_bit_for_bit(m, seed, tail, heavy):
    rng = np.random.default_rng(seed)
    values = np.exp(rng.standard_normal(m) * {"light": 0.5, "heavy": 20.0, "infinite": 1.0}[tail])
    if tail == "infinite":  # a power that overflows
        values[rng.integers(0, m)] = math.inf
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in the deviations
        want_mean = float(np.mean(values))
        want_se = float(np.std(values, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
        want_mom = (float(np.median([c.mean() for c in np.array_split(values, 32)]))
                    if heavy and m >= 32 else None)
        mean, se, mom = functionals._moment_summary(values.copy(), heavy)
    assert mean.hex() == want_mean.hex() and se.hex() == want_se.hex()
    assert (None if mom is None else mom.hex()) == (None if want_mom is None else want_mom.hex())


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.integers(2, 12), k=st.integers(2, 4), count=st.integers(1, 40),
       seed=st.integers(0, 2**64 - 1), grouped=st.booleans())
def test_draw_cycles_returns_nondegenerate_cycles_and_their_ratios(data, n, k, count, seed,
                                                                   grouped):
    base = sample_uniform(2, n, seed % 997).points
    repeats = data.draw(st.integers(0, n), label="repeated rows")  # zero chords to reject
    pts = np.vstack([base, base[:repeats]])
    label = None
    if grouped:
        label = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(pts),
                                            max_size=len(pts)), label="group labels"))
        assume(np.unique(label).size >= 2)
    cycles, ratios, rejected = _draw_cycles(rng_stream(seed), pts, count, k, 10**6, label)
    assert cycles.shape == (count, 2 * k) and ratios.shape == (count,) and rejected >= 0
    assert ratios.tobytes() == _reference_cycle_ratios(pts[cycles])[0].tobytes()
    for cycle, ratio in zip(cycles, ratios):
        cyc = pts[cycle]
        diffs = cyc - np.roll(cyc, -1, axis=0)
        assert np.einsum("ij,ij->i", diffs, diffs).min() > 1e-14
        assert ratio == pytest.approx(cycle_ratio(cyc), rel=1e-12)
        if label is not None:
            assert np.unique(label[cycle]).size >= 2


def test_draw_cycles_from_a_sampler_returns_no_index_cycles():
    cycles, ratios, rejected = _draw_cycles(rng_stream(3), UNIFORM, 50, 3, 0)
    assert cycles is None and ratios.shape == (50,) and rejected == 0
    # no draw was rejected, so the ratios are those of the sampler's first draw
    want = _reference_cycle_ratios(UNIFORM.draw(rng_stream(3), 50, 6))[0]
    assert ratios.tobytes() == want.tobytes()


class _CoincidentSampler:
    """Every draw is the north pole, so every cycle is degenerate."""

    d = 2

    def draw(self, rng, count, size):
        return np.tile([0.0, 0.0, 1.0], (count, size, 1))


@pytest.mark.parametrize("source, cause", [
    (Ensemble(np.tile([0.0, 0.0, 1.0], (8, 1))), "ensemble lacks distinct points"),
    (_CoincidentSampler(), "the sampler's points nearly coincide"),
])
def test_spent_rejection_budget_names_its_source(source, cause):
    with pytest.raises(ValueError, match=f"too many degenerate tuple draws; {cause}"):
        estimate_cycle_moments(source, [0.3], 2, 10, seed=1)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_moments_and_drifts_refuse_a_non_finite_exponent_by_name(p):
    # the drift reports used to come out all NaN after a numpy warning
    traj = simulate(sample_uniform(2, 12, 3), MeanField(1.0), 0.05, 1e-2)
    with pytest.raises(ValueError, match="p must be finite"):
        conservation_drifts(traj, [0.3, p], 2, 10, seed=1)
    with pytest.raises(ValueError, match="p must be finite"):
        conservation_drift(traj, p, 2, 10, seed=1)
    with pytest.raises(ValueError, match="p must be finite"):
        per_omega_conservation(traj, p, 2, 10, seed=1)
    # refused before drawing: every draw of this sampler would be rejected
    with pytest.raises(ValueError, match="p must be finite"):
        estimate_cycle_moments(_CoincidentSampler(), [0.3, p], 2, 10, seed=1)


def test_existence_check_boundary_cases():
    assert existence_check(0.5, 1) is False
    assert existence_check(0.49, 1) is True
    assert existence_check(-0.9, 2) is True
    assert existence_check(-1.0, 2) is False
    with pytest.raises(ValueError):
        existence_check(0.1, 0)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_existence_and_divergence_reject_a_non_finite_exponent(p):
    with pytest.raises(ValueError, match="p must be finite"):
        existence_check(p, 2)
    with pytest.raises(ValueError, match="p must be finite"):
        divergence_probe(p, 2)


@pytest.mark.parametrize("d", [math.nan, True, 2.0, 0])
def test_existence_check_refuses_a_dimension_that_is_not_an_integer_of_at_least_one(d):
    # nan used to read as False and True as d = 1
    with pytest.raises(ValueError, match=rf"^need an integer d >= 1, not {d!r}$"):
        existence_check(0.3, d)


@pytest.mark.parametrize("d", [math.nan, True, 2.0, 0])
def test_pair_integral_and_probe_refuse_a_dimension_that_is_not_an_integer_of_at_least_one(d):
    # nan used to integrate to nan, which the probe classified "power-divergent"
    with pytest.raises(ValueError, match=rf"^need an integer d >= 1, not {d!r}$"):
        reduced_pair_integral(0.3, d)
    with pytest.raises(ValueError, match=rf"^need an integer d >= 1, not {d!r}$"):
        divergence_probe(0.3, d)


@pytest.mark.parametrize("concentration", [-1.0, math.nan, math.inf])
def test_vmf_sampler_rejects_a_negative_or_non_finite_concentration(concentration):
    with pytest.raises(ValueError, match="concentration must be nonnegative and finite"):
        VmfSampler(np.array([0.0, 0.0, 1.0]), concentration)


def test_vmf_sampler_rejects_a_non_finite_direction():
    with pytest.raises(ValueError, match="non-finite entry"):
        VmfSampler(np.array([math.nan, 0.0, 1.0]), 1.0)


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


def test_pair_integral_and_probe_refuse_a_d_whose_sphere_area_overflows():
    # |S^(d-1)| is a normal float up to d = 438, the existence experiment's bound
    assert math.isfinite(reduced_pair_integral(0.0, 438, cutoff=0.5))
    with pytest.raises(ValueError, match="need d <= 438"):
        reduced_pair_integral(0.0, 439)
    with pytest.raises(ValueError, match="need d <= 438"):
        divergence_probe(0.0, 439)


@pytest.mark.parametrize("d, p, cutoff", [(200, 55.0, 1e-2), (343, 51.45, 1e-2),
                                          (200, 55.0, 0.0), (343, 100.0, 0.0),
                                          (400, 150.0, 1e-2), (438, 218.9, 0.0)])
def test_reduced_pair_integral_matches_the_beta_integral_at_large_d(d, p, cutoff):
    # with u = cos^2(t/2) the integral is |S^(d-1)| 2^(d-2p-1) times the
    # incomplete Beta integral B(d/2, d/2 - p) I_{cos^2(c/2)}(d/2, d/2 - p);
    # absolute quadrature tolerances used to miss it by 1.8e-4 to 0.53
    from scipy.special import betainc, betaln

    a, b = d / 2.0, d / 2.0 - p
    log_want = (math.log(sphere_surface(d - 1)) + (d - 2.0 * p - 1.0) * math.log(2.0)
                + betaln(a, b) + math.log(betainc(a, b, math.cos(0.5 * cutoff) ** 2)))
    got = reduced_pair_integral(p, d, cutoff)
    assert abs(got / math.exp(log_want) - 1.0) <= 1e-10


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


def test_divergence_probe_reports_an_unmeasured_exponent_as_nan():
    # at d = 64 the decade differences of p = -28 sit at quadrature noise
    # with no consecutive positive pair, so nothing is fitted
    rep = divergence_probe(-28, 64)
    assert not any(a > 0 and b > 0 for a, b in zip(rep.decade_differences,
                                                    rep.decade_differences[1:]))
    assert rep.classification == "convergent"
    assert math.isnan(rep.exponent_estimate) and math.isnan(rep.fit_residual)


def test_divergence_probe_fits_no_exponent_to_vanishing_differences():
    # at d = 64, p = -27.5 every decade difference is at most 1e-8 of the last
    # value, at quadrature noise: a fit to them read -0.30103, not 2|p| - d = -9
    rep = divergence_probe(-27.5, 64)
    assert max(rep.decade_differences) <= 1e-8 * abs(rep.values[-1])
    assert rep.classification == "convergent"
    assert math.isnan(rep.exponent_estimate) and math.isnan(rep.fit_residual)


def test_divergence_probe_classifies_a_power_beyond_the_float_range():
    # the integrand's sin(t/2) ** (d - 2p - 1) overflows near small cutoffs
    assert reduced_pair_integral(60.0, 1, 1e-6) == math.inf
    rep = divergence_probe(60.0, 1)
    assert rep.classification == "power-divergent"
    assert rep.values[-1] == math.inf


def test_divergence_probe_fits_no_exponent_past_an_infinite_value():
    # four of the five values are infinite, so no decade ratio was measured;
    # the closed form 2|p| - d is not an estimate
    rep = divergence_probe(-60.0, 1)
    assert sum(map(math.isinf, rep.values)) == 4
    assert rep.classification == "power-divergent"
    assert math.isnan(rep.exponent_estimate) and math.isnan(rep.fit_residual)


@pytest.mark.parametrize("d", [1, 2, 3, 64])
def test_divergence_probe_grid_matches_existence(d):
    grid_max = d / 2.0 + 0.5
    p = -grid_max
    while p <= grid_max + 1e-12:
        rep = divergence_probe(p, d)
        assert (rep.classification == "convergent") == existence_check(p, d), (p, d)
        p += 0.25


def frozen_trajectory(points, omega=None):
    fields = np.zeros((2, points.shape[1]))
    return Trajectory(np.array([0.0, 1.0]), np.stack([points, points]), fields, omega)


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
    for p, rep in zip(ps, reports, strict=True):
        one = conservation_drift(traj, p, 3, 60, seed=8)
        for name in ("times", "estimates", "relative_drift", "tuples"):
            assert getattr(rep, name).tobytes() == getattr(one, name).tobytes(), name
        assert rep.max_relative_drift.hex() == one.max_relative_drift.hex()
        assert rep.per_tuple_max_drift.hex() == one.per_tuple_max_drift.hex()


def _drift_report(traj, tuples, ps):
    """The reports of a drift recorder fed a whole trajectory as one block."""
    recorder = _DriftRecorder([tuples], ps)
    recorder.add(traj.times, traj.points.swapaxes(1, 2), traj.field_samples, None)
    return recorder.finish()[0]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 20), k=st.integers(2, 4),
       ps=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_drift_recorder_fed_in_blocks_gives_the_bits_of_conservation_drifts(n, k, ps, seed):
    om = SkewMatrix.random(2, seed, 1.0)
    traj = simulate(sample_uniform(2, n, seed).with_omega(om), MeanField(1.0), 0.3, 1e-2,
                    record_every=2)
    m = len(traj.times)
    want = conservation_drifts(traj, ps, k, 30, seed)
    # one snapshot per block, blocks of 7 and a short last one, one whole block
    for size in (1, 7, m):
        recorder = _DriftRecorder.drawn(traj.points[0], ps, [k], 30, seed)
        for b0 in range(0, m, size):
            # the component-major blocks of the run's feed
            recorder.add(traj.times[b0:b0 + size],
                         np.ascontiguousarray(traj.points[b0:b0 + size].swapaxes(1, 2)),
                         traj.field_samples[b0:b0 + size], None)
        for got, rep in zip(recorder.finish()[0], want, strict=True):
            for name in ("times", "estimates", "relative_drift", "tuples"):
                assert getattr(got, name).tobytes() == getattr(rep, name).tobytes(), name
            assert got.max_relative_drift.hex() == rep.max_relative_drift.hex()
            assert got.per_tuple_max_drift.hex() == rep.per_tuple_max_drift.hex()


def _reference_drift(traj, tuples, p):
    """The drift of fixed tuples from one all-snapshot array of cycle ratios,
    as ``_drift_report`` formed it before it worked in snapshot blocks."""
    ratios = np.array([_reference_cycle_ratios(pts[tuples])[0] for pts in traj.points])
    per_tuple = float(np.max(np.abs(ratios - ratios[0]) / ratios[0]))
    estimates = (ratios ** p).mean(axis=1)
    return estimates, per_tuple


# the floats one snapshot of the drift test below gathers: both endpoints of
# the 206 distinct pairs that its 60 * 6 chords join, 3 components each
_SNAPSHOT_FLOATS = 3 * 2 * 206


@pytest.mark.parametrize("block_floats", [1, 15624, 1 << 16])
def test_drift_report_blocks_match_one_array_bitwise(monkeypatch, block_floats):
    # one snapshot per block, blocks of 12 that leave a short last one of 2,
    # and one block of all 26 snapshots
    monkeypatch.setattr(functionals, "_DRIFT_BLOCK_FLOATS", block_floats)
    om = SkewMatrix.random(2, 31, 1.0)
    ens = sample_uniform(2, 24, 43).with_omega(om)
    traj = simulate(ens, MeanField(1.0), 0.5, 1e-2, record_every=2)
    assert len(traj.times) == 26 and 26 * _SNAPSHOT_FLOATS <= 1 << 16
    assert 15624 // _SNAPSHOT_FLOATS == 12
    tuples = _draw_cycles(rng_stream(8, stream=0), ens.points, 60, 3, 6000)[0]
    assert _pair_index([tuples])[0].shape == (2, 206)
    ps = [0.0, 0.4, -1.1]
    for p, rep in zip(ps, _drift_report(traj, tuples, ps)):
        estimates, per_tuple = _reference_drift(traj, tuples, p)
        assert rep.estimates.tobytes() == estimates.tobytes()
        assert rep.per_tuple_max_drift.hex() == per_tuple.hex()


@pytest.mark.parametrize("d", [1, 3, 7])
@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("block_floats", [1, 1 << 16])
def test_snapshot_cycle_ratios_are_each_snapshots_batch_bitwise(monkeypatch, d, k, block_floats):
    monkeypatch.setattr(functionals, "_DRIFT_BLOCK_FLOATS", block_floats)
    snapshots = np.stack([sample_uniform(d, 30, 100 * d + s).points for s in range(9)])
    tuples = _draw_cycles(rng_stream(k), snapshots[0], 40, k, 10**4)[0]
    tuples[0, 1] = tuples[0, 0]  # a zero chord: masked, its ratio 0 or NaN
    tuples[1, 2] = tuples[1, 1]  # a zero denominator chord
    # component-major snapshots as the feed yields them, and a Trajectory's swapaxes view
    for stack in (np.ascontiguousarray(snapshots.swapaxes(1, 2)), snapshots.swapaxes(1, 2)):
        blocks = list(functionals._snapshot_cycle_ratios(stack, _pair_index([tuples])))
        assert [b0 for b0, _, _ in blocks] == list(range(0, 9, blocks[0][1][0].shape[0]))
        ratios = np.concatenate([vals for _, (vals,), _ in blocks])
        bad = np.concatenate([mask for _, _, mask in blocks])
        assert bad.all()
        for pts, got in zip(snapshots, ratios):
            vals, mask = _reference_cycle_ratios(pts[tuples])
            assert got.tobytes() == vals.tobytes()
            assert mask[:2].all() and not mask[2:].any()
        # without the zero chords no snapshot is flagged
        clean = np.concatenate([mask for _, _, mask in
                                functionals._snapshot_cycle_ratios(stack,
                                                                   _pair_index([tuples[2:]]))])
        assert clean.shape == (9,) and not clean.any()


def _collapsing_trajectory(collapse_at):
    """Four points turning rigidly about the last axis, except that point 1
    sits on point 0 from snapshot ``collapse_at`` on."""
    c, sn = np.cos(0.05 * np.arange(40)), np.sin(0.05 * np.arange(40))
    zero, one = np.zeros(40), np.ones(40)
    points = np.stack([np.stack(v, axis=1) for v in
                       ((c, sn, zero), (-sn, c, zero), (-c, -sn, zero), (zero, zero, one))], axis=1)
    points[collapse_at:, 1] = points[collapse_at:, 0]
    return Trajectory(0.25 * np.arange(40), points, np.zeros((40, 3)))


def test_snapshot_cycle_ratios_hold_no_copy_of_the_block():
    import tracemalloc

    # the gather used to copy each sub-block of 21 snapshots into component-major
    # order first (a 534 kB peak); the gathered endpoints are 58 kB.  Neither a
    # component-major block of the feed nor a row-major stack's view is copied
    rows = rng_stream(5).standard_normal((100, 1000, 3))
    tuples = np.array([[0, 1, 2, 3], [10, 20, 30, 40], [999, 500, 7, 123]])
    for block in (np.ascontiguousarray(rows.swapaxes(1, 2)), rows.swapaxes(1, 2)):
        tracemalloc.start()
        try:
            for _ in functionals._snapshot_cycle_ratios(block, _pair_index([tuples])):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block.nbytes / 10


def test_drift_report_names_the_first_degenerate_snapshot(monkeypatch):
    # two snapshots per block of the endpoints of the two tuples' six pairs,
    # so the chord collapses inside block 11, not 0
    monkeypatch.setattr(functionals, "_DRIFT_BLOCK_FLOATS", 2 * 3 * (2 * 6))
    traj = _collapsing_trajectory(23)
    steady = np.array([[0, 2, 1, 3]])  # points 0 and 1 never adjacent
    assert _drift_report(traj, steady, [0.3])[0].estimates.size == 40
    with pytest.raises(ValueError, match=r"^tuple became degenerate along the trajectory at t = 5\.75$"):
        _drift_report(traj, np.vstack([steady, [0, 1, 2, 3]]), [0.3])


# coordinates at the edges of the float range: signed zeros, subnormals and
# the smallest normals, beside any finite float
_EDGE_COORDS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                                2.2250738585072014e-308, -2.2250738585072014e-308])
_COORDS = st.one_of(_EDGE_COORDS, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 17), n=st.integers(1, 9))
def test_a_squared_chord_has_the_bits_of_the_reversed_chord(data, dim, n):
    # the squared-chord table forms each pair (i, j) once, and a cycle may
    # read it as (j, i): x_i - x_j is -(x_j - x_i), and _component_dot adds
    # the same squares in the same lane order
    x, y = (np.array(data.draw(st.lists(_COORDS, min_size=dim * n, max_size=dim * n)))
            .reshape(dim, n) for _ in range(2))
    with np.errstate(over="ignore"):
        ij, ji = x - y, y - x
        assert np.array_equal(ij, -ji)
        assert _component_dot(ij, ij).tobytes() == _component_dot(ji, ji).tobytes()


def _shared_pair_sets(points):
    """Three tuple sets over one population that share pairs: k = 2 and
    k = 3 cycles from one stream, as the functional run draws them, and the
    k = 2 cycles reversed, which read each of their pairs from its other end."""
    two = _draw_cycles(rng_stream(4, stream=0), points, 40, 2, 10**4)[0]
    three = _draw_cycles(rng_stream(4, stream=0), points, 30, 3, 10**4)[0]
    return [two, three, np.ascontiguousarray(two[:, ::-1])]


def _fed_reports(traj, sets, ps, feed):
    """The reports of one drift recorder over ``sets``, fed the run's
    component-major blocks of 7 snapshots or a Trajectory's swapaxes view."""
    recorder = _DriftRecorder(sets, ps)
    if feed:
        for b0 in range(0, len(traj.times), 7):
            recorder.add(traj.times[b0:b0 + 7],
                         np.ascontiguousarray(traj.points[b0:b0 + 7].swapaxes(1, 2)),
                         traj.field_samples[b0:b0 + 7], None)
    else:
        recorder.add(traj.times, traj.points.swapaxes(1, 2), traj.field_samples, None)
    return recorder.finish()


@pytest.mark.parametrize("block_floats", [1, 1 << 16])
@pytest.mark.parametrize("feed", [True, False])
def test_a_drift_recorder_over_several_sets_gives_each_the_bits_of_its_own(monkeypatch,
                                                                          block_floats, feed):
    monkeypatch.setattr(functionals, "_DRIFT_BLOCK_FLOATS", block_floats)
    om = SkewMatrix.random(2, 31, 1.0)
    traj = simulate(sample_uniform(2, 12, 43).with_omega(om), MeanField(1.0), 0.5, 1e-2,
                    record_every=2)
    sets = _shared_pair_sets(traj.points[0])
    # 66 pairs among 12 points, so the sets' 560 chords share them
    assert _pair_index(sets)[0].shape[1] <= 66
    ps = [0.0, 0.4, -1.1]
    together = _fed_reports(traj, sets, ps, feed)
    for tuples, reports in zip(sets, together, strict=True):
        alone = _fed_reports(traj, [tuples], ps, feed)[0]
        for p, got, want in zip(ps, reports, alone, strict=True):
            for name in ("times", "estimates", "relative_drift", "tuples"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.max_relative_drift.hex() == want.max_relative_drift.hex()
            assert got.per_tuple_max_drift.hex() == want.per_tuple_max_drift.hex()
            # and the bits of the row-major chords, read in the set's own orientation
            estimates, per_tuple = _reference_drift(traj, tuples, p)
            assert got.estimates.tobytes() == estimates.tobytes()
            assert got.per_tuple_max_drift.hex() == per_tuple.hex()


@pytest.mark.parametrize("block_floats", [2 * 3 * (2 * 6), 1 << 16])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_degenerate_chord_in_any_set_names_the_first_degenerate_snapshot(monkeypatch,
                                                                          block_floats, position):
    # two snapshots per sub-block of the six pairs' endpoints, or all of a
    # feed block of 7, in which snapshot 23 is the third
    monkeypatch.setattr(functionals, "_DRIFT_BLOCK_FLOATS", block_floats)
    traj = _collapsing_trajectory(23)
    sets = [np.array([[0, 2, 1, 3]]), np.array([[2, 0, 3, 1]])]  # points 0 and 1 never adjacent
    assert all(r[0].estimates.size == 40 for r in _fed_reports(traj, sets, [0.3], True))
    sets.insert(position, np.array([[0, 1, 2, 3]]))
    for feed in (True, False):
        with pytest.raises(ValueError,
                           match=r"^tuple became degenerate along the trajectory at t = 5\.75$"):
            _fed_reports(traj, sets, [0.3], feed)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 5), k=st.integers(2, 4), p=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_shifted_tuples_turn_the_estimates_at_p_into_those_at_minus_p(d, k, p, seed):
    # a shift by one position swaps a cycle's numerator and denominator
    # chords, so each ratio is inverted and C^p becomes C^-p
    traj = simulate(sample_uniform(d, 12, seed), MeanField(1.0), 0.05, 1e-2)
    tuples = _draw_cycles(rng_stream(seed, stream=0), traj.points[0], 20, k, 10**4)[0]
    shifted = _drift_report(traj, np.roll(tuples, 1, axis=1), [p])[0].estimates
    mirrored = _drift_report(traj, tuples, [-p])[0].estimates
    np.testing.assert_allclose(shifted, mirrored, rtol=1e-12, atol=0.0)


def test_conservation_drift_needs_two_snapshots():
    ens = sample_uniform(2, 8, 41)
    traj = simulate(ens, MeanField(1.0), 0.0, 1e-3)
    with pytest.raises(ValueError, match="two snapshots"):
        conservation_drift(traj, 0.3, 2, 10, seed=1)
