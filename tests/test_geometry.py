import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swarmsphere import (
    Ensemble,
    SkewMatrix,
    VmfSampler,
    exact_mean,
    renormalize,
    renormalize_rows,
    reorthonormalize,
    rng_stream,
    sample_uniform,
    sample_vmf,
    sphere_surface,
    tangent_project,
)
from swarmsphere.geometry import _FOLD_MIN_ROWS, _component_dot, _renormalize_columns_in_place


def test_tangent_project_radial_vector_vanishes():
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.all(tangent_project(e1, e1) == 0.0)


def test_tangent_project_coordinate_split():
    e1 = np.array([1.0, 0.0, 0.0])
    v = np.array([1.0, 1.0, 0.0])
    np.testing.assert_allclose(tangent_project(e1, v), [0.0, 1.0, 0.0], atol=1e-15)


def test_tangent_project_orthogonality_random():
    rng = rng_stream(1)
    for _ in range(200):
        x = renormalize(rng.standard_normal(4))
        v = rng.standard_normal(4)
        assert abs(x @ tangent_project(x, v)) <= 1e-12


def test_tangent_project_dimension_mismatch():
    with pytest.raises(ValueError):
        tangent_project(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("x, v", [([math.nan, 0.0, 1.0], [1.0, 0.0, 0.0]),
                                  ([0.0, 0.0, 1.0], [math.inf, 0.0, 0.0])])
def test_tangent_project_refuses_a_non_finite_vector(x, v):
    # a NaN point used to give NaNs
    with pytest.raises(ValueError, match="^tangent projection needs a finite point and vector$"):
        tangent_project(x, v)


def test_renormalize_basic():
    np.testing.assert_array_equal(renormalize([2.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_renormalize_idempotent_on_unit_input():
    x = renormalize(rng_stream(2).standard_normal(3))
    y = renormalize(x)
    assert np.max(np.abs(x - y)) <= 1e-16


def test_renormalize_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        renormalize([0.0, 0.0, 0.0])


@pytest.mark.parametrize("y, message", [
    ([math.nan, 0.0, 0.0], "non-finite entry"),
    ([math.inf, 0.0, 0.0], "non-finite entry"),
    ([1e200, 0.0, 0.0], "squared norm overflows"),
])
def test_renormalize_rejects_a_vector_without_a_finite_norm(y, message):
    with pytest.raises(ValueError, match=message):
        renormalize(y)


def test_renormalize_rows_of_a_stack_and_its_edge_rows():
    pts = rng_stream(4).standard_normal((2, 5, 3))
    got = renormalize_rows(pts)
    for member, want in zip(pts, got):
        assert renormalize_rows(member).tobytes() == want.tobytes()
    np.testing.assert_allclose(np.linalg.norm(got, axis=-1), 1.0, rtol=1e-15)
    # a squared norm that overflows, like a NaN entry, leaves a NaN row
    odd = renormalize_rows([[1e200, 0.0, 0.0], [0.0, 3.0, 4.0], [math.nan, 0.0, 1.0]])
    assert np.isnan(odd[[0, 2]]).all() and odd[1].tolist() == [0.0, 0.6, 0.8]
    with pytest.raises(ValueError, match="degenerate"):
        renormalize_rows([[math.nan, 1.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("m", range(1, 21))
def test_component_dot_is_einsum(m):
    # the stacked particle loop relies on these bits; a numpy whose einsum
    # sums a row in another order fails here
    rng = np.random.default_rng(m)
    a = rng.standard_normal((2, 300, m)) * np.ldexp(1.0, rng.integers(-30, 31, size=(2, 300, m)))
    b = rng.standard_normal((2, 300, m))
    a[:, :60] = np.where(rng.random((2, 60, m)) < 0.5, -0.0, 0.0)  # sums of signed zeros
    x = rng.standard_normal((2, m))
    for got, want in [
        (_component_dot(a.swapaxes(-1, -2), b.swapaxes(-1, -2)), np.einsum("...ij,...ij->...i", a, b)),
        (_component_dot(a.swapaxes(-1, -2), x[..., None]), np.einsum("...ij,...j->...i", a, x)),
        (_component_dot(a.swapaxes(-1, -2), a.swapaxes(-1, -2)), np.einsum("...ij,...ij->...i", a, a)),
    ]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_renormalize_columns_is_renormalize_rows_of_the_transpose():
    for d in (1, 2, 6, 8):
        pts = rng_stream(d).standard_normal((3, 40, d + 1))
        pts[0, 0] = 1e200  # an overflowing squared norm, like a NaN, leaves NaN
        pts[1, 1, 0] = math.nan
        cols = pts.swapaxes(-1, -2).copy()
        with np.errstate(over="ignore"):  # as in the stepping loop, where it runs
            got = _renormalize_columns_in_place(cols)
        assert got is cols
        assert got.swapaxes(-1, -2).copy().tobytes() == renormalize_rows(pts).tobytes()
    with pytest.raises(ValueError, match="degenerate"):
        _renormalize_columns_in_place(np.zeros((3, 2)))


def test_exact_mean_reads_a_component_major_view_as_it_is():
    x = sample_uniform(2, 300, 8).points
    cols = np.stack([x, -x[::-1]]).swapaxes(-1, -2).copy()
    before = cols.tobytes()
    got = exact_mean(cols.swapaxes(-1, -2))
    assert got.tobytes() == exact_mean(np.stack([x, -x[::-1]])).tobytes()
    assert cols.tobytes() == before


def test_reorthonormalize_identity_fixed():
    eye = np.eye(4)
    np.testing.assert_array_equal(reorthonormalize(eye), eye)


def test_reorthonormalize_matches_svd_polar_factor():
    # independent oracle: closest orthogonal matrix via the SVD polar factor
    rng = rng_stream(3)
    noise = rng.standard_normal((3, 3))
    noise = 1e-8 * (noise + noise.T)
    r = np.eye(3) + noise
    fixed = reorthonormalize(r)
    u, _, vt = np.linalg.svd(r)
    oracle = u @ vt
    np.testing.assert_allclose(fixed, oracle, atol=1e-13)
    assert np.linalg.norm(fixed - np.eye(3)) <= 2e-8
    assert np.linalg.norm(fixed.T @ fixed - np.eye(3)) <= 1e-14


def test_reorthonormalize_exact_rotation_unchanged():
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(reorthonormalize(rot), rot, atol=1e-14)


def test_reorthonormalize_idempotent():
    rng = rng_stream(4)
    r = np.eye(3) + 1e-3 * rng.standard_normal((3, 3))
    once = reorthonormalize(r)
    twice = reorthonormalize(once)
    assert np.max(np.abs(once - twice)) <= 1e-14


def test_reorthonormalize_rejects_far_input():
    with pytest.raises(ValueError):
        reorthonormalize(2.0 * np.eye(3))


def test_reorthonormalize_rejects_reflection():
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="orientation"):
        reorthonormalize(refl)


def test_sample_uniform_norms_and_determinism():
    a = sample_uniform(3, 500, 9)
    b = sample_uniform(3, 500, 9)
    assert np.max(np.abs(np.linalg.norm(a.points, axis=1) - 1.0)) <= 1e-12
    np.testing.assert_array_equal(a.points, b.points)
    c = sample_uniform(3, 500, 10)
    assert not np.array_equal(a.points, c.points)


def test_sample_uniform_mean_norm_clt_bound():
    # CLT: |sample mean| ~ 1/sqrt(n (d+1)) per coordinate; 4/sqrt(n) is a 4-sigma-ish bound
    n = 10**5
    ens = sample_uniform(2, n, 123)
    assert np.linalg.norm(ens.points.mean(axis=0)) <= 4.0 / math.sqrt(n)


def test_sample_uniform_validation():
    with pytest.raises(ValueError):
        sample_uniform(0, 10, 1)
    with pytest.raises(ValueError):
        sample_uniform(2, 0, 1)


def test_sample_vmf_zero_concentration_is_uniform():
    # two-sample KS test on the cosine against a fixed axis
    from scipy.stats import ks_2samp

    e = np.array([0.0, 0.0, 1.0])
    a = sample_vmf(e, 0.0, 4000, 21).points @ e
    b = sample_uniform(2, 4000, 22).points @ e
    assert ks_2samp(a, b).pvalue > 0.01


@pytest.mark.parametrize("concentration", [0.0, 2.5])
def test_sample_vmf_is_a_width_one_sampler_draw(concentration):
    mu = [0.3, -0.2, 0.9]
    points = sample_vmf(mu, concentration, 50, 17).points
    drawn = VmfSampler(mu, concentration).draw(rng_stream(17), 50, 1)[:, 0]
    assert points.tobytes() == drawn.tobytes()
    if concentration == 0.0:
        assert points.tobytes() == sample_uniform(2, 50, 17).points.tobytes()


def test_sample_vmf_concentrated_mean_direction():
    mu = renormalize([1.0, 2.0, -0.5])
    ens = sample_vmf(mu, 50.0, 10**4, 7)
    mean_dir = renormalize(ens.points.mean(axis=0))
    assert np.linalg.norm(mean_dir - mu) <= 0.05
    assert np.max(np.abs(np.linalg.norm(ens.points, axis=1) - 1.0)) <= 1e-12


def test_sample_vmf_cosine_marginal_matches_exact_cdf():
    # on S^2 the cosine against mu has density proportional to exp(k w) on
    # [-1, 1], so the CDF is (exp(k w) - exp(-k)) / (exp(k) - exp(-k))
    from scipy.stats import kstest

    kappa = 2.5
    mu = np.array([0.0, 0.0, 1.0])
    w = sample_vmf(mu, kappa, 5000, 31).points @ mu

    def cdf(x):
        return (np.exp(kappa * x) - math.exp(-kappa)) / (math.exp(kappa) - math.exp(-kappa))

    assert kstest(w, cdf).pvalue > 0.01


def test_sample_vmf_deterministic_and_validated():
    mu = np.array([0.0, 1.0])
    a = sample_vmf(mu, 3.0, 100, 5)
    b = sample_vmf(mu, 3.0, 100, 5)
    np.testing.assert_array_equal(a.points, b.points)
    with pytest.raises(ValueError):
        sample_vmf(mu, -1.0, 10, 0)


@pytest.mark.parametrize("concentration", [math.nan, math.inf])
def test_sample_vmf_rejects_a_non_finite_concentration(concentration):
    # a NaN concentration never accepts a draw, an infinite one fails in log
    with pytest.raises(ValueError, match="concentration must be nonnegative and finite"):
        sample_vmf(np.array([0.0, 1.0]), concentration, 10, 0)


@pytest.mark.parametrize("d", [1, 2])
def test_sample_vmf_names_a_concentration_too_large_to_sample(d):
    # the envelope constant x0 = (1 - b) / (1 + b) rounds to 1 here
    with pytest.raises(ValueError, match=rf"concentration 1e\+16 is too large to sample at d = {d}$"):
        sample_vmf(np.eye(d + 1)[-1], 1e16, 4, 0)
    assert sample_vmf(np.eye(6)[-1], 1e16, 4, 0).n == 4


def test_sample_vmf_keeps_its_bits_just_below_the_largest_concentration():
    # the values before the too-large concentration was named
    got = sample_vmf(np.eye(3)[-1], 3e15, 4, 0).points
    want = [["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
            ["-0x1.6836378d86771p-28", "-0x1.df46c2240a934p-27", "0x1.fffffffffffffp-1"],
            ["0x1.f972ea870ceaap-27", "0x1.1ef18b1892a41p-25", "0x1.ffffffffffffap-1"],
            ["-0x1.2fe7b91adcfd6p-28", "-0x1.1baf3bfebd813p-25", "0x1.ffffffffffffbp-1"]]
    assert [[float(x).hex() for x in row] for row in got] == want


def test_skew_matrix_exact_antisymmetry():
    om = SkewMatrix.random(3, 17, 2.0)
    assert np.max(np.abs(om.matrix + om.matrix.T)) == 0.0


def test_skew_action_is_tangent():
    rng = rng_stream(6)
    om = SkewMatrix.random(2, 8, 1.5)
    for _ in range(100):
        x = renormalize(rng.standard_normal(3))
        assert abs(x @ (x @ om.matrix.T)) <= 1e-12


def test_skew_planar_generator():
    om = SkewMatrix.planar(2, 2.0, (0, 1))
    np.testing.assert_allclose(np.array([1.0, 0.0, 0.0]) @ om.matrix.T, [0.0, 2.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_skew_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="generator entries must be finite"):
        SkewMatrix(3, [bad, 0.0, 0.0])


def test_skew_from_matrix_rejects_a_non_finite_entry_by_name():
    # the NaN sits on the diagonal, which the stored triangle would drop
    with pytest.raises(ValueError, match="generator entries must be finite"):
        SkewMatrix.from_matrix([[math.nan, -1.0], [1.0, 0.0]])


def test_skew_from_matrix_rejects_non_skew():
    with pytest.raises(ValueError):
        SkewMatrix.from_matrix(np.eye(3))


def test_skew_hash_by_bit_pattern():
    a = SkewMatrix.planar(2, 1.0)
    b = SkewMatrix.planar(2, 1.0)
    c = SkewMatrix.planar(2, 1.0 + 1e-16)
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert (a == c) == (1.0 == 1.0 + 1e-16)


def test_ensemble_validation_and_immutability():
    pts = sample_uniform(2, 4, 3).points
    ens = Ensemble(pts, SkewMatrix.zero(2), 0.0)
    assert not ens.points.flags.writeable
    with pytest.raises(ValueError):
        Ensemble(2.0 * pts)
    with pytest.raises(ValueError):
        Ensemble(pts, (SkewMatrix.zero(2),) * 3)


@pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
def test_ensemble_rejects_a_non_finite_time_by_name(time):
    with pytest.raises(ValueError, match="ensemble time must be finite"):
        Ensemble(sample_uniform(2, 4, 3).points, None, time=time)


def test_ensemble_rejects_nan_points():
    with pytest.raises(ValueError):
        Ensemble([[np.nan, 0.0, 1.0], [0.0, 0.0, 1.0]])


def test_ensemble_omega_groups():
    pts = sample_uniform(2, 6, 4).points
    om_a = SkewMatrix.zero(2)
    om_b = SkewMatrix.planar(2, 1.0)
    ens = Ensemble(pts, (om_a, om_b, om_a, om_b, om_a, om_a))
    groups = ens.omega_groups()
    assert len(groups) == 2
    np.testing.assert_array_equal(groups[0][1], [0, 2, 4, 5])
    np.testing.assert_array_equal(groups[1][1], [1, 3])
    # worked out once, read-only, and shared with the states derived by _at
    assert not groups[0][1].flags.writeable
    later = ens._at(ens.points, 1.0)
    assert later.time == 1.0 and later.omega is ens.omega
    assert all(a is b for (_, a), (_, b) in zip(later.omega_groups(), groups))


def test_exact_mean_cancels_antipodal_pairs():
    half = sample_uniform(2, 101, 13).points
    paired = np.vstack([half, -half])
    assert np.all(exact_mean(paired) == 0.0)


# Row counts on both sides of the switch from per-column fsum to the
# vectorised extraction inside exact_mean.
MEAN_SIZES = [1, _FOLD_MIN_ROWS - 1, _FOLD_MIN_ROWS, 1000]


def _fsum_mean(x):
    n = x.shape[0]
    return np.array([math.fsum(col) / n for col in x.T.tolist()])


def _assert_mean_is_fsum(x, rng):
    """exact_mean(x) has the bits of fsum(col)/n, whatever the row order."""
    got = exact_mean(x)
    assert got.tobytes() == _fsum_mean(x).tobytes()
    assert exact_mean(x[rng.permutation(x.shape[0])]).tobytes() == got.tobytes()
    return got


def _mean_case(kind, rng, n, m):
    if kind == "gaussian":
        return rng.standard_normal((n, m))
    if kind == "scaled":
        return rng.standard_normal((n, m)) * np.ldexp(1.0, rng.integers(-300, 301, size=(n, m)))
    if kind == "subnormal":
        return rng.integers(-3, 4, size=(n, m)) * 5e-324
    if kind == "near_tie":
        base = np.array([1.0, 2.0**-53, 2.0**-106, -(2.0**-106), 3 * 2.0**-54])
        return rng.choice(base, size=(n, m)) * rng.choice([1.0, -1.0], size=(n, m))
    if kind in ("big_cancel", "max_cancel"):
        big = 1e200 if kind == "big_cancel" else np.finfo(float).max
        x = rng.standard_normal((n + 1, m))
        x[0], x[-1] = big, -big
        return x
    raise AssertionError(kind)  # pragma: no cover


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["gaussian", "scaled", "subnormal", "near_tie", "big_cancel", "max_cancel"]),
    n=st.sampled_from(MEAN_SIZES),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_mean_bitwise_equals_fsum(kind, n, m, seed):
    rng = np.random.default_rng(seed)
    _assert_mean_is_fsum(_mean_case(kind, rng, n, m), rng)


@settings(deadline=None, max_examples=40)
@given(
    x=st.sampled_from(MEAN_SIZES).flatmap(
        lambda n: arrays(
            np.float64,
            (n, 3),
            elements=st.floats(-1e300, 1e300, allow_subnormal=True)
            | st.sampled_from([1.0, -1.0, 2.0**-53, 2.0**-106, 5e-324, -0.0, 1e200, -1e200]),
        )
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_mean_bitwise_equals_fsum_adversarial(x, seed):
    rng = np.random.default_rng(seed)
    try:
        _fsum_mean(x)
    except OverflowError:
        with pytest.raises(OverflowError):
            exact_mean(x)
        return
    _assert_mean_is_fsum(x, rng)


@settings(deadline=None, max_examples=40)
@given(
    b=st.integers(1, 3),
    n=st.sampled_from(MEAN_SIZES),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    antipodal=st.booleans(),
    tiny=st.booleans(),
)
def test_exact_mean_of_a_stack_is_each_members_fsum(b, n, m, seed, antipodal, tiny):
    # the members share one splitter per pass; each still gets fsum(col)/n
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, n, m))
    if antipodal:  # member 0: exact antipodal pairs, a zero row if n is odd
        h = n // 2
        x[0, h : 2 * h] = -x[0, :h]
        x[0, 2 * h :] = 0.0
        x[0] = x[0, rng.permutation(n)]
    if tiny:
        x[-1] *= 2.0**-40
    got = exact_mean(x)
    assert got.shape == (b, m)
    for member, mean in zip(x, got):
        assert mean.tobytes() == _fsum_mean(member).tobytes() == exact_mean(member).tobytes()
    if antipodal:
        assert np.all(got[0] == 0.0) and not np.any(np.signbit(got[0]))


@settings(deadline=None, max_examples=30)
@given(n=st.sampled_from(MEAN_SIZES), seed=st.integers(0, 2**32 - 1))
def test_exact_mean_shuffled_antipodal_pairs_are_exactly_zero(n, seed):
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((n, 3)) * np.ldexp(1.0, rng.integers(-60, 61, size=(n, 3)))
    paired = np.vstack([half, -half])[rng.permutation(2 * n)]
    got = _assert_mean_is_fsum(paired, rng)
    assert np.all(got == 0.0) and not np.any(np.signbit(got))


@pytest.mark.parametrize("n", MEAN_SIZES)
def test_exact_mean_negative_zero_columns_give_positive_zero(n):
    rng = np.random.default_rng(n)
    x = np.full((n, 3), -0.0)
    got = _assert_mean_is_fsum(x, rng)
    assert np.all(got == 0.0) and not np.any(np.signbit(got))
    x[:, 1] = 0.5
    got = _assert_mean_is_fsum(x, rng)
    assert got[0] == 0.0 and not np.signbit(got[0])


@pytest.mark.parametrize("n", MEAN_SIZES)
def test_exact_mean_non_finite_matches_fsum(n):
    x = sample_uniform(2, n, 3).points.copy()
    x[0, 0] = np.nan
    x[-1, 1] = np.inf
    got = _assert_mean_is_fsum(x, np.random.default_rng(n))
    assert np.isnan(got[0]) and got[1] == np.inf
    x = np.ones((n + 1, 3))
    x[0, 2], x[-1, 2] = np.inf, -np.inf
    with pytest.raises(ValueError):
        math.fsum(x[:, 2].tolist())
    with pytest.raises(ValueError):
        exact_mean(x)


def test_sphere_surface_known_values():
    assert sphere_surface(0) == pytest.approx(2.0, rel=1e-15)
    assert sphere_surface(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_surface(2) == pytest.approx(4 * math.pi, rel=1e-15)


@pytest.mark.parametrize("n", [math.nan, math.inf, -1])
def test_sphere_surface_refuses_a_negative_or_non_finite_dimension(n):
    # nan used to give nan
    with pytest.raises(ValueError, match=rf"^sphere dimension must be nonnegative and finite, "
                                         rf"not {n!r}$"):
        sphere_surface(n)


def test_rng_stream_independence_and_validation():
    a = rng_stream(5, 0).standard_normal(8)
    b = rng_stream(5, 1).standard_normal(8)
    assert not np.array_equal(a, b)
    with pytest.raises(ValueError):
        rng_stream(-1)
