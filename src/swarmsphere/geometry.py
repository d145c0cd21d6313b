"""Embedded-sphere primitives.

A point on the d-sphere is a plain float64 array of length d+1 with unit
Euclidean norm; an ensemble of n points is an (n, d+1) array.  The dimension
d is a runtime quantity, nothing here is specialised to a fixed d.  All
public operations are pure: inputs are never mutated and returned arrays are
marked read-only where they are shared.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ensemble",
    "SkewMatrix",
    "VmfSampler",
    "exact_mean",
    "renormalize",
    "renormalize_rows",
    "reorthonormalize",
    "rng_stream",
    "sample_uniform",
    "sample_vmf",
    "sphere_surface",
    "tangent_project",
]

_DEGENERATE_NORM = 1e-14
_MAX_SEED = 2**64
# exact_mean: row count from which the vector extraction beats per-column
# fsum (measured crossover between 128 and 256 rows at three columns), and
# the magnitude bound that keeps its power-of-two splitter finite.
_FOLD_MIN_ROWS = 192
_FOLD_MAX_ABS = 2.0**900


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based random generator keyed by (seed, stream).

    Distinct streams under the same seed are statistically independent, so
    sharded Monte-Carlo loops stay reproducible no matter how the shards are
    scheduled.
    """
    if not (0 <= seed < _MAX_SEED) or not (0 <= stream < _MAX_SEED):
        raise ValueError("seed and stream must be nonnegative 64-bit integers")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def renormalize(y) -> np.ndarray:
    """Scale a vector back onto the unit sphere."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("cannot renormalize a vector with a non-finite entry")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        n = math.sqrt(float(y @ y))
    if n <= _DEGENERATE_NORM:
        raise ValueError("degenerate point: cannot renormalize a near-zero vector")
    if n == math.inf:
        raise ValueError("cannot renormalize a vector whose squared norm overflows")
    return y / n


def renormalize_rows(points: np.ndarray) -> np.ndarray:
    """Row-wise renormalization of an (n, d+1) array, or of a stack of them.

    A row whose squared norm overflows has no finite norm to divide by; it
    comes out as NaN, like a row holding NaN, so every finite row returned
    has unit norm.
    """
    return _renormalize_rows_in_place(np.array(points, dtype=float))


def _renormalize_rows_in_place(rows: np.ndarray) -> np.ndarray:
    """``renormalize_rows`` without its copy, for a float array the caller
    has just made and may overwrite."""
    with np.errstate(over="ignore"):
        _renormalize_columns_in_place(np.swapaxes(rows, -1, -2))
    return rows


def _renormalize_columns_in_place(cols: np.ndarray) -> np.ndarray:
    """Renormalise in place the columns of a component-major (..., d+1, n)
    float stack, which are the points.  The squared norms are summed in
    einsum's order (``_component_dot``), so every point gets the bits of
    renormalising it as a row, and an overflowing one comes out as NaN."""
    norms = _component_dot(cols, cols)
    np.sqrt(norms, out=norms)
    # fmin and fmax skip NaN points, which stay NaN
    if np.fmin.reduce(norms, axis=None, initial=math.inf) <= _DEGENERATE_NORM:
        raise ValueError("degenerate point: cannot renormalize a near-zero vector")
    if np.fmax.reduce(norms, axis=None, initial=0.0) == math.inf:
        norms[norms == math.inf] = math.nan
    cols /= norms[..., None, :]
    return cols


@functools.cache
def _einsum_lanes(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two partial sums, as component indices in the order of addition,
    into which numpy's einsum splits a row reduction of m terms.

    Its contiguous sum of products runs on the baseline SIMD vectors, which
    on x86-64 hold two float64 lanes and multiply and add without fusing
    (numpy 2.4): blocks of eight terms are added four vectors at a time,
    last vector first, and the terms after the last block two at a time;
    the two lanes are added at the end.  ``test_component_dot_is_einsum``
    checks this against numpy for m up to 20, so a numpy that sums in
    another order fails there instead of changing the bits of a particle step.
    """
    blocks = m // 8 * 8
    lanes: tuple[list, list] = ([], [])
    for b in range(0, blocks, 8):
        lanes[0].extend((b + 6, b + 4, b + 2, b))
        lanes[1].extend((b + 7, b + 5, b + 3, b + 1))
    for j in range(blocks, m):
        lanes[j % 2].append(j)
    return tuple(lanes[0]), tuple(lanes[1])


def _component_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of the columns of component-major (..., m, n) arrays,
    b possibly broadcast, as whole-row operations: shape (..., n), with the
    bits of ``np.einsum("...ij,...ij->...i")`` (or ``"...ij,...j->...i"``)
    over their transposes.  The terms go into two partial sums in einsum's
    order (``_einsum_lanes``).  Einsum starts both at +0.0; starting the
    first alone there gives the same sum, a -0.0 in the second making no
    difference once it is added to the first, which is never -0.0."""
    terms = np.multiply(a, b)
    (first, *rest), odd = _einsum_lanes(terms.shape[-2])
    total = terms[..., first, :] + 0.0  # a fresh, contiguous (..., n) array
    for j in rest:
        total += terms[..., j, :]
    if odd:
        lane = terms[..., odd[0], :]
        for j in odd[1:]:
            lane += terms[..., j, :]
        total += lane
    return total


def tangent_project(x, v) -> np.ndarray:
    """Project v onto the tangent space of the sphere at x: v - <x,v> x."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape or x.ndim != 1:
        raise ValueError("dimension mismatch between point and vector")
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise ValueError("tangent projection needs a finite point and vector")
    return v - float(x @ v) * x


def reorthonormalize(r) -> np.ndarray:
    """Snap a near-rotation matrix to the closest orthogonal matrix.

    Uses the Newton iteration for the orthogonal polar factor,
    Q <- (Q + Q^{-T}) / 2, which converges quadratically near the orthogonal
    group and leaves exact rotations fixed.  Inputs further than 0.5 from
    orthogonality (Frobenius defect of R^T R) are rejected, as are inputs
    that are not orientation-preserving.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("expected a square matrix")
    n = r.shape[0]
    eye = np.eye(n)
    defect = np.linalg.norm(r.T @ r - eye)
    if not defect < 0.5:
        raise ValueError("matrix too far from orthogonal to correct")
    if np.linalg.det(r) <= 0.0:
        raise ValueError("matrix is not orientation-preserving")
    q = r
    for _ in range(50):
        q_next = 0.5 * (q + np.linalg.inv(q).T)
        if np.linalg.norm(q_next - q) <= 1e-15 * n:
            return q_next
        q = q_next
    raise ValueError("polar correction failed to converge")  # pragma: no cover


def sphere_surface(n: int) -> float:
    """Surface measure of the unit n-sphere embedded in R^{n+1}."""
    if not 0 <= n < math.inf:  # NaN fails too
        raise ValueError(f"sphere dimension must be nonnegative and finite, not {n!r}")
    if n >= 438:
        raise ValueError(f"need n <= 437: the area of S^{n} falls below the smallest normal float")
    if n <= 342:  # beyond, Gamma((n+1)/2) overflows and the area is formed in logs
        return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    return math.exp(math.log(2.0) + (n + 1) / 2.0 * math.log(math.pi) - math.lgamma((n + 1) / 2.0))


def exact_mean(points: np.ndarray) -> np.ndarray:
    """Column mean of an (n, m) array, bitwise equal to ``fsum(col) / n``.

    A stack of such arrays, shape (..., n, m), gives one mean per member,
    shape (..., m), with the same bits as each member on its own.  The
    extraction works on contiguous columns: row-major points are copied
    into that layout first, while the (..., n, m) transpose view of a
    component-major (..., m, n) stack, as the stepping loop hands it over,
    is used as it is.  No pass writes to the input.

    The exactness matters: when an ensemble consists of exact antipodal
    pairs the mean must come out as exactly zero, otherwise summation noise
    seeds a spurious symmetry-breaking drift in mean-field runs.

    Tall inputs are summed by error-free vector extraction (Rump, Ogita &
    Oishi, "Accurate floating-point summation part I: faithful rounding",
    SIAM J. Sci. Comput. 31(1), 2008).  With ``amax = max|x|`` and ``sigma``
    the power of two at least ``(n + 2) * amax``, each pass splits every
    entry exactly as ``x = q + r`` with ``q = (x + sigma) - sigma``.  Every
    ``q`` is a multiple of ``2**-53 * sigma`` and ``sum|q| < sigma``, so the
    column sums of ``q`` are exact in any summation order; every ``r`` is
    exact and at most ``2**-53 * sigma`` in size.  That bound, not a fresh
    maximum, sets the next ``sigma``, so a later pass only checks whether
    any remainder is left.  A pass removes about ``52 - log2(n)`` bits, and
    two passes empty unit-sphere data unless a coordinate is below about
    ``2**-32``.  The few exact partial sums are then rounded once (by
    ``fsum``, or by a single addition when there are two), which gives the
    correctly rounded column total and hence the same bits as ``fsum`` over
    the column, independent of row order.  A stack shares one ``sigma`` per
    pass, first taken from the largest entry of all members: that keeps
    every split exact, and a member whose entries are emptied early just
    adds zero parts.

    Below ``_FOLD_MIN_ROWS`` rows the fixed numpy call overhead of a pass
    costs more than ``fsum`` itself, and inputs with a non-finite entry or
    an entry of at least ``2**900`` (where ``sigma`` could overflow) keep the
    per-column ``fsum`` with its exact NaN and infinity behaviour.
    """
    points = np.asarray(points, dtype=float)
    n, m = points.shape[-2:]
    if n >= _FOLD_MIN_ROWS and points.size:
        # (..., m, n), each column contiguous: a transpose copy of row-major
        # points, a view of a component-major stack's state
        cols = np.ascontiguousarray(np.swapaxes(points, -1, -2))
        amax = float(np.abs(cols).max())
        if amax < _FOLD_MAX_ABS:
            shift = (n + 1).bit_length()
            parts = []
            while amax != 0.0:
                sigma = math.ldexp(1.0, math.frexp(amax)[1] + shift)
                q = cols + sigma
                q -= sigma
                parts.append(q.sum(axis=-1))
                cols = np.subtract(cols, q, out=q)  # the remainder; the input stays as it is
                amax = math.ldexp(sigma, -53) if cols.any() else 0.0
            if not parts:
                return np.zeros(cols.shape[:-1])
            if len(parts) == 1:
                return parts[0] / n
            if len(parts) == 2:
                # One IEEE addition rounds the exact total correctly, as fsum does.
                return (parts[0] + parts[1]) / n
            totals = np.stack(parts, axis=-1)
            return np.array([math.fsum(t) / n for t in totals.reshape(-1, len(parts)).tolist()]
                            ).reshape(totals.shape[:-1])
    cols = np.swapaxes(points, -1, -2).reshape(-1, n).tolist()
    return np.array([math.fsum(col) / n for col in cols]).reshape(points.shape[:-2] + (m,))


class SkewMatrix:
    """A (d+1) x (d+1) skew-symmetric flow generator.

    Only the strictly lower triangle is stored; the full matrix is mirrored
    on read, so the identity M^T = -M holds by construction.  Instances are
    immutable, hashable by the bit pattern of the stored triangle, and usable
    as dictionary keys for grouping particles that share a generator.
    """

    __slots__ = ("n", "_lower", "_full", "_hash")

    def __init__(self, n: int, lower):
        n = int(n)
        if n < 2:
            raise ValueError("ambient dimension must be at least 2")
        lower = np.array(lower, dtype=float).reshape(-1)
        if lower.size != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} lower-triangle entries, got {lower.size}")
        if not np.isfinite(lower).all():
            raise ValueError("generator entries must be finite")
        lower.flags.writeable = False
        self.n = n
        self._lower = lower
        self._full = None
        self._hash = hash((n, lower.tobytes()))

    @property
    def matrix(self) -> np.ndarray:
        if self._full is None:
            m = np.zeros((self.n, self.n))
            m[np.tril_indices(self.n, -1)] = self._lower
            m = m - m.T
            m.flags.writeable = False
            self._full = m
        return self._full

    @classmethod
    def zero(cls, d: int) -> "SkewMatrix":
        return cls(d + 1, np.zeros((d + 1) * d // 2))

    @classmethod
    def from_matrix(cls, a) -> "SkewMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("generator entries must be finite")
        if np.max(np.abs(a + a.T)) > 1e-12:
            raise ValueError("matrix is not skew-symmetric")
        return cls(a.shape[0], a[np.tril_indices(a.shape[0], -1)])

    @classmethod
    def random(cls, d: int, seed: int, scale: float = 1.0) -> "SkewMatrix":
        """Gaussian lower triangle with the given scale, seeded deterministically."""
        rng = rng_stream(seed)
        return cls(d + 1, scale * rng.standard_normal((d + 1) * d // 2))

    @classmethod
    def planar(cls, d: int, rate: float, plane: tuple[int, int] = (0, 1)) -> "SkewMatrix":
        """Generator of a rotation at the given rate in one coordinate plane.

        ``plane=(i, j)`` rotates axis i toward axis j.
        """
        i, j = plane
        if i == j or not (0 <= i <= d) or not (0 <= j <= d):
            raise ValueError("plane must name two distinct axes in range")
        m = np.zeros((d + 1, d + 1))
        m[j, i] = rate
        m[i, j] = -rate
        return cls.from_matrix(m)

    def __eq__(self, other):
        if not isinstance(other, SkewMatrix):
            return NotImplemented
        return self.n == other.n and self._lower.tobytes() == other._lower.tobytes()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SkewMatrix(n={self.n}, |lower|={np.linalg.norm(self._lower):.3g})"


def _on_unit_sphere(cols: np.ndarray) -> bool:
    """Whether every point, a column of a nonempty component-major (..., d+1, n)
    array, has norm within 1e-9 of 1 (a NaN fails); in place past the products."""
    dev = _component_dot(cols, cols)
    np.subtract(np.sqrt(dev, out=dev), 1.0, out=dev)
    return bool(np.abs(dev, out=dev).max() <= 1e-9)


def _checked_omega(omega, n: int, dim: int):
    """Generator labels for n particles in R^dim: None, one SkewMatrix, or
    one per particle, which a list or tuple becomes a tuple of."""
    if isinstance(omega, (list, tuple)):
        omega = tuple(omega)
        if len(omega) != n:
            raise ValueError("per-particle generator list length must match the point count")
        for om in omega:
            if not isinstance(om, SkewMatrix) or om.n != dim:
                raise ValueError("generator dimension must match the ambient dimension")
    elif isinstance(omega, SkewMatrix):
        if omega.n != dim:
            raise ValueError("generator dimension must match the ambient dimension")
    elif omega is not None:
        raise TypeError("omega must be None, a SkewMatrix, or a tuple of SkewMatrix")
    return omega


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Ordered particle states on the sphere, with optional generator labels.

    ``omega`` is either None (no free flow), a single shared SkewMatrix, or a
    tuple with one SkewMatrix per particle.  Instances are immutable values;
    the point array is copied on construction and marked read-only.  An
    ensemble has no clock: time belongs to the run that steps it.
    """

    points: np.ndarray
    omega: "SkewMatrix | tuple[SkewMatrix, ...] | None" = None
    _groups = None  # (omega_groups(), _omega_slices()), once worked out; not a dataclass field

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C")
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 2:
            raise ValueError("points must be an (n, d+1) array with d >= 1")
        if not _on_unit_sphere(pts.T):
            raise ValueError("ensemble points must lie on the unit sphere")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "omega", _checked_omega(self.omega, *pts.shape))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1] - 1

    def with_omega(self, omega) -> "Ensemble":
        return Ensemble(self.points, omega)

    def _at(self, points: np.ndarray) -> "Ensemble":
        """The same particles at other points, on a C-contiguous
        float array that the caller hands over, finite and row-renormalised,
        so the unit-norm check is skipped.  The generators carry over, and
        so do their groups, worked out once."""
        # set one by one, so the instance keeps its compact key-sharing dict
        ens, put = object.__new__(Ensemble), object.__setattr__
        points.flags.writeable = False
        put(ens, "points", points)
        put(ens, "omega", self.omega)
        put(ens, "_groups", self._grouping())
        return ens

    def omega_groups(self) -> tuple[tuple["SkewMatrix | None", np.ndarray], ...]:
        """Distinct generators with the particle indices that carry them,
        worked out once per ensemble (and shared with the ensembles that
        ``_at`` makes from it); the index arrays are read-only."""
        return self._grouping()[0]

    def _omega_slices(self) -> tuple[tuple["SkewMatrix | None", "np.ndarray | slice"], ...]:
        """``omega_groups`` with each contiguous index run turned into a
        slice, so that the particle velocities update views rather than
        gathering and scattering by index, and a zero generator turned into
        None; cached with the groups."""
        return self._grouping()[1]

    def _grouping(self):
        """(``omega_groups``, ``_omega_slices``), worked out on first use."""
        grouping = self._groups  # read as an attribute: touching __dict__ would build one
        if grouping is None:
            buckets: dict = {}
            omega = self.omega if isinstance(self.omega, tuple) else (self.omega,) * self.n
            for i, om in enumerate(omega):
                buckets.setdefault(om, []).append(i)
            groups = tuple((om, np.array(idx)) for om, idx in buckets.items())
            for _, idx in groups:
                idx.flags.writeable = False
            # the indices of a group increase, so they are one run exactly
            # when they span as many places as they number; a zero generator
            # moves nothing, so its run carries None and the velocities skip it
            slices = tuple((om if om is not None and om._lower.any() else None,
                            slice(int(idx[0]), int(idx[-1]) + 1)
                            if idx[-1] - idx[0] + 1 == idx.size else idx) for om, idx in groups)
            grouping = groups, slices
            object.__setattr__(self, "_groups", grouping)
        return grouping


def _uniform_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return _renormalize_rows_in_place(rng.standard_normal((n, d + 1)))


def sample_uniform(d: int, n: int, seed: int) -> Ensemble:
    """n i.i.d. uniformly distributed points on the d-sphere."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    return Ensemble(_uniform_rows(rng_stream(seed), n, d))


def _vmf_rows(rng: np.random.Generator, mu: np.ndarray, concentration: float, n: int) -> np.ndarray:
    # Wood-style rejection sampler for the cosine against the mean direction,
    # then a uniform tangent direction.
    m = mu.size
    dm = m - 1
    kappa = float(concentration)
    b = dm / (math.sqrt(4.0 * kappa * kappa + dm * dm) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    if x0 * x0 >= 1.0:  # the envelope constant below would take log(0)
        raise ValueError(f"vMF concentration {kappa!r} is too large to sample at d = {dm}")
    c = kappa * x0 + dm * math.log(1.0 - x0 * x0)
    ws = np.empty(n)
    have = 0
    while have < n:
        todo = n - have
        draw = max(2 * todo, 64)
        z = rng.beta(dm / 2.0, dm / 2.0, size=draw)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(draw)
        ok = kappa * w + dm * np.log1p(-x0 * w) - c >= np.log(u)
        accepted = w[ok][:todo]
        ws[have : have + accepted.size] = accepted
        have += accepted.size
    v = rng.standard_normal((n, m))
    v -= np.outer(v @ mu, mu)
    _renormalize_rows_in_place(v)
    pts = ws[:, None] * mu + np.sqrt(np.maximum(0.0, 1.0 - ws * ws))[:, None] * v
    return _renormalize_rows_in_place(pts)


class VmfSampler:
    """Fresh i.i.d. von Mises-Fisher points about a mean direction;
    concentration zero draws uniform points.  ``sample_vmf`` and the
    continuous-source cycle estimates both draw through it."""

    def __init__(self, mu, concentration: float):
        self.mu = renormalize(mu)
        if not 0 <= concentration < math.inf:
            raise ValueError("concentration must be nonnegative and finite")
        self.concentration = float(concentration)
        self.d = self.mu.size - 1

    def draw(self, rng: np.random.Generator, count: int, width: int) -> np.ndarray:
        """``count`` groups of ``width`` points, shape (count, width, d+1)."""
        if self.concentration == 0.0:
            pts = _uniform_rows(rng, count * width, self.d)
        else:
            pts = _vmf_rows(rng, self.mu, self.concentration, count * width)
        return pts.reshape(count, width, self.d + 1)


def sample_vmf(mu, concentration: float, n: int, seed: int) -> Ensemble:
    """n i.i.d. von Mises-Fisher samples with the given mean direction.

    Concentration zero reduces exactly to the uniform distribution.
    """
    sampler = VmfSampler(mu, concentration)
    if n < 1:
        raise ValueError("need n >= 1")
    return Ensemble(sampler.draw(rng_stream(seed), n, 1)[:, 0])
