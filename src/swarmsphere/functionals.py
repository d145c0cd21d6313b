"""Cross-ratio invariants and their kinetic functional counterparts.

For four sphere points the cross ratio

    C(x1, x2, x3, x4) = |x1 - x2|^2 |x3 - x4|^2 / (|x2 - x3|^2 |x4 - x1|^2)

is preserved by the reduction map, hence along every trajectory of the
dynamics.  Its 2k-point generalisation multiplies alternating squared chords
around a cycle.  Averaging C^p (resp. the cycle ratio to the p-th power)
over independent draws from a density gives the kinetic conserved
functionals estimated here by Monte Carlo; they are finite exactly when
|p| < d/2, which ``existence_check``, ``reduced_pair_integral`` and
``divergence_probe`` cover from the analytic side.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .dynamics import Trajectory
from .geometry import Ensemble, _uniform_rows, _vmf_rows, renormalize, rng_stream, sphere_surface

__all__ = [
    "DivergenceReport",
    "DivergentIntegralError",
    "DriftReport",
    "FunctionalEstimate",
    "UniformSphereSampler",
    "VmfSampler",
    "conservation_drift",
    "conservation_drifts",
    "cross_ratio",
    "cycle_ratio",
    "divergence_probe",
    "estimate_cycle_moment",
    "estimate_cycle_moments",
    "existence_check",
    "mixture_functional",
    "reduced_pair_integral",
]

_CHORD_TOL = 1e-14
_BLOCK = 1 << 14


class DivergentIntegralError(ValueError):
    """Raised when the requested singular integral does not exist."""


def _chord_sq(a, b) -> float:
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(diff @ diff)


def cross_ratio(x1, x2, x3, x4) -> float:
    """Cross ratio of four sphere points (squared-chord convention)."""
    d23 = _chord_sq(x2, x3)
    d41 = _chord_sq(x4, x1)
    if d23 <= _CHORD_TOL or d41 <= _CHORD_TOL:
        raise ValueError("coincident denominator pair in cross ratio")
    return _chord_sq(x1, x2) * _chord_sq(x3, x4) / (d23 * d41)


def cycle_ratio(points) -> float:
    """Alternating product of squared chords around a 2k-cycle.

    For k = 2 this is exactly the cross ratio; a cyclic shift by one
    position inverts the value.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 4 or pts.shape[0] % 2:
        raise ValueError("need an even number (>= 4) of points")
    diffs = pts - np.roll(pts, -1, axis=0)
    ch2 = np.einsum("ij,ij->i", diffs, diffs)
    den = ch2[1::2]
    if np.min(den) <= _CHORD_TOL:
        raise ValueError("coincident denominator pair in cycle ratio")
    return float(np.prod(ch2[0::2]) / np.prod(den))


def _cycle_ratios_batch(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cycle ratios for a batch (m, 2k, dim); returns (values, degenerate_mask)."""
    diffs = pts - np.roll(pts, -1, axis=1)
    ch2 = np.einsum("mkd,mkd->mk", diffs, diffs)
    bad = (ch2 <= _CHORD_TOL).any(axis=1)
    ch2 = np.where(ch2 <= _CHORD_TOL, 1.0, ch2)  # masked rows are discarded anyway
    vals = ch2[:, 0::2].prod(axis=1) / ch2[:, 1::2].prod(axis=1)
    return vals, bad


class UniformSphereSampler:
    """Fresh i.i.d. uniform sphere points for continuous-source estimates."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("need d >= 1")
        self.d = d

    def draw(self, rng: np.random.Generator, count: int, width: int) -> np.ndarray:
        return _uniform_rows(rng, count * width, self.d).reshape(count, width, self.d + 1)


class VmfSampler:
    """Fresh i.i.d. von Mises-Fisher points for continuous-source estimates."""

    def __init__(self, mu, concentration: float):
        self.mu = renormalize(mu)
        if concentration < 0:
            raise ValueError("concentration must be nonnegative")
        self.concentration = float(concentration)
        self.d = self.mu.size - 1

    def draw(self, rng: np.random.Generator, count: int, width: int) -> np.ndarray:
        if self.concentration == 0.0:
            pts = _uniform_rows(rng, count * width, self.d)
        else:
            pts = _vmf_rows(rng, self.mu, self.concentration, count * width)
        return pts.reshape(count, width, self.d + 1)


@dataclass(frozen=True)
class FunctionalEstimate:
    """Monte-Carlo estimate of a conserved cycle-moment functional."""

    value: float
    std_error: float
    samples: int
    p: float
    k: int
    d: int
    seed: int
    existence_flag: bool
    median_of_means: float | None = None
    rejected: int = 0

    def record(self) -> dict:
        """JSON-ready record with the fixed export key set."""
        return {
            "p": self.p,
            "k": self.k,
            "d": self.d,
            "m": self.samples,
            "seed": self.seed,
            "value": self.value,
            "std_error": self.std_error,
            "median_of_means": self.median_of_means,
            "existence_flag": self.existence_flag,
        }


def _draw_index_tuples(rng: np.random.Generator, points: np.ndarray, count: int, k: int,
                       reject_cap: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Index cycles of length 2k with no cyclically adjacent repeats and no
    degenerate chords at the given configuration, redrawn until ``count``
    are found; returns them with their cycle ratios and the number of
    rejected draws, which may not exceed ``reject_cap``."""
    n = points.shape[0]
    if n < 2:
        raise ValueError("ensemble too small to form nondegenerate cycles")
    out = np.empty((count, 2 * k), dtype=np.int64)
    vals = np.empty(count)
    rejected = 0
    todo = np.arange(count)
    while todo.size:
        cand = rng.integers(0, n, size=(todo.size, 2 * k))
        bad = (cand == np.roll(cand, -1, axis=1)).any(axis=1)
        ratios, degenerate = _cycle_ratios_batch(points[cand])
        bad |= degenerate
        good = ~bad
        out[todo[good]] = cand[good]
        vals[todo[good]] = ratios[good]
        rejected += int(bad.sum())
        if rejected > reject_cap:
            raise ValueError("too many degenerate tuple draws; ensemble lacks distinct points")
        todo = todo[bad]
    return out, vals, rejected


def _estimate_block(source, k: int, seed: int, block_index: int, need: int,
                    reject_cap: int) -> tuple[np.ndarray, int]:
    """Cycle ratios of one block of nondegenerate draws and its rejections."""
    rng = rng_stream(seed, stream=block_index + 1)
    if isinstance(source, Ensemble):
        _, ratios, rejected = _draw_index_tuples(rng, source.points, need, k, reject_cap)
        return ratios, rejected
    rejected = 0
    vals = np.empty(need)
    todo = np.arange(need)
    while todo.size:
        ratios, bad = _cycle_ratios_batch(source.draw(rng, todo.size, 2 * k))
        good = ~bad
        vals[todo[good]] = ratios[good]
        rejected += int(bad.sum())
        if rejected > reject_cap:
            raise ValueError("too many degenerate tuple draws; ensemble lacks distinct points")
        todo = todo[bad]
    return vals, rejected


def estimate_cycle_moments(source, ps, k: int, m: int, seed: int) -> list[FunctionalEstimate]:
    """Monte-Carlo means of (cycle ratio)^p over m random 2k-cycles, one
    estimate per p in ``ps``.

    The draws do not depend on p, so the m cycle ratios are computed once and
    raised to every p.  With an Ensemble source the cycles are index tuples
    drawn uniformly over the adjacent-distinct index cycles; with a
    continuous sampler each cycle uses 2k fresh i.i.d. points.  Degenerate
    draws are rejected and redrawn (capped at 100 m rejections).  The work is
    split into fixed blocks with per-block counter-based streams, so the
    result does not depend on how many threads execute the blocks
    (SWARMSPHERE_THREADS, default 1).

    For |p| >= d/4 the tail of (cycle ratio)^p is heavy enough that the plain
    standard error is optimistic, so a 32-block median of means is reported
    alongside it.
    """
    if k < 2:
        raise ValueError("cycle half-length k must be at least 2")
    if m < 1:
        raise ValueError("need at least one tuple")
    d = source.d
    reject_cap = 100 * m
    blocks = [(b, min(_BLOCK, m - b * _BLOCK)) for b in range((m + _BLOCK - 1) // _BLOCK)]
    ratios = np.empty(m)
    rejected_total = 0
    workers = int(os.environ.get("SWARMSPHERE_THREADS", "1") or "1")

    def run_block(args):
        b, need = args
        return b, _estimate_block(source, k, seed, b, need, reject_cap)

    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(args) for args in blocks]
    for b, (vals, rej) in results:
        ratios[b * _BLOCK : b * _BLOCK + vals.size] = vals
        rejected_total += rej
    del results, vals  # free the block arrays before the per-p temporaries
    if rejected_total > reject_cap:
        raise ValueError("too many degenerate tuple draws; ensemble lacks distinct points")

    estimates = []
    for p in ps:
        values = ratios ** p
        value = float(np.mean(values))
        std_error = float(np.std(values, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
        mom = None
        if abs(p) >= d / 4.0 and m >= 32:
            mom = float(np.median([chunk.mean() for chunk in np.array_split(values, 32)]))
        estimates.append(FunctionalEstimate(
            value=value, std_error=std_error, samples=m, p=float(p), k=int(k), d=d,
            seed=int(seed), existence_flag=existence_check(p, d), median_of_means=mom,
            rejected=rejected_total))
    return estimates


def estimate_cycle_moment(source, p: float, k: int, m: int, seed: int) -> FunctionalEstimate:
    """``estimate_cycle_moments`` for a single p."""
    return estimate_cycle_moments(source, [p], k, m, seed)[0]


def mixture_functional(source, weights, k: int, m: int, seed: int) -> float:
    """Weighted sum of cycle moments over a finite grid of (p, weight) pairs,
    all from one set of draws."""
    weights = list(weights)
    estimates = estimate_cycle_moments(source, [p for p, _ in weights], k, m, seed)
    return math.fsum(wt * est.value for (_, wt), est in zip(weights, estimates))


def existence_check(p: float, d: int) -> bool:
    """Whether the p-th cycle moment of any smooth density on S^d is finite."""
    if d < 1:
        raise ValueError("need d >= 1")
    return -d / 2.0 < p < d / 2.0


def reduced_pair_integral(p: float, d: int, cutoff: float = 0.0) -> float:
    """The radial pair integral governing existence of the cycle moments.

    Integrates |S^{d-1}| * 2^{d-2p-1} sin(t/2)^{d-2p-1} cos(t/2)^{d-1} over
    t in [cutoff, pi] by adaptive quadrature (relative tolerance 1e-10).
    At cutoff zero the integrand behaves like t^{d-2p-1} near the origin, so
    the integral exists only for d - 2p > 0; otherwise this raises and
    ``divergence_probe`` is the tool to use.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not 0.0 <= cutoff < math.pi:
        raise ValueError("cutoff must lie in [0, pi)")
    if cutoff == 0.0 and d - 2.0 * p <= 0.0:
        raise DivergentIntegralError("divergent integral: d - 2p <= 0 at zero cutoff")
    a = d - 2.0 * p - 1.0
    b = d - 1.0

    def integrand(theta: float) -> float:
        return 2.0 ** a * math.sin(0.5 * theta) ** a * math.cos(0.5 * theta) ** b

    with warnings.catch_warnings():
        # the returned error estimate is validated below, which is stricter
        # than QUADPACK's convergence chatter
        warnings.simplefilter("ignore", IntegrationWarning)
        if cutoff > 0.0:
            # steer the subdivision into the steep layer above the cutoff; the
            # plain adaptive pass can overlook it entirely for small cutoffs
            breaks = sorted({x for x in (10 * cutoff, 1e3 * cutoff, 1e-2, 1e-1)
                             if cutoff < x < math.pi})
            val, err = quad(integrand, cutoff, math.pi, epsabs=1e-12, epsrel=1e-10,
                            limit=2000, points=breaks or None)
        else:
            val, err = quad(integrand, cutoff, math.pi, epsabs=1e-12, epsrel=1e-10,
                            limit=2000)
    if math.isfinite(val) and not err <= max(1e-8 * abs(val), 1e-9):
        raise RuntimeError("quadrature failed to reach the requested tolerance")
    return sphere_surface(d - 1) * val


@dataclass(frozen=True)
class DivergenceReport:
    """Numerical small-cutoff behaviour of the reduced pair integral."""

    p: float
    d: int
    classification: str  # "convergent" | "log-divergent" | "power-divergent"
    exponent_estimate: float
    fit_residual: float
    cutoffs: tuple[float, ...]
    values: tuple[float, ...]
    decade_differences: tuple[float, ...]


def divergence_probe(p: float, d: int) -> DivergenceReport:
    """Classify the cutoff behaviour of the reduced pair integral.

    Evaluates the integral at cutoffs 1e-2 .. 1e-6 and inspects the decade
    differences J(eps/10) - J(eps): vanishing differences mean convergence,
    a constant positive difference means logarithmic divergence (the p = d/2
    boundary), geometric growth means a power divergence with the estimated
    exponent 2p - d.  The moment symmetry under p -> -p lets the probe work
    with |p|.
    """
    q = abs(float(p))
    cutoffs = tuple(10.0 ** (-e) for e in range(2, 7))
    values = tuple(reduced_pair_integral(q, d, c) for c in cutoffs)
    diffs = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    tail_scale = max(1.0, abs(values[-1]))
    finite = all(math.isfinite(v) for v in values)
    if not finite:
        return DivergenceReport(float(p), d, "power-divergent", 2.0 * q - d, math.nan,
                                cutoffs, values, diffs)
    if diffs[-1] <= 1e-8 * tail_scale:
        exps = [math.log10(diffs[i + 1] / diffs[i]) for i in range(len(diffs) - 1)
                if diffs[i] > 0 and diffs[i + 1] > 0]
        est = float(np.mean(exps)) if exps else -(d - 2.0 * q)
        res = float(np.std(exps)) if exps else math.nan
        return DivergenceReport(float(p), d, "convergent", est, res, cutoffs, values, diffs)
    ratios = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1)]
    exps = [math.log10(r) for r in ratios]
    est = float(np.mean(exps))
    res = float(np.std(exps))
    if est < -0.25:
        cls = "convergent"
    elif est <= 0.25:
        cls = "log-divergent"
    else:
        cls = "power-divergent"
    return DivergenceReport(float(p), d, cls, est, res, cutoffs, values, diffs)


@dataclass(frozen=True)
class DriftReport:
    """Conservation drift of a fixed-tuple cycle-moment estimate over time."""

    times: np.ndarray
    estimates: np.ndarray
    relative_drift: np.ndarray
    max_relative_drift: float
    per_tuple_max_drift: float
    tuples: np.ndarray
    p: float
    k: int

    def rows(self):
        return [(t, e, r) for t, e, r in zip(self.times, self.estimates, self.relative_drift)]


def conservation_drifts(traj: Trajectory, ps, k: int, m: int, seed: int) -> list[DriftReport]:
    """Evaluate a fixed set of index cycles at every snapshot of a trajectory,
    one report per p in ``ps``.

    The m cycles are drawn once from the initial snapshot and their ratios
    are computed once for all p; each report carries the estimate's relative
    drift from its initial value and the worst per-tuple relative drift of
    the raw cycle ratio.  Both are integrator error for the exact dynamics.
    """
    if len(traj.states) < 2:
        raise ValueError("need at least two snapshots")
    if k < 2 or m < 1:
        raise ValueError("need k >= 2 and m >= 1")
    rng = rng_stream(seed, stream=0)
    tuples, _, _ = _draw_index_tuples(rng, traj.states[0].points, m, k, 100 * m)
    return _drift_report(traj, tuples, ps, k)


def conservation_drift(traj: Trajectory, p: float, k: int, m: int, seed: int) -> DriftReport:
    """``conservation_drifts`` for a single p."""
    return conservation_drifts(traj, [p], k, m, seed)[0]


def _drift_report(traj: Trajectory, tuples: np.ndarray, ps, k: int) -> list[DriftReport]:
    """Drift of the cycle ratios of fixed index tuples over every snapshot,
    one report per p."""
    ratios = np.empty((len(traj.states), tuples.shape[0]))
    for i, st in enumerate(traj.states):
        vals, bad = _cycle_ratios_batch(st.points[tuples])
        if bad.any():
            raise ValueError("tuple became degenerate along the trajectory")
        ratios[i] = vals
    # the per-tuple drift does not depend on p; build it in one buffer
    dev = ratios - ratios[0]
    np.abs(dev, out=dev)
    dev /= ratios[0]
    per_tuple = float(np.max(dev))
    del dev
    reports = []
    for p in ps:
        estimates = (ratios ** p).mean(axis=1)
        rel = np.abs(estimates - estimates[0]) / abs(estimates[0])
        reports.append(DriftReport(
            times=traj.times.copy(), estimates=estimates, relative_drift=rel,
            max_relative_drift=float(np.max(rel)), per_tuple_max_drift=per_tuple,
            tuples=tuples, p=float(p), k=int(k)))
    return reports
