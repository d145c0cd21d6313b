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

from .dynamics import _DRIFT_BLOCK_FLOATS, Trajectory
from .geometry import Ensemble, _component_dot, rng_stream, sphere_surface

__all__ = [
    "DivergenceReport",
    "DivergentIntegralError",
    "DriftReport",
    "FunctionalEstimate",
    "conservation_drift",
    "conservation_drifts",
    "cycle_ratio",
    "divergence_probe",
    "estimate_cycle_moment",
    "estimate_cycle_moments",
    "existence_check",
    "reduced_pair_integral",
]

_CHORD_TOL = 1e-14
_BLOCK = 1 << 14
# the pair integral is scaled by the area |S^(d-1)|, a normal float only up to this d
_MAX_PAIR_D = 438


class DivergentIntegralError(ValueError):
    """Raised when the requested singular integral does not exist."""


def cycle_ratio(points) -> float:
    """Alternating product of squared chords around a 2k-cycle.

    For k = 2 this is exactly the cross ratio; a cyclic shift by one
    position inverts the value.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 4 or pts.shape[0] % 2:
        raise ValueError("need an even number (>= 4) of points")
    if not np.isfinite(pts).all():
        raise ValueError("cycle ratio points must be finite")
    ratio, ch2 = _cycle_ratios((pts - np.roll(pts, -1, axis=0)).T, pts.shape[0])
    if np.min(ch2[1::2]) <= _CHORD_TOL:
        raise ValueError("coincident denominator pair in cycle ratio")
    return float(ratio[0])


def _cycle_ratios(chords: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Cycle ratios (..., m) of m cycles of ``width`` = 2k points, and their
    squared chords (..., 2k, m), from the chord vectors x_j - x_{j+1},
    component-major and position-major: (..., d+1, 2k m), chord j of cycle
    i in column j m + i.  Squared chords are summed in einsum's order
    (``_component_dot``), so each cycle gets the bits of the row-major
    expression.  Unguarded, as ``_chord_ratios`` is."""
    ch2 = _component_dot(chords, chords)
    ch2 = ch2.reshape(ch2.shape[:-1] + (width, ch2.shape[-1] // width))
    return _chord_ratios(ch2), ch2


def _chord_ratios(ch2: np.ndarray) -> np.ndarray:
    """Cycle ratios (..., m) from the squared chords (..., 2k, m) of m
    cycles, the products formed position after position, the order of
    numpy's product over a row.  Unguarded: a zero denominator gives inf,
    0/0 NaN; each caller judges degeneracy from the squared chords."""
    num = ch2[..., 0, :] * ch2[..., 2, :]
    den = ch2[..., 1, :] * ch2[..., 3, :]
    for j in range(4, ch2.shape[-2], 2):
        num *= ch2[..., j, :]
        den *= ch2[..., j + 1, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        num /= den
    return num


def _pair_index(sets) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct unordered point pairs that the chords x_j - x_{j+1} of
    sets of index cycles (m, 2k) join, (2, P), and per set the position of
    each chord's pair, (2k, m).  A chord read from its pair's other end is
    negated exactly (IEEE subtraction is antisymmetric), and its squared
    length keeps its bits."""
    ends = [np.stack([t.T, np.roll(t, -1, axis=1).T]) for t in sets]  # (2, 2k, m) each
    flat = np.concatenate([e.reshape(2, -1) for e in ends], axis=1)
    base = int(flat.max()) + 1
    keys, inverse = np.unique(flat.min(axis=0) * base + flat.max(axis=0), return_inverse=True)
    cuts = np.cumsum([e[0].size for e in ends])[:-1]
    return (np.stack(np.divmod(keys, base)),
            [pos.reshape(e.shape[1:]) for pos, e in zip(np.split(inverse, cuts), ends)])


def _snapshot_cycle_ratios(snapshots: np.ndarray, index):
    """The cycle ratios of sets of fixed index cycles at every snapshot of
    a component-major (s, d+1, n) stack, a block of snapshots at a time,
    with ``index`` the sets' ``_pair_index``: yields the block's first
    index, each set's ratios (b, m), and whether each of its snapshots has
    a chord at most ``_CHORD_TOL`` in any set, shape (b,).

    Each distinct pair's squared chord is formed once per snapshot, into a
    table (b, P) that every set reads through its positions.  The pairs'
    endpoints are taken straight from each snapshot's n (d+1) floats as
    stored (row-major in a ``Trajectory``'s view) by one flat index built
    once, component-major, (b, d+1, 2, P): no block is copied, and the
    kernel reads contiguous chords.
    """
    pairs, positions = index
    _, dim, n = snapshots.shape
    comp = np.arange(dim)[:, None, None]
    flat = comp * n + pairs
    if snapshots.strides[1] < snapshots.strides[2]:  # a row-major stack's view
        snapshots, flat = snapshots.swapaxes(1, 2), pairs * dim + comp
    rows = max(1, _DRIFT_BLOCK_FLOATS // flat.size)
    for b0 in range(0, len(snapshots), rows):
        block = snapshots[b0:b0 + rows]
        chords = np.take(block.reshape(len(block), n * dim), flat, axis=1)
        diffs = chords[..., 0, :]
        np.subtract(diffs, chords[..., 1, :], out=diffs)
        table = _component_dot(diffs, diffs)
        # every pair of the table is a chord of some set
        yield (b0, [_chord_ratios(np.take(table, pos, axis=1)) for pos in positions],
               (table <= _CHORD_TOL).any(axis=1))


@dataclass(frozen=True)
class FunctionalEstimate:
    """Monte-Carlo estimate of a conserved cycle-moment functional."""

    value: float
    std_error: float
    samples: int
    median_of_means: float | None = None
    rejected: int = 0


def _rejection_error(source, label: np.ndarray | None = None) -> ValueError:
    """The error for a spent rejection budget, naming its usual cause."""
    if not isinstance(source, np.ndarray):
        return ValueError("too many degenerate tuple draws; the sampler's points nearly coincide")
    if label is not None:
        return ValueError("too many degenerate or single-group tuple draws; usually a group is "
                          "too small to appear in 2k-cycles")
    return ValueError("too many degenerate tuple draws; ensemble lacks distinct points")


def _draw_cycles(rng: np.random.Generator, source, count: int, k: int, reject_cap: int,
                 label: np.ndarray | None = None) -> tuple[np.ndarray | None, np.ndarray, int]:
    """``count`` random 2k-cycles without a degenerate chord, redrawn until
    found; returns their index cycles, their cycle ratios and the number of
    rejected draws, which may not exceed ``reject_cap``.

    A points array as source gives index cycles drawn uniformly over its
    rows; a sampler gives 2k fresh points per cycle and no index cycles
    (None).  A cyclically repeated index makes a zero chord, so it is
    rejected with the degenerate draws.  With group ``label``s per row, a
    cycle must also span at least two groups.  Every cycle draw of the
    package passes through here, so k and ``count`` are checked here.
    """
    if k < 2:
        raise ValueError("cycle half-length k must be at least 2")
    if count < 1:
        raise ValueError("need at least one tuple")
    indexed = isinstance(source, np.ndarray)
    if indexed and source.shape[0] < 2:
        raise ValueError("ensemble too small to form nondegenerate cycles")
    cycles = np.empty((count, 2 * k), dtype=np.int64) if indexed else None
    vals = np.empty(count)
    rejected = 0
    todo = np.arange(count)
    while todo.size:
        if indexed:
            cand = rng.integers(0, source.shape[0], size=(todo.size, 2 * k))
            pts = source.T[:, cand.T]
        else:
            pts = source.draw(rng, todo.size, 2 * k).T
        # the chords x_j - x_{j+1} of every cycle, (d+1, 2k, count); the
        # points go before the kernel makes its own temporary of their size
        chords = np.empty(pts.shape)
        np.subtract(pts[:, :-1], pts[:, 1:], out=chords[:, :-1])
        np.subtract(pts[:, -1], pts[:, 0], out=chords[:, -1])
        del pts
        ratios, ch2 = _cycle_ratios(chords.reshape(len(chords), -1), 2 * k)
        bad = (ch2 <= _CHORD_TOL).any(axis=0)
        if indexed:
            if label is not None:
                bad |= ~(label[cand] != label[cand[:, :1]]).any(axis=1)
            cycles[todo[~bad]] = cand[~bad]
        vals[todo[~bad]] = ratios[~bad]
        rejected += int(bad.sum())
        if rejected > reject_cap:
            raise _rejection_error(source, label)
        todo = todo[bad]
    return cycles, vals, rejected


def estimate_cycle_moments(source, ps, k: int, m: int, seed: int) -> list[FunctionalEstimate]:
    """Monte-Carlo means of (cycle ratio)^p over m random 2k-cycles, one
    estimate per p in ``ps``.

    The draws do not depend on p, so the m cycle ratios are computed once and
    raised to every p.  With an Ensemble source the cycles are index tuples
    drawn uniformly over the adjacent-distinct index cycles; with a
    continuous sampler each cycle uses 2k fresh i.i.d. points.  Degenerate
    draws are rejected and redrawn (capped at 100 m rejections).  The work is
    split into fixed blocks with per-block counter-based streams, run on one
    thread per CPU the process may use (at most one per block), so the result
    does not depend on the worker count.

    For |p| >= d/4 the tail of (cycle ratio)^p is heavy enough that the plain
    standard error is optimistic, so a 32-block median of means is reported
    alongside it.
    """
    if m < 1:  # no block at all, so the drawer would never see it
        raise ValueError("need at least one tuple")
    d = source.d
    for p in ps:  # a non-finite p is refused before drawing
        existence_check(p, d)
    draw_from = source.points if isinstance(source, Ensemble) else source
    reject_cap = 100 * m
    blocks = [(b, min(_BLOCK, m - b * _BLOCK)) for b in range((m + _BLOCK - 1) // _BLOCK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    ratios = np.empty(m)

    def run_block(args):  # a block's ratios go straight to its slice; its rejections are returned
        b, need = args
        _, vals, rejected = _draw_cycles(rng_stream(seed, stream=b + 1), draw_from, need, k,
                                         reject_cap)
        ratios[b * _BLOCK : b * _BLOCK + need] = vals
        return rejected

    with ThreadPoolExecutor(max_workers=min(cpus or 1, len(blocks))) as pool:
        rejected_total = sum(pool.map(run_block, blocks))
    if rejected_total > reject_cap:
        raise _rejection_error(draw_from)

    values = np.empty(m)  # every p's powers, in turn
    estimates = []
    for p in ps:
        # in-place ** takes the sqrt, square and reciprocal paths that
        # ratios ** p takes for p = 0.5, 2 and -1; np.power(out=) calls pow
        np.copyto(values, ratios)
        values **= p
        value, std_error, mom = _moment_summary(values, abs(p) >= d / 4.0)
        estimates.append(FunctionalEstimate(value, std_error, m, mom, rejected_total))
    return estimates


def _moment_summary(values: np.ndarray, heavy: bool) -> tuple[float, float, float | None]:
    """The mean of ``values``, its standard error and, for a ``heavy`` tail
    and at least 32 values, the median of the means of 32 chunks, with the
    bits of ``np.mean``, ``np.std(values, ddof=1) / sqrt(m)`` and
    ``np.median`` over ``np.array_split(values, 32)``.  The deviations are
    formed in ``values``, which this overwrites once the median is read."""
    m = values.size
    mean = np.mean(values)
    mom = None
    if heavy and m >= 32:
        mom = float(np.median([chunk.mean() for chunk in np.array_split(values, 32)]))
    std_error = 0.0
    if m > 1:  # np.std's own steps: squared deviations from the mean, summed by add.reduce
        np.subtract(values, mean, out=values)
        np.square(values, out=values)
        std_error = float(np.sqrt(np.add.reduce(values) / (m - 1)) / math.sqrt(m))
    return float(mean), std_error, mom


def estimate_cycle_moment(source, p: float, k: int, m: int, seed: int) -> FunctionalEstimate:
    """``estimate_cycle_moments`` for a single p."""
    return estimate_cycle_moments(source, [p], k, m, seed)[0]


def _check_dimension(d):
    """Refuse a sphere dimension d that is not an integer >= 1, by name."""
    if isinstance(d, (bool, np.bool_)) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"need an integer d >= 1, not {d!r}")


def existence_check(p: float, d: int) -> bool:
    """Whether the p-th cycle moment of any smooth density on S^d is finite."""
    _check_dimension(d)
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    return -d / 2.0 < p < d / 2.0


def reduced_pair_integral(p: float, d: int, cutoff: float = 0.0) -> float:
    """The radial pair integral governing existence of the cycle moments.

    Integrates |S^{d-1}| * 2^{d-2p-1} sin(t/2)^{d-2p-1} cos(t/2)^{d-1} over
    t in [cutoff, pi] by adaptive quadrature (relative tolerance 1e-10).
    At cutoff zero the integrand behaves like t^{d-2p-1} near the origin, so
    the integral exists only for d - 2p > 0; otherwise this raises and
    ``divergence_probe`` is the tool to use.
    """
    # imported here: only the existence experiment integrates, and scipy
    # costs every other run its import time and memory
    from scipy.integrate import IntegrationWarning, quad

    _check_dimension(d)
    if d > _MAX_PAIR_D:
        raise ValueError(f"need d <= {_MAX_PAIR_D}: the area of S^(d-1) underflows beyond")
    if not math.isfinite(p):
        raise ValueError("p must be finite")
    if not 0.0 <= cutoff < math.pi:
        raise ValueError("cutoff must lie in [0, pi)")
    if cutoff == 0.0 and d - 2.0 * p <= 0.0:
        raise DivergentIntegralError("divergent integral: d - 2p <= 0 at zero cutoff")
    a = d - 2.0 * p - 1.0
    b = d - 1.0

    def integrand(theta: float) -> float:
        try:
            return 2.0 ** a * math.sin(0.5 * theta) ** a * math.cos(0.5 * theta) ** b
        except OverflowError:  # a power beyond the float range: the integral is infinite
            return math.inf

    # steer the subdivision into the steep layer above a cutoff; the plain
    # adaptive pass can overlook it entirely for small cutoffs
    breaks = sorted({x for x in (10 * cutoff, 1e3 * cutoff, 1e-2, 1e-1)
                     if cutoff < x < math.pi}) if cutoff > 0.0 else []
    with warnings.catch_warnings():
        # the returned error estimate is validated below, which is stricter
        # than QUADPACK's convergence chatter
        warnings.simplefilter("ignore", IntegrationWarning)
        # relative tolerances only: at large d the integral lies far below 1
        val, err = quad(integrand, cutoff, math.pi, epsabs=0.0, epsrel=1e-10,
                        limit=2000, points=breaks or None)
    if math.isfinite(val) and not err <= 1e-8 * abs(val):
        raise RuntimeError("quadrature failed to reach the requested tolerance")
    return sphere_surface(d - 1) * val


@dataclass(frozen=True)
class DivergenceReport:
    """Numerical small-cutoff behaviour of the reduced pair integral."""

    classification: str  # "convergent" | "log-divergent" | "power-divergent"
    exponent_estimate: float
    fit_residual: float
    cutoffs: tuple[float, ...]
    values: tuple[float, ...]
    decade_differences: tuple[float, ...]


def divergence_probe(p: float, d: int) -> DivergenceReport:
    """Classify the cutoff behaviour of the reduced pair integral.

    Evaluates the integral at cutoffs 1e-2 .. 1e-6 and inspects the decade
    differences J(eps/10) - J(eps): vanishing differences (at most 1e-8 of
    the last value) mean convergence, a constant positive difference means
    logarithmic divergence (the p = d/2 boundary), geometric growth means a
    power divergence with the estimated exponent 2p - d, fitted as the mean
    log10 ratio of consecutive differences that do not vanish, so that no
    exponent is fitted to quadrature noise (NaN, with its residual, where no
    such pair was measured or a value is infinite).
    The moment symmetry under p -> -p lets the probe work with |p|.
    """
    q = abs(float(p))
    cutoffs = tuple(10.0 ** (-e) for e in range(2, 7))
    values = tuple(reduced_pair_integral(q, d, c) for c in cutoffs)
    diffs = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    if not all(math.isfinite(v) for v in values):  # an infinite value: nothing to fit
        return DivergenceReport("power-divergent", math.nan, math.nan, cutoffs, values, diffs)
    vanishing = 1e-8 * abs(values[-1])
    exps = [math.log10(b / a) for a, b in zip(diffs, diffs[1:]) if min(a, b) > vanishing]
    est = float(np.mean(exps)) if exps else math.nan
    res = float(np.std(exps)) if exps else math.nan
    if diffs[-1] <= vanishing or est < -0.25:
        cls = "convergent"
    elif est <= 0.25:
        cls = "log-divergent"
    else:
        cls = "power-divergent"
    return DivergenceReport(cls, est, res, cutoffs, values, diffs)


@dataclass(frozen=True)
class DriftReport:
    """Conservation drift of a fixed-tuple cycle-moment estimate over time."""

    times: np.ndarray
    estimates: np.ndarray
    relative_drift: np.ndarray
    max_relative_drift: float
    per_tuple_max_drift: float
    tuples: np.ndarray


def conservation_drifts(traj: Trajectory, ps, k: int, m: int, seed: int) -> list[DriftReport]:
    """Evaluate a fixed set of index cycles at every snapshot of a trajectory,
    one report per p in ``ps``.

    The m cycles are drawn once from the initial snapshot and their ratios
    are computed once for all p; each report carries the estimate's relative
    drift from its initial value and the worst per-tuple relative drift of
    the raw cycle ratio.  Both are integrator error for the exact dynamics.
    """
    recorder = _DriftRecorder.drawn(traj.points[0], ps, [k], m, seed)
    recorder.add(traj.times, traj.points.swapaxes(1, 2), traj.field_samples, None)
    return recorder.finish()[0]


def conservation_drift(traj: Trajectory, p: float, k: int, m: int, seed: int) -> DriftReport:
    """``conservation_drifts`` for a single p."""
    return conservation_drifts(traj, [p], k, m, seed)[0]


class _DriftRecorder:
    """Drift of the cycle ratios of sets of fixed index tuples (m, 2k) over
    a run, an observer of its feed (``dynamics._snapshot_blocks``);
    ``finish`` gives per set one report per p.  The ratios are formed by
    ``_snapshot_cycle_ratios`` from one squared-chord table of the pairs
    that any set joins, so a snapshot's values depend neither on where the
    blocks break nor on the other sets, and only the estimates are kept.
    A drift needs at least two snapshots."""

    def __init__(self, sets, ps):
        if not all(map(math.isfinite, ps)):
            raise ValueError("p must be finite")
        self.sets, self.ps, self.index = list(sets), list(ps), _pair_index(sets)
        self.times = []
        self.estimates = [[[] for _ in self.ps] for _ in self.sets]
        self.ratios0, self.per_tuple = None, [0.0] * len(self.sets)

    @classmethod
    def drawn(cls, first: np.ndarray, ps, ks, m: int, seed: int) -> "_DriftRecorder":
        """The recorder of ``conservation_drifts`` for each k in ``ks``: m
        index cycles drawn from the points of the first snapshot, each set
        from the same stream."""
        return cls([_draw_cycles(rng_stream(seed, stream=0), first, m, k, 100 * m)[0]
                    for k in ks], ps)

    def add(self, times: np.ndarray, points: np.ndarray, fields, means):
        """The component-major snapshots (b, d+1, n) at ``times`` that follow those fed before."""
        for b0, ratios, bad in _snapshot_cycle_ratios(points, self.index):
            if bad.any():
                t = times[b0 + int(np.argmax(bad))]
                raise ValueError(f"tuple became degenerate along the trajectory at t = {t}")
            if self.ratios0 is None:
                self.ratios0 = [r[0].copy() for r in ratios]
            for i, (r, r0, estimates) in enumerate(zip(ratios, self.ratios0, self.estimates)):
                # the per-tuple drift does not depend on p
                dev = r - r0
                np.abs(dev, out=dev)
                dev /= r0
                self.per_tuple[i] = max(self.per_tuple[i], float(np.max(dev)))
                for blocks, p in zip(estimates, self.ps):
                    blocks.append((r ** p).mean(axis=1))
        self.times.append(np.array(times, dtype=float))

    def finish(self) -> list[list[DriftReport]]:
        times = np.concatenate(self.times or [np.empty(0)])
        if times.size < 2:
            raise ValueError("need at least two snapshots")
        reports = []
        for tuples, estimates, per_tuple in zip(self.sets, self.estimates, self.per_tuple):
            reports.append([])
            for blocks in estimates:
                values = np.concatenate(blocks)
                rel = np.abs(values - values[0]) / abs(values[0])
                reports[-1].append(DriftReport(
                    times=times.copy(), estimates=values, relative_drift=rel,
                    max_relative_drift=float(np.max(rel)), per_tuple_max_drift=per_tuple,
                    tuples=tuples))
        return reports
