"""Mean-field diagnostics for the kinetic swarm model at large particle count.

The empirical measure of an ensemble stands in for the kinetic density, so
all the integral diagnostics below are ensemble averages: the order
parameter R^2 = |mean|^2, its analytic time derivative
2 kappa E[|x_c - <y, x_c> y|^2] (which is nonnegative, so R is monotone), chordal
ball masses around the polarisation axis, and the bipolar-instability
experiment contrasting an exactly antipodal-symmetric population with a
delta-perturbed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (_DRIFT_BLOCK_FLOATS, DrivingField, MeanField, Trajectory, _record_count,
                       _recorded, _snapshot_blocks, _step_count)
from .functionals import (DriftReport, _draw_cycles, _DriftRecorder, _pair_index,
                          _snapshot_cycle_ratios)
from .geometry import (Ensemble, _component_dot, exact_mean, renormalize, rng_stream,
                       sample_uniform, sample_vmf, tangent_project)

__all__ = [
    "InstabilityReport",
    "OrderParameterSeries",
    "PerOmegaReport",
    "ball_mass",
    "dR2_dt_analytic",
    "instability_experiment",
    "order_parameter",
    "order_parameter_series",
    "per_omega_conservation",
]

_R_POSITIVE = 1e-12
_RECORD_EVERY = 50  # snapshot spacing, in steps, of the instability experiment's branches
_BALL_RADIUS = 0.5  # chordal radius of the series' masses around the polarisation axis


def order_parameter(ens: Ensemble) -> tuple[float, np.ndarray]:
    """Squared order parameter and the ensemble mean it derives from.

    The mean uses exact accumulation so that exactly balanced ensembles
    report exactly zero.
    """
    x_c = exact_mean(ens.points)
    return float(x_c @ x_c), x_c


def dR2_dt_analytic(ens: Ensemble) -> float:
    """Analytic derivative of R^2 for the mean-field swarm at unit coupling,
    2 E[|x_c - <y, x_c> y|^2]: always >= 0.  Under ``MeanField(kappa)`` the
    derivative is kappa times this value."""
    return _dR2_dt(ens.points.T, exact_mean(ens.points))


def _dR2_dt(cols: np.ndarray, x_c: np.ndarray) -> float:
    """``dR2_dt_analytic`` of component-major (d+1, n) columns with exact
    mean ``x_c``: each particle's term summed by ``_component_dot``, and
    their total correctly rounded, so no layout or particle order changes it."""
    resid = x_c[:, None] - _component_dot(cols, x_c[:, None]) * cols
    return 2.0 * math.fsum(_component_dot(resid, resid).tolist()) / cols.shape[1]


def ball_mass(ens: Ensemble, center, epsilon: float) -> float:
    """Fraction of particles within chordal distance epsilon, in (0, 2), of
    a center, a finite vector of width d+1."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 2.0:  # NaN fails too
        raise ValueError(f"chordal radius must lie in (0, 2), not {epsilon!r}")
    center = np.asarray(center, dtype=float)
    if center.shape != (ens.d + 1,) or not np.isfinite(center).all():
        raise ValueError(f"ball center must be a finite vector of width d+1 = {ens.d + 1}")
    return float(_ball_masses(ens.points.T, center[None], epsilon)[0])


def _ball_masses(cols: np.ndarray, centers: np.ndarray, epsilon: float) -> np.ndarray:
    """``ball_mass`` of component-major (d+1, n) columns around each row of
    ``centers`` in one stacked pass; each value has the bits of its own call."""
    diff = cols - centers[:, :, None]
    inside = _component_dot(diff, diff) < epsilon * epsilon
    # a count over n rounds once, as the mean of the booleans does
    return np.count_nonzero(inside, axis=-1) / cols.shape[1]


@dataclass(frozen=True, eq=False)
class OrderParameterSeries:
    """Streaming record of R^2, its analytic derivative, the polarisation
    axis and the masses of the chordal balls of radius ``_BALL_RADIUS``
    around it, with the smallest step-to-step increment of R^2 (NaN for no
    steps) and the derivative identity's defect: the largest gap, over the
    two steps around an interior state, between the change of R^2 and
    Simpson's rule for the analytic derivative, divided by their span (NaN
    for fewer than two steps, under a field other than ``MeanField`` or
    with several generator groups, where the derivative is NaN too)."""

    times: np.ndarray
    R2: np.ndarray
    dR2_analytic: np.ndarray
    gamma: np.ndarray  # (m, d+1), nan rows where R vanishes
    mass_plus: np.ndarray
    mass_minus: np.ndarray
    min_R2_increment: float
    derivative_defect: float


class _SeriesRecorder:
    """The order-parameter diagnostics of one population over a run to
    t_end at step dt, fed every state: R^2 and its analytic derivative at
    every state, for the smallest increment and the derivative defect, and
    the rows at the states ``_recorded`` picks.  ``kappa`` is the mean
    field's coupling, None where the identity does not hold."""

    def __init__(self, t_end: float, dt: float, record_every: int, kappa: float | None):
        self.steps = _step_count(t_end, dt, record_every)
        self.record_every, self.kappa, self.fed = record_every, kappa, 0
        self.columns = tuple([] for _ in range(6))  # t, R2, dR2, gamma, mass_plus, mass_minus
        self.recent = []  # (time, R2, dR2) of the last three states
        self.min_increment, self.defect = math.inf, 0.0

    def add(self, times: np.ndarray, points: np.ndarray, fields, means):
        """The states at ``times`` that follow those fed before, with
        component-major points (b, d+1, n) and exact means, or None."""
        for j, t in enumerate(times.tolist()):
            cols, x_c = points[j], exact_mean(points[j].T) if means is None else means[j]
            r2 = float(x_c @ x_c)
            dr2 = math.nan if self.kappa is None else self.kappa * _dR2_dt(cols, x_c)
            if self.recent:
                self.min_increment = min(self.min_increment, r2 - self.recent[-1][1])
            self.recent = self.recent[-2:] + [(t, r2, dr2)]
            if len(self.recent) == 3:
                (t0, a, f0), (_, _, f1), (t2, b, f2) = self.recent
                span = t2 - t0
                self.defect = max(self.defect, abs(b - a - span / 6 * (f0 + 4 * f1 + f2)) / span)
            self.fed += 1
            if not _recorded(self.fed - 1, self.steps, self.record_every):
                continue
            if r2 > _R_POSITIVE ** 2:
                g = x_c / math.sqrt(r2)
                plus, minus = _ball_masses(cols, np.stack([g, -g]), _BALL_RADIUS).tolist()
            else:
                g, plus, minus = np.full(x_c.size, np.nan), math.nan, math.nan
            for column, value in zip(self.columns, (t, r2, dr2, g, plus, minus)):
                column.append(value)

    def finish(self) -> OrderParameterSeries:
        # no interior state, or no identity to compare (max drops a NaN gap)
        defect = self.defect if len(self.recent) == 3 and self.kappa is not None else math.nan
        increment = self.min_increment if len(self.recent) > 1 else math.nan  # no step
        return OrderParameterSeries(*map(np.asarray, self.columns), increment, defect)


def order_parameter_series(ens0: Ensemble, field: DrivingField, t_end: float, dt: float,
                           record_every: int = 1) -> tuple[OrderParameterSeries, Ensemble]:
    """Integrate and record the order-parameter diagnostics without storing
    the full trajectory; returns the series and the final ensemble.

    R^2 and its analytic derivative are evaluated at every step, so the
    smallest increment of R^2 and the derivative defect are measured at the
    step spacing whatever ``record_every`` is; the initial and final states
    are always recorded.  The derivative is the mean-field identity at the
    field's coupling, NaN under any other field and with several generator
    groups, whose differing rotations add 2<x_c, mean(Omega_i x_i)> to it.
    """
    identity = isinstance(field, MeanField) and len(ens0.omega_groups()) == 1
    recorder = _SeriesRecorder(t_end, dt, record_every, field.kappa if identity else None)
    for block in _snapshot_blocks(ens0, field, t_end, dt, 1):
        recorder.add(*block)
    return recorder.finish(), ens0._at(block[1][-1].T.copy())


def _closest_pairs(points: np.ndarray, idx: np.ndarray, count: int) -> list[tuple[int, int]]:
    """The ``count`` closest index pairs (i, j), i < j, inside a subset, in
    the order of (squared chord, i, j).

    A squared chord is summed from its chord vector x_i - x_j by
    ``_component_dot``, the rule of the cycle ratios, so exactly coincident
    points are at distance 0.  Rows are compared with every later member a
    block at a time, the block sized to ``_DRIFT_BLOCK_FLOATS``, and only
    the pairs below the count-th best so far are kept: a later row cannot
    win a tie with it.  The search never holds an n x n array.
    """
    sub = points[idx]
    n, dim = sub.shape
    rows = max(1, _DRIFT_BLOCK_FLOATS // (dim * n))
    d2, i, j = np.empty(0), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    for i0 in range(0, n - 1, rows):
        chords = sub[i0:i0 + rows, :, None] - sub[i0:].T  # (b, d+1, n - i0): j = i0 + column
        block = _component_dot(chords, chords)
        block[np.tri(*block.shape, dtype=bool)] = np.inf  # j <= i
        r, c = np.nonzero(block < (d2[-1] if d2.size == count else np.inf))
        d2, i, j = (np.concatenate(v) for v in ((d2, block[r, c]), (i, r + i0), (j, c + i0)))
        best = np.lexsort((j, i, d2))[:count]
        d2, i, j = d2[best], i[best], j[best]
    return [(int(idx[a]), int(idx[b])) for a, b in zip(i, j)]


def _mixed_tuple_values(snapshots, tuples: np.ndarray) -> np.ndarray:
    """Cross ratios of index tuples (m, 4) at every snapshot of a
    component-major (s, d+1, n) stack, shape (s, m), without the degeneracy guard;
    an exactly zero denominator, 0/0 included, gives inf."""
    vals = np.concatenate([v for _, (v,), _ in
                           _snapshot_cycle_ratios(snapshots, _pair_index([tuples]))])
    vals[np.isnan(vals)] = np.inf
    return vals


@dataclass(frozen=True, eq=False)
class InstabilityReport:
    """What the antipodal-symmetry instability experiment measured."""

    R_max_symmetric: float
    R_initial_perturbed: float
    R_end_perturbed: float
    mixed_tuple_max: float  # largest finite evaluation over tuples and snapshots
    mixed_tuple_unbounded: bool  # an exactly-zero denominator was reached
    selection_time: float
    control_max_drift: float


def instability_experiment(N: int, d: int, kappa: float, delta: float, seed: int,
                           t_end: float = 50.0, dt: float = 1e-2) -> InstabilityReport:
    """Contrast an exactly balanced population with a delta-perturbed one.

    Branch (a) starts from points paired with their exact antipodes: the
    mean vanishes identically and the configuration is a fixed point, so the
    order parameter must stay at rounding level.  Branch (b) displaces one
    particle by ``delta``; the perturbation is amplified until the population
    fully synchronises.  During the transient the population is split across
    two antipodal caps, and cross-ratio tuples taking two indices in each
    emergent cluster (pattern +,-,-,+) are recorded; the conserved value
    picked up at selection time is enormous because both intra-cluster chords
    are small, which is the finite-sample face of the blow-up of the cycle
    moments on two-cluster states.  A von Mises-Fisher control run checks
    that ordinary fixed tuples stay conserved under the same integrator,
    over kappa t in [0, 5].
    """
    branches = _Branches(N, d, kappa, delta, seed, t_end, dt)
    for block in _snapshot_blocks(branches.start, MeanField(kappa), t_end, dt, 1):
        branches.add(*block)
    return branches.finish()


def _series_with_instability(ens0: Ensemble, kappa: float, t_end: float, dt: float,
                             record_every: int, delta: float | None, seed: int
                             ) -> tuple[OrderParameterSeries, Ensemble, InstabilityReport | None]:
    """``order_parameter_series(ens0, MeanField(kappa), t_end, dt,
    record_every)`` and, for a ``delta`` (else None), the report of
    ``instability_experiment(ens0.n, ens0.d, kappa, delta, seed, t_end, dt)``
    from one stack: the two branches and ens0, without free flow, last."""
    if ens0.omega is not None:
        raise ValueError("the stacked kinetic run needs a population without free flow")
    branches = None if delta is None else _Branches(ens0.n, ens0.d, kappa, delta, seed, t_end, dt)
    recorder = _SeriesRecorder(t_end, dt, record_every, float(kappa))
    stack = ens0.points[None] if branches is None else \
        np.concatenate([branches.start, ens0.points[None]])
    for block in _snapshot_blocks(stack, MeanField(kappa), t_end, dt, 1):
        recorder.add(block[0], *(a[:, -1] for a in block[1:]))  # the series population
        if branches is not None:
            branches.add(*block)
    return (recorder.finish(), ens0._at(block[1][-1, -1].T.copy()),
            None if branches is None else branches.finish())


class _Branches:
    """The instability experiment's two branches over a run to t_end at
    step dt: their start, a (2, N, d+1) stack, and what is kept of its
    states on the grid of every ``_RECORD_EVERY``-th step, fed every state
    of a stack that they begin: (a) its order parameter, (b) its points in
    one preallocated component-major array, and its exact mean."""

    def __init__(self, N: int, d: int, kappa: float, delta: float, seed: int,
                 t_end: float, dt: float):
        if N < 4:
            raise ValueError("need at least four particles")
        if N % 2:
            raise ValueError("need an even particle count to build exact antipodal pairs")
        if not (0 < kappa < math.inf and 0 < delta < math.inf):
            raise ValueError("kappa and delta must be positive and finite")
        half = sample_uniform(d, N // 2, seed).points
        sym_points = np.vstack([half, -half])
        # (b) displaces one particle by delta along a tangent direction
        x0 = sym_points[0]
        direction = tangent_project(x0, np.eye(d + 1)[int(np.argmin(np.abs(x0)))])
        direction = direction / np.linalg.norm(direction)
        pert_points = sym_points.copy()
        pert_points[0] = renormalize(x0 + delta * direction)
        self.N, self.d, self.kappa, self.seed = N, d, float(kappa), seed
        self.start = np.stack([sym_points, pert_points])
        self.steps, self.fed = _step_count(t_end, dt, _RECORD_EVERY), 0
        self.points = np.empty((_record_count(t_end, dt, _RECORD_EVERY), d + 1, N))
        self.r2_sym, self.times, self.means = [], [], []

    def add(self, times: np.ndarray, points: np.ndarray, fields, means: np.ndarray):
        """The states at ``times`` that follow those fed before, with the
        stack's component-major points (b, S, d+1, N) and exact means."""
        for j, t in enumerate(times.tolist()):
            if _recorded(self.fed + j, self.steps, _RECORD_EVERY):
                self.points[len(self.times)] = points[j, 1]
                self.r2_sym.append(float(means[j, 0] @ means[j, 0]))
                self.times.append(t)
                self.means.append(means[j, 1].copy())
        self.fed += len(times)

    def finish(self) -> InstabilityReport:
        kappa, seed, means, points = self.kappa, self.seed, self.means, self.points
        r_max_sym = math.sqrt(max(self.r2_sym))
        rs = np.array([math.sqrt(float(m @ m)) for m in means])

        # mixed tuples: two indices per emergent cluster, picked at the first
        # snapshot where the population is visibly polarised and both caps are
        # occupied, and evaluated at every snapshot
        selection_time, mixed_max, unbounded = math.nan, math.nan, False
        for i in np.nonzero(rs >= 0.5)[0]:
            gamma = means[i] / rs[i]
            rows = points[i].T.copy()
            side = rows @ gamma
            plus, minus = np.nonzero(side > 0)[0], np.nonzero(side <= 0)[0]
            if plus.size >= 2 and minus.size >= 2:
                n_pairs = min(3, plus.size // 2, minus.size // 2)
                pp = _closest_pairs(rows, plus, n_pairs)
                mp = _closest_pairs(rows, minus, n_pairs)
                tuples = np.array([[a[0], *b, a[1]] for a, b in zip(pp, mp)], dtype=np.int64)
                vals = _mixed_tuple_values(points, tuples)
                unbounded = bool(np.any(np.isinf(vals)))
                mixed_max = float(vals[np.isfinite(vals)].max(initial=0.0))
                selection_time = float(self.times[i])
                break

        # control: a smooth-density run where fixed tuples must hold steady,
        # 5000 steps over kappa t in [0, 5], before its population collapses
        # (``conservation_drift`` of its recording, fed a block at a time)
        control_ens = sample_vmf(np.eye(self.d + 1)[-1], 4.0, min(256, self.N), seed + 1)
        control = _DriftRecorder.drawn(control_ens.points, [0.3], [2], 50, seed)
        for block in _snapshot_blocks(control_ens, MeanField(kappa), 5.0 / kappa, 1e-3 / kappa, 10):
            control.add(*block)

        return InstabilityReport(
            R_max_symmetric=r_max_sym,
            R_initial_perturbed=float(rs[0]),
            R_end_perturbed=float(rs[-1]),
            mixed_tuple_max=mixed_max,
            mixed_tuple_unbounded=unbounded,
            selection_time=selection_time,
            control_max_drift=control.finish()[0][0].max_relative_drift,
        )


@dataclass(frozen=True, eq=False)
class PerOmegaReport:
    """Per-generator-group conservation of a labelled trajectory: a drift,
    or None below 2k members, per entry of ``omega_groups()``, by position,
    and the mixed-group tuples' drift, None for a single group."""

    groups: list
    mixed_drift: DriftReport | None


def per_omega_conservation(traj: Trajectory, p: float, k: int, m: int, seed: int) -> PerOmegaReport:
    """Drift of cycle moments within each generator group, against a control
    of deliberately mixed-group tuples.

    A trajectory carries one label set, so the group mass fractions are
    constant by construction and are not reported; tuples drawn within one
    group must be conserved while mixed tuples are generally not.  A group
    with fewer than 2k particles is skipped, and at least one must have 2k.
    """
    recorder = _PerOmegaRecorder(Ensemble(traj.points[0], traj.omega), p, k, m, seed)
    recorder.add(traj.times, traj.points.swapaxes(1, 2), traj.field_samples, None)
    return recorder.finish()


class _PerOmegaRecorder(_DriftRecorder):
    """``per_omega_conservation`` of a run from the labelled population
    ``first``: one drift recorder over a set of tuples per group of 2k
    members or more (a smaller one is skipped) and, when there are two
    groups or more, the mixed-group tuples."""

    def __init__(self, first: Ensemble, p: float, k: int, m: int, seed: int):
        groups = first.omega_groups()
        self.has_set, sets = [idx.size >= 2 * k for _, idx in groups], []
        for gi, (_, idx) in enumerate(groups):
            if self.has_set[gi]:
                rng = rng_stream(seed, stream=gi + 1)
                local, _, _ = _draw_cycles(rng, first.points[idx], m, k, 100 * m)
                sets.append(idx[local])
        if not sets:
            raise ValueError(f"no generator group has 2k = {2 * k} members, so no within-group "
                             "cycle can be drawn")
        if len(groups) >= 2:
            label = np.empty(first.n, dtype=np.int64)
            for gi, (_, idx) in enumerate(groups):
                label[idx] = gi
            # a mixed cycle may be rare (one member of a small group), hence the cap
            chosen, _, _ = _draw_cycles(rng_stream(seed, stream=0), first.points, m, k, 800 * m,
                                        label)
            sets.append(chosen)
        super().__init__(sets, [p])

    def finish(self) -> PerOmegaReport:
        drifts = iter([reports[0] for reports in super().finish()])
        groups = [next(drifts) if has else None for has in self.has_set]
        return PerOmegaReport(groups=groups, mixed_drift=next(drifts, None))
