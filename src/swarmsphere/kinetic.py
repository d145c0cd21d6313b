"""Mean-field diagnostics for the kinetic swarm model at large particle count.

The empirical measure of an ensemble stands in for the kinetic density, so
all the integral diagnostics below are ensemble averages: the order
parameter R^2 = |mean|^2, its analytic time derivative
2 E[|x_c - <y, x_c> y|^2] (which is nonnegative, so R is monotone), chordal
ball masses around the polarisation axis, and the bipolar-instability
experiment contrasting an exactly antipodal-symmetric population with a
delta-perturbed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DrivingField, MeanField, Trajectory, _run, simulate
from .functionals import (DriftReport, _cycle_ratios_batch, _draw_index_tuples, _drift_report,
                          conservation_drift)
from .geometry import Ensemble, exact_mean, renormalize, rng_stream, sample_uniform, sample_vmf, tangent_project

__all__ = [
    "BipolarSeries",
    "InstabilityReport",
    "OrderParameterSeries",
    "PerOmegaReport",
    "ball_mass",
    "bipolar_report",
    "dR2_dt_analytic",
    "instability_experiment",
    "order_parameter",
    "order_parameter_series",
    "per_omega_conservation",
]

_R_POSITIVE = 1e-12


def order_parameter(ens: Ensemble) -> tuple[float, np.ndarray]:
    """Squared order parameter and the ensemble mean it derives from.

    The mean uses exact accumulation so that exactly balanced ensembles
    report exactly zero.
    """
    x_c = exact_mean(ens.points)
    return float(x_c @ x_c), x_c


def dR2_dt_analytic(ens: Ensemble) -> float:
    """Analytic derivative of R^2 for the mean-field swarm: always >= 0."""
    x_c = exact_mean(ens.points)
    resid = x_c - np.einsum("ij,j->i", ens.points, x_c)[:, None] * ens.points
    return 2.0 * float(np.einsum("ij,ij->", resid, resid)) / ens.n


def ball_mass(ens: Ensemble, center, epsilon: float) -> float:
    """Fraction of particles within chordal distance epsilon of a center."""
    if not 0.0 < epsilon < 2.0:
        raise ValueError("chordal radius must lie in (0, 2)")
    center = np.asarray(center, dtype=float)
    diff = ens.points - center
    return float(np.mean(np.einsum("ij,ij->i", diff, diff) < epsilon * epsilon))


@dataclass(frozen=True, eq=False)
class OrderParameterSeries:
    """Streaming record of R^2, its analytic derivative, the polarisation
    axis and the chordal masses around it."""

    times: np.ndarray
    R2: np.ndarray
    dR2_analytic: np.ndarray
    gamma: np.ndarray  # (m, d+1), nan rows where R vanishes
    mass_plus: np.ndarray
    mass_minus: np.ndarray
    epsilon: float

    def rows(self):
        return list(zip(self.times, self.R2, self.dR2_analytic, self.mass_plus, self.mass_minus))


def order_parameter_series(ens0: Ensemble, field: DrivingField, t_end: float, dt: float,
                           record_every: int = 1, epsilon: float = 0.5
                           ) -> tuple[OrderParameterSeries, Ensemble]:
    """Integrate and record the order-parameter diagnostics without storing
    the full trajectory; returns the series and the final ensemble."""
    times, r2s, dr2s, gammas, mplus, mminus = [], [], [], [], [], []

    def record(ens: Ensemble):
        r2, x_c = order_parameter(ens)
        times.append(ens.time)
        r2s.append(r2)
        dr2s.append(dR2_dt_analytic(ens))
        if r2 > _R_POSITIVE ** 2:
            g = x_c / math.sqrt(r2)
            gammas.append(g)
            mplus.append(ball_mass(ens, g, epsilon))
            mminus.append(ball_mass(ens, -g, epsilon))
        else:
            gammas.append(np.full(ens.d + 1, np.nan))
            mplus.append(math.nan)
            mminus.append(math.nan)

    # a blow-up is reported by the finite check in step, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for ens in _run(ens0, field, t_end, dt, record_every):
            record(ens)
    series = OrderParameterSeries(np.asarray(times), np.asarray(r2s), np.asarray(dr2s),
                                  np.asarray(gammas), np.asarray(mplus), np.asarray(mminus),
                                  float(epsilon))
    return series, ens


@dataclass(frozen=True, eq=False)
class BipolarSeries:
    """Per-snapshot masses near the two poles of the polarisation axis."""

    times: np.ndarray
    mass_plus: np.ndarray
    mass_minus: np.ndarray
    epsilon: float
    R_series: np.ndarray
    R_infinity_estimate: float


def bipolar_report(traj: Trajectory, epsilon: float = 0.5) -> BipolarSeries:
    """Masses in the chordal balls around +/- gamma(t) along a trajectory.

    gamma is the normalised ensemble mean; on snapshots where the mean
    vanishes the axis of the first polarised snapshot is used instead, and
    if the mean vanishes on every snapshot there is no axis to report.
    """
    means = [exact_mean(st.points) for st in traj.states]
    rs = np.array([math.sqrt(float(m @ m)) for m in means])
    alive = np.nonzero(rs > _R_POSITIVE)[0]
    if alive.size == 0:
        raise ValueError("polarisation axis undefined: order parameter vanishes on every snapshot")
    first = int(alive[0])
    mass_p, mass_m = [], []
    for i, st in enumerate(traj.states):
        j = i if rs[i] > _R_POSITIVE else first
        gamma = means[j] / rs[j]
        mass_p.append(ball_mass(st, gamma, epsilon))
        mass_m.append(ball_mass(st, -gamma, epsilon))
    return BipolarSeries(traj.times.copy(), np.asarray(mass_p), np.asarray(mass_m),
                         float(epsilon), rs, float(rs[-1]))


def _closest_pairs(points: np.ndarray, idx: np.ndarray, count: int) -> list[tuple[int, int]]:
    """Globally closest index pairs inside a subset, by squared chord."""
    sub = points[idx]
    gram = sub @ sub.T
    d2 = np.maximum(0.0, 2.0 - 2.0 * gram)
    iu = np.triu_indices(idx.size, 1)
    order = np.argsort(d2[iu], kind="stable")
    pairs = []
    for r in order[:count]:
        pairs.append((int(idx[iu[0][r]]), int(idx[iu[1][r]])))
    return pairs


def _raw_cross_ratios(points: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """Cross ratios without the degeneracy guard; exact coincidences give inf."""
    pts = points[tuples]
    diffs = pts - np.roll(pts, -1, axis=1)
    ch2 = np.einsum("mkd,mkd->mk", diffs, diffs)
    num = ch2[:, 0] * ch2[:, 2]
    den = ch2[:, 1] * ch2[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / den
    vals[np.isnan(vals)] = np.inf
    return vals


@dataclass(frozen=True, eq=False)
class InstabilityReport:
    """Outcome of the antipodal-symmetry instability experiment."""

    N: int
    d: int
    kappa: float
    delta: float
    seed: int
    R_max_symmetric: float
    R_initial_perturbed: float
    R_end_perturbed: float
    mixed_tuple_max: float  # largest finite evaluation over tuples and snapshots
    mixed_tuple_unbounded: bool  # an exactly-zero denominator was reached
    mixed_tuples: np.ndarray
    selection_time: float
    control_max_drift: float
    control_per_tuple_drift: float
    t_end: float
    dt: float


def instability_experiment(N: int, d: int, kappa: float, delta: float, seed: int,
                           t_end: float = 50.0, dt: float = 1e-2,
                           record_every: int = 50) -> InstabilityReport:
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
    that ordinary fixed tuples stay conserved under the same integrator.
    """
    if N < 4:
        raise ValueError("need at least four particles")
    if N % 2:
        raise ValueError("need an even particle count to build exact antipodal pairs")
    if kappa <= 0 or delta <= 0:
        raise ValueError("kappa and delta must be positive")
    half = sample_uniform(d, N // 2, seed).points
    sym_points = np.vstack([half, -half])

    # (a) exact symmetry: reports the worst recorded order parameter
    series_sym, _ = order_parameter_series(Ensemble(sym_points), MeanField(kappa),
                                           t_end, dt, record_every=record_every)
    r_max_sym = math.sqrt(float(np.max(series_sym.R2)))

    # (b) one particle displaced by delta along a tangent direction
    x0 = sym_points[0]
    axis = int(np.argmin(np.abs(x0)))
    direction = tangent_project(x0, np.eye(d + 1)[axis])
    direction = direction / np.linalg.norm(direction)
    pert_points = sym_points.copy()
    pert_points[0] = renormalize(x0 + delta * direction)
    traj = simulate(Ensemble(pert_points), MeanField(kappa), t_end, dt, record_every)
    means = [exact_mean(st.points) for st in traj.states]
    rs = np.array([math.sqrt(float(m @ m)) for m in means])

    # mixed tuples: two indices per emergent cluster at the first snapshot
    # where the population is visibly polarised and both caps are occupied
    mixed_tuples = np.empty((0, 4), dtype=np.int64)
    selection_time = math.nan
    mixed_max = math.nan
    for i in np.nonzero(rs >= 0.5)[0]:
        gamma = means[i] / rs[i]
        side = traj.states[i].points @ gamma
        plus = np.nonzero(side > 0)[0]
        minus = np.nonzero(side <= 0)[0]
        if plus.size >= 2 and minus.size >= 2:
            n_pairs = min(3, plus.size // 2, minus.size // 2)
            pp = _closest_pairs(traj.states[i].points, plus, n_pairs)
            mp = _closest_pairs(traj.states[i].points, minus, n_pairs)
            mixed_tuples = np.array([[a[0], b[0], b[1], a[1]] for a, b in zip(pp, mp)],
                                    dtype=np.int64)
            selection_time = float(traj.times[i])
            break
    unbounded = False
    if mixed_tuples.shape[0]:
        mixed_max = 0.0
        for st in traj.states:
            vals = _raw_cross_ratios(st.points, mixed_tuples)
            unbounded |= bool(np.any(np.isinf(vals)))
            finite = vals[np.isfinite(vals)]
            if finite.size:
                mixed_max = max(mixed_max, float(np.max(finite)))

    # control: a smooth-density run where fixed tuples must hold steady
    control_ens = sample_vmf(np.eye(d + 1)[-1], 4.0, min(256, N), seed + 1)
    control_traj = simulate(control_ens, MeanField(kappa), 5.0, 1e-3, record_every=10)
    control = conservation_drift(control_traj, p=0.3, k=2, m=50, seed=seed)

    return InstabilityReport(
        N=N, d=d, kappa=float(kappa), delta=float(delta), seed=int(seed),
        R_max_symmetric=r_max_sym,
        R_initial_perturbed=float(rs[0]),
        R_end_perturbed=float(rs[-1]),
        mixed_tuple_max=mixed_max,
        mixed_tuple_unbounded=unbounded,
        mixed_tuples=mixed_tuples,
        selection_time=selection_time,
        control_max_drift=control.max_relative_drift,
        control_per_tuple_drift=control.per_tuple_max_drift,
        t_end=float(t_end), dt=float(dt),
    )


@dataclass(frozen=True, eq=False)
class PerOmegaReport:
    """Per-generator-group conservation summary for a labelled trajectory."""

    groups: list  # (group_index, size, DriftReport)
    skipped: list  # (group_index, size) groups too small for 2k-cycles
    mixed_drift: DriftReport | None
    fractions: np.ndarray
    fractions_constant: bool


def per_omega_conservation(traj: Trajectory, p: float, k: int, m: int, seed: int) -> PerOmegaReport:
    """Drift of cycle moments within each generator group, against a control
    of deliberately mixed-group tuples.

    Group labels are immutable along a trajectory, so the group mass
    fractions are constant exactly; tuples drawn within one group must be
    conserved while mixed tuples are generally not.
    """
    first = traj.states[0]
    groups = first.omega_groups()
    per_group = []
    skipped = []
    for gi, (om, idx) in enumerate(groups):
        if idx.size < 2 * k:
            skipped.append((gi, int(idx.size)))
            continue
        rng = rng_stream(seed, stream=gi + 1)
        local, _, _ = _draw_index_tuples(rng, first.points[idx], m, k, 100 * m)
        per_group.append((gi, int(idx.size), _drift_report(traj, idx[local], [p], k)[0]))

    mixed = None
    if len(groups) >= 2:
        label = np.empty(first.n, dtype=np.int64)
        for gi, (_, idx) in enumerate(groups):
            label[idx] = gi
        rng = rng_stream(seed, stream=0)
        want = m
        chosen = np.empty((want, 2 * k), dtype=np.int64)
        have = 0
        guard = 0
        while have < want:
            cand = rng.integers(0, first.n, size=(4 * want, 2 * k))
            ok_adj = ~(cand == np.roll(cand, -1, axis=1)).any(axis=1)
            spans = np.array([np.unique(label[row]).size >= 2 for row in cand])
            _, degenerate = _cycle_ratios_batch(first.points[cand])
            keep = cand[ok_adj & spans & ~degenerate]
            take = min(keep.shape[0], want - have)
            chosen[have : have + take] = keep[:take]
            have += take
            guard += 1
            if guard > 200:
                raise ValueError("could not draw mixed-group tuples")
        mixed = _drift_report(traj, chosen, [p], k)[0]

    fractions = np.array([idx.size / first.n for _, idx in groups])
    constant = all(st.omega is first.omega or st.omega == first.omega for st in traj.states)
    return PerOmegaReport(groups=per_group, skipped=skipped, mixed_drift=mixed,
                          fractions=fractions, fractions_constant=bool(constant))
