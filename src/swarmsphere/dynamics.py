"""Particle dynamics on the sphere driven by a common field.

Each particle obeys  dx/dt = Omega x + X - <x, X> x,  where X is the driving
vector shared by the whole population.  The driving field classes below cover
the standard variants (plain mean field, frustrated mean field, Winfree-type
aggregate, delayed mean field) plus prescribed and replayed fields of time,
which make a recorded run replayable into other integrators.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import Ensemble, SkewMatrix, exact_mean, renormalize, renormalize_rows

__all__ = [
    "DrivingField",
    "FrustratedField",
    "MeanField",
    "PrescribedField",
    "ReplayField",
    "TimeDelayField",
    "Trajectory",
    "WinfreeField",
    "collision_residual",
    "eval_field",
    "simulate",
    "step",
    "velocity",
]


def _hermite_slopes(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Finite-difference slopes at every knot for cubic Hermite interpolation.

    Where the grid is uniform over a five-point stencil the slope uses the
    fourth-order stencil, so the interpolant error is O(h^4).  Elsewhere the
    interior slopes are centered (weighted) differences and the end slopes
    are one-sided: second order when the two steps next to the end agree,
    else first order.  A single sample has slope zero.
    """
    m = times.size
    slopes = np.zeros_like(values)
    if m < 2:
        return slopes
    h = np.diff(times)
    h0 = h[0]
    if m >= 3 and abs(h[1] - h0) < 1e-12 * h0:
        slopes[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h0)
    else:
        slopes[0] = (values[1] - values[0]) / h0
    h0 = h[-1]
    if m >= 3 and abs(h[-2] - h0) < 1e-12 * h0:
        slopes[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h0)
    else:
        slopes[-1] = (values[-1] - values[-2]) / h0
    if m >= 3:
        hl, hr = h[:-1, None], h[1:, None]
        dl = (values[1:-1] - values[:-2]) / hl
        dr = (values[2:] - values[1:-1]) / hr
        slopes[1:-1] = (dl * hr + dr * hl) / (hl + hr)
    if m >= 5:
        # knots 2..m-3 whose four neighbouring steps all match the right one
        hr = h[2:-1]
        tol = 1e-12 * hr
        uniform = (np.abs(h[1:-2] - hr) < tol) & (np.abs(h[3:] - hr) < tol) \
            & (np.abs(h[:-3] - hr) < tol)
        j = np.flatnonzero(uniform) + 2
        slopes[j] = (values[j - 2] - 8.0 * values[j - 1] + 8.0 * values[j + 1] - values[j + 2]) \
            / (12.0 * h[j])[:, None]
    return slopes


def _hermite_at(knots: Sequence[float], values: np.ndarray, slopes: np.ndarray,
                t: float) -> np.ndarray:
    """Piecewise-cubic Hermite interpolant at t from knot times, values and
    slopes; constant beyond either end."""
    if t <= knots[0]:
        return values[0].copy()
    if t >= knots[-1]:
        return values[-1].copy()
    i = bisect_right(knots, t) - 1
    h = knots[i + 1] - knots[i]
    s = (t - knots[i]) / h
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * values[i] + h10 * h * slopes[i] + h01 * values[i + 1] + h11 * h * slopes[i + 1]


class DrivingField:
    """Common driving vector X for the population.

    ``state_dependent`` distinguishes fields computed from the instantaneous
    ensemble (evaluated per integrator stage from the stage points) from
    fields that only read the clock.
    """

    state_dependent = True

    def evaluate(self, points: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError


class MeanField(DrivingField):
    """X = kappa * (population mean).  The mean is accumulated exactly."""

    def __init__(self, kappa: float):
        self.kappa = float(kappa)

    def evaluate(self, points, t):
        return self.kappa * exact_mean(points)


class FrustratedField(DrivingField):
    """X = kappa * V @ (population mean) for a fixed frustration matrix V."""

    def __init__(self, kappa: float, frustration):
        self.kappa = float(kappa)
        v = np.array(frustration, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("frustration must be a square matrix")
        self.frustration = v

    def evaluate(self, points, t):
        return self.kappa * (self.frustration @ exact_mean(points))


class WinfreeField(DrivingField):
    """X = kappa * mean(influence(x_k)) * pole.

    The default influence 1 + <x, pole> is smooth, nonnegative and symmetric
    about the pole axis; pass any callable mapping an (n, d+1) array to (n,)
    to override it.
    """

    def __init__(self, kappa: float, pole, influence=None):
        self.kappa = float(kappa)
        self.pole = renormalize(pole)
        self.influence = influence

    def evaluate(self, points, t):
        if self.influence is None:
            vals = 1.0 + points @ self.pole
        else:
            vals = np.asarray(self.influence(points), dtype=float)
        return self.kappa * exact_mean(vals[:, None])[0] * self.pole


class PrescribedField(DrivingField):
    """X given in closed form as a function of time."""

    state_dependent = False

    def __init__(self, func):
        self.func = func

    def evaluate(self, points, t):
        return np.asarray(self.func(t), dtype=float)


class ReplayField(DrivingField):
    """X reconstructed from a recorded time series by cubic interpolation.

    Queries outside the recorded span raise, extrapolation is never silent.
    """

    state_dependent = False

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("replay needs at least two recorded samples")
        if not np.isfinite(times).all():
            raise ValueError("replay times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("replay times must be strictly increasing")
        if values.shape[0] != times.size or values.ndim != 2:
            raise ValueError("replay values must be an (m, d+1) array matching times")
        if not np.isfinite(values).all():
            raise ValueError("replay values must be finite")
        self.times = times
        self.values = values
        self._tol = 1e-9 * (times[-1] - times[0]) + 1e-12
        self._knots = array("d", times)  # bisect-able, a fifth of a list's memory
        self._slopes = _hermite_slopes(times, values)

    @classmethod
    def from_trajectory(cls, traj: "Trajectory") -> "ReplayField":
        return cls(traj.times, traj.field_samples)

    def evaluate(self, points, t):
        if t < self.times[0] - self._tol or t > self.times[-1] + self._tol:
            raise ValueError("replay query outside the recorded span")
        return _hermite_at(self._knots, self.values, self._slopes, float(t))


class TimeDelayField(DrivingField):
    """Delayed mean field: X(t) = kappa * mean(points at t - tau).

    The buffer stores the population mean once per accepted step; the history
    before t = 0 is the constant initial configuration.  The stepping loop
    behind ``simulate`` and ``order_parameter_series`` calls ``initialize``
    and records every accepted step; ``step`` alone records nothing.  The
    delay must be at least one step so stage queries never outrun the buffer.
    """

    state_dependent = False

    def __init__(self, kappa: float, tau: float):
        if tau <= 0:
            raise ValueError("delay must be positive")
        self.kappa = float(kappa)
        self.tau = float(tau)
        self._dt: float | None = None
        self._times: list[float] | None = None
        self._means: list[np.ndarray] | None = None
        self._window: tuple | None = None  # (lo, hi), knots, means, slopes

    def initialize(self, ens: Ensemble, dt: float) -> None:
        if self.tau < dt - 1e-12:
            raise ValueError("delay shorter than the step size")
        if ens.time != 0.0:
            raise ValueError("time-delay runs must start at t = 0")
        self._dt = float(dt)
        self._times = [0.0]
        self._means = [exact_mean(ens.points)]
        self._window = None

    def record(self, t: float, points: np.ndarray) -> None:
        self._times.append(float(t))
        self._means.append(exact_mean(points))

    def evaluate(self, points, t):
        if self._times is None:
            raise ValueError("time-delay field not initialized; run it through simulate()")
        s = t - self.tau
        if s < -self.tau - 1e-12:
            raise ValueError("time-delay query before history start")
        if s <= 0.0:
            return self.kappa * self._means[0]
        if s > self._times[-1] + 1e-9:
            raise ValueError("time-delay query beyond the recorded history; step it through "
                             "simulate() or order_parameter_series(), which record it")
        # the buffer is uniform at dt, so a six-sample window around the query
        # suffices for the interpolation and keeps the lookup O(1)
        center = int(s / self._dt)
        lo = max(0, center - 2)
        hi = min(len(self._times), center + 4)
        if self._window is None or self._window[0] != (lo, hi):
            # the history only grows, so a window's slopes never change; the
            # stages of one step mostly share a window
            knots = self._times[lo:hi]
            means = np.asarray(self._means[lo:hi])
            self._window = ((lo, hi), knots, means, _hermite_slopes(np.asarray(knots), means))
        _, knots, means, slopes = self._window
        return self.kappa * _hermite_at(knots, means, slopes, float(s))


def eval_field(field: DrivingField, ens: Ensemble, t: float) -> np.ndarray:
    """Evaluate the driving vector for an ensemble at a given time."""
    x = np.asarray(field.evaluate(ens.points, t), dtype=float)
    if x.shape != (ens.d + 1,):
        raise ValueError("driving field returned a vector of the wrong dimension")
    return x


def velocity(x, omega: SkewMatrix | None, x_field) -> np.ndarray:
    """Single-particle velocity: free rotation plus the tangential part of X."""
    x = np.asarray(x, dtype=float)
    xf = np.asarray(x_field, dtype=float)
    if x.shape != xf.shape:
        raise ValueError("dimension mismatch between point and driving vector")
    rot = omega.apply(x) if omega is not None else 0.0
    return rot + xf - float(x @ xf) * x


def _velocities(points: np.ndarray, groups, x_field: np.ndarray) -> np.ndarray:
    v = x_field - np.einsum("ij,j->i", points, x_field)[:, None] * points
    for om, idx in groups:
        if om is None:
            continue
        if idx.size == points.shape[0]:
            v = v + points @ om.matrix.T
        else:
            v[idx] += points[idx] @ om.matrix.T
    return v


def _rk4(y: np.ndarray, rhs, t: float, dt: float, project=None) -> np.ndarray:
    """One classical RK4 step of dy/dt = rhs(y, t).

    ``project`` maps every stage point and the update back onto the state
    manifold; without it the stages are used as they are.
    """
    proj = project if project is not None else (lambda a: a)
    k1 = rhs(y, t)
    k2 = rhs(proj(y + (0.5 * dt) * k1), t + 0.5 * dt)
    k3 = rhs(proj(y + (0.5 * dt) * k2), t + 0.5 * dt)
    k4 = rhs(proj(y + dt * k3), t + dt)
    return proj(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def step(ens: Ensemble, field: DrivingField, dt: float) -> Ensemble:
    """One classical RK4 step for every particle.

    State-dependent fields are re-evaluated from each stage's (renormalized)
    points, clock-driven fields at the stage time; the final update is
    renormalized so the output sits exactly on the sphere.  A non-finite
    update raises, naming the step time.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    groups = ens.omega_groups()

    def rhs(stage_pts, ts):
        x = np.asarray(field.evaluate(stage_pts, ts), dtype=float)
        return _velocities(stage_pts, groups, x)

    new_pts = _rk4(ens.points, rhs, ens.time, dt, renormalize_rows)
    t = ens.time + dt
    if not np.isfinite(new_pts).all():
        raise ValueError(f"non-finite particle state at step time t = {t}")
    return Ensemble(new_pts, ens.omega, t)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded snapshots of a run plus the driving-field samples at the
    same times, dense enough to replay X(t) into other integrators."""

    times: np.ndarray
    states: tuple[Ensemble, ...]
    field_samples: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        fields = np.asarray(self.field_samples, dtype=float)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        if len(self.states) != times.size or fields.shape[0] != times.size:
            raise ValueError("times, states and field samples must have equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "field_samples", fields)

    @property
    def n(self) -> int:
        return self.states[0].n

    @property
    def d(self) -> int:
        return self.states[0].d


def _run(ens0: Ensemble, field: DrivingField, t_end: float, dt: float, record_every: int):
    """Step with RK4 and yield the initial state, every ``record_every``-th
    state and the final state.

    The number of steps is round(t_end / dt).  A delayed field has its
    history initialised here and extended after every step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    steps = int(round(t_end / dt))
    delayed = isinstance(field, TimeDelayField)
    if delayed:
        field.initialize(ens0, dt)
    ens = ens0
    yield ens
    for s in range(1, steps + 1):
        ens = step(ens, field, dt)
        if delayed:
            field.record(ens.time, ens.points)
        if s % record_every == 0 or s == steps:
            yield ens


def simulate(ens0: Ensemble, field: DrivingField, t_end: float, dt: float,
             record_every: int = 1) -> Trajectory:
    """Integrate and record snapshots every ``record_every`` steps.

    The initial state and the final state are always recorded.  The number of
    steps is round(t_end / dt); t_end = 0 yields the single initial snapshot.
    """
    times, states, fields = [], [], []
    # a blow-up is reported by the finite check in step, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for ens in _run(ens0, field, t_end, dt, record_every):
            times.append(ens.time)
            states.append(ens)
            fields.append(eval_field(field, ens, ens.time))
    return Trajectory(np.asarray(times), tuple(states), np.asarray(fields))


def collision_residual(traj: Trajectory, k: int, l: int) -> float:
    """Residual of the two-particle separation identity along a trajectory.

    For any pair the log separation satisfies
    log|x_k - x_l|(t) = log|x_k - x_l|(0) - (1/2) * int_0^t <X, x_k + x_l> ds,
    so with the integral done by the trapezoid rule on the snapshot grid the
    returned max-over-time absolute defect is an integrator-plus-quadrature
    error, not a modelling one.
    """
    if k == l:
        raise ValueError("collision residual needs two distinct particle indices")
    n = traj.n
    if not (0 <= k < n and 0 <= l < n):
        raise ValueError("particle index out of range")
    seps = np.array([np.linalg.norm(st.points[k] - st.points[l]) for st in traj.states])
    if seps[0] < 1e-14:
        raise ValueError("coincident initial pair: identity is vacuous")
    g = np.array([float(traj.field_samples[i] @ (st.points[k] + st.points[l]))
                  for i, st in enumerate(traj.states)])
    dt = np.diff(traj.times)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * dt * (g[1:] + g[:-1]))])
    defect = np.log(seps) - np.log(seps[0]) + 0.5 * integral
    return float(np.max(np.abs(defect)))
