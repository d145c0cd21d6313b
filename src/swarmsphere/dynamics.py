"""Particle dynamics on the sphere driven by a common field.

Each particle obeys  dx/dt = Omega x + X - <x, X> x,  where X is the driving
vector shared by the whole population.  The driving field classes below cover
the standard variants (plain mean field, frustrated mean field, Winfree-type
aggregate, delayed mean field) plus prescribed and replayed fields of time,
which make a recorded run replayable into other integrators.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (Ensemble, SkewMatrix, _checked_omega, _component_dot, _on_unit_sphere,
                       _renormalize_columns_in_place, exact_mean, renormalize)

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
]

# floats in one block of snapshots: a block of _snapshot_blocks' recording;
# in functionals._snapshot_cycle_ratios the chord endpoints a block gathers;
# in kinetic._closest_pairs the chord vectors of a block of rows (512 kB)
_DRIFT_BLOCK_FLOATS = 1 << 16


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
    return _hermite_combine((t - knots[i]) / h, h, values[i], slopes[i], values[i + 1], slopes[i + 1])


def _hermite_combine(s, h, v0, m0, v1, m1):
    """The cubic Hermite combination at local coordinate s in a step of
    width h, for a scalar s or for columns s, h against rows of v and m.
    The square goes through ``float_power``, which is the C library's
    ``pow`` for a scalar and an array alike, so both give the bits of the
    scalar ``(1 - s) ** 2``."""
    u2 = np.float_power(1.0 - s, 2.0)
    h00 = (1.0 + 2.0 * s) * u2
    h10 = s * u2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * v0 + h10 * h * m0 + h01 * v1 + h11 * h * m1


def _coupling(kappa) -> float:
    """A field's coupling strength as a float, refused by name if not finite."""
    kappa = float(kappa)
    if not math.isfinite(kappa):
        raise ValueError(f"coupling kappa must be finite, not {kappa!r}")
    return kappa


class DrivingField:
    """Common driving vector X for the population.

    Only a clock-driven field (prescribed or replayed) has a value at a time
    alone (``_at_times``).  A field with ``_reads_mean`` set uses the exact
    mean of every accepted state (in ``_at_state``, or for a delayed field's
    history), which the stepping loop computes once per state and hands over.
    """

    _reads_mean = False

    def evaluate(self, points: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def _at_state(self, points: np.ndarray, t: float, mean: np.ndarray) -> np.ndarray:
        """``evaluate`` at an accepted state whose exact mean is ``mean``."""
        return self.evaluate(points, t)

    def _at_times(self, ts: np.ndarray) -> np.ndarray:
        """The field at every time of ``ts``, one row per time; only a clock-driven field has it."""
        raise ValueError("ws evolution needs a prescribed or replayed driving field, "
                         f"not {type(self).__name__}")


class MeanField(DrivingField):
    """X = kappa * (population mean).  The mean is accumulated exactly; a
    stack of populations (..., n, d+1) gets one X per member."""

    _reads_mean = True

    def __init__(self, kappa: float):
        self.kappa = _coupling(kappa)

    def evaluate(self, points, t):
        return self._at_state(points, t, exact_mean(points))

    def _at_state(self, points, t, mean):
        return self.kappa * mean


class FrustratedField(DrivingField):
    """X = kappa * V @ (population mean) for a fixed frustration matrix V;
    a stack of populations gets one X per member, each the product a
    single population gets."""

    _reads_mean = True

    def __init__(self, kappa: float, frustration):
        self.kappa = _coupling(kappa)
        v = np.array(frustration, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("frustration must be a square matrix")
        if not np.isfinite(v).all():
            raise ValueError("frustration matrix entries must be finite")
        self.frustration = v

    def evaluate(self, points, t):
        return self._at_state(points, t, exact_mean(points))

    def _at_state(self, points, t, mean):
        rows = [self.frustration @ row for row in mean.reshape(-1, mean.shape[-1])]
        return self.kappa * np.array(rows).reshape(mean.shape)


class WinfreeField(DrivingField):
    """X = kappa * mean(1 + <x_k, pole>) * pole; the influence 1 + <x, pole>
    is smooth, nonnegative and symmetric about the pole axis."""

    def __init__(self, kappa: float, pole):
        self.kappa = _coupling(kappa)
        self.pole = renormalize(pole)

    def evaluate(self, points, t):
        vals = 1.0 + _component_dot(points.T, self.pole[:, None])
        return self.kappa * exact_mean(vals[:, None])[0] * self.pole


class PrescribedField(DrivingField):
    """X given in closed form as a function of time."""

    def __init__(self, func):
        self.func = func

    def evaluate(self, points, t):
        return np.asarray(self.func(t), dtype=float)

    def _at_times(self, ts):
        xs = [self.evaluate(None, t) for t in ts.tolist()]
        shapes = sorted({x.shape for x in xs})
        if len(shapes) != 1 or len(shapes[0]) != 1 or shapes[0][0] < 2:
            raise ValueError(f"{type(self).__name__} must return one vector of a fixed width "
                             f"d+1 >= 2, not arrays of shape {', '.join(map(str, shapes))}")
        return np.array(xs)


class ReplayField(DrivingField):
    """X reconstructed from a recorded time series by cubic interpolation.

    Queries outside the recorded span raise, extrapolation is never silent.
    """

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("replay needs at least two recorded samples")
        if not np.isfinite(times).all():
            raise ValueError("replay times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("replay times must be strictly increasing")
        if values.ndim != 2 or values.shape[0] != times.size:
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
        if not self.times[0] - self._tol <= t <= self.times[-1] + self._tol:  # NaN fails too
            raise ValueError(f"replay query at t = {t} outside the recorded span")
        return _hermite_at(self._knots, self.values, self._slopes, float(t))

    def _at_times(self, ts):
        """``evaluate`` at every time of ``ts`` in one vectorised pass, with
        the bits of the one-time call."""
        knots = self.times
        lo, hi = ts.min(), ts.max()  # NaN if any time is, which fails both comparisons
        if not (knots[0] - self._tol <= lo and hi <= knots[-1] + self._tol):
            raise ValueError(f"replay query at t in [{lo}, {hi}] outside the recorded span")
        i = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, knots.size - 2)
        h = (knots[i + 1] - knots[i])[:, None]
        out = _hermite_combine((ts[:, None] - knots[i][:, None]) / h, h, self.values[i],
                               self._slopes[i], self.values[i + 1], self._slopes[i + 1])
        out[ts <= knots[0]] = self.values[0]
        out[ts >= knots[-1]] = self.values[-1]
        return out


class TimeDelayField(DrivingField):
    """Delayed mean field: X(t) = kappa * mean(points at t - tau).

    The history belongs to the run: the stepping loop behind ``simulate``
    and ``order_parameter_series`` keeps the exact population mean of every
    accepted state and reads X from it (``_in_run``); before t = 0 the
    history is the constant initial configuration.  The field holds only
    kappa and tau, so ``evaluate``, a bare ``step`` and ``ws_evolve``
    refuse it.
    """

    _reads_mean = True

    def __init__(self, kappa: float, tau: float):
        tau = float(tau)
        if not 0 < tau < math.inf:
            raise ValueError("delay must be positive and finite")
        self.kappa = _coupling(kappa)
        self.tau = tau

    def evaluate(self, points, t):
        raise ValueError("a time-delay field reads its run's history; step it through "
                         "simulate() or order_parameter_series()")

    def _in_run(self, means: list, dt: float):
        """X(points, t) of a run whose states at t = j * dt have the exact
        means ``means[j]``; the loop extends the list as it goes.  The
        window below needs a delay of at least one step, checked here."""
        if self.tau < dt - 1e-12:
            raise ValueError("delay shorter than the step size")
        window = None  # (lo, hi), knots, means, slopes

        def x_at(points, t):
            nonlocal window
            s = t - self.tau
            if s <= 0.0:
                return self.kappa * means[0]
            # the history is uniform at dt, so a six-sample window around the
            # query suffices for the interpolation and keeps the lookup O(1)
            center = int(s / dt)
            lo, hi = max(0, center - 2), min(len(means), center + 4)
            if window is None or window[0] != (lo, hi):
                # the history only grows, so a window's slopes never change;
                # the stages of one step mostly share a window
                knots, vals = [j * dt for j in range(lo, hi)], np.asarray(means[lo:hi])
                window = ((lo, hi), knots, vals, _hermite_slopes(np.asarray(knots), vals))
            _, knots, vals, slopes = window
            return self.kappa * _hermite_at(knots, vals, slopes, float(s))

        return x_at


def _driving_vector(x, shape: tuple) -> np.ndarray:
    """A field's driving vector, or stack of them, as a float array,
    refused by name unless it has ``shape``."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError("driving field returned a vector of the wrong dimension")
    return x


def eval_field(field: DrivingField, ens: Ensemble, t: float) -> np.ndarray:
    """Evaluate the driving vector for an ensemble at a given time."""
    return _driving_vector(field.evaluate(ens.points, t), (ens.d + 1,))


def _velocities(cols: np.ndarray, x_field: np.ndarray, groups=()) -> np.ndarray:
    """Velocities of a component-major (..., d+1, n) stack of points under
    driving vectors (..., d+1), one per member, as whole-row operations:
    ``<x, X>`` is summed in einsum's order (``_component_dot``), so a point
    gets the bits of the row-major expression.  A group's generator, if
    any, moves the particles of its index array or slice."""
    x_col = x_field[..., None]
    v = _component_dot(cols, x_col)[..., None, :] * cols
    v = np.subtract(x_col, v, out=v)
    for om, idx in groups:
        if om is not None:
            v[..., idx] += om.matrix @ cols[..., idx]
    return v


def _rk4(y: np.ndarray, rhs, t: float, dt: float, project=None, k1=None) -> np.ndarray:
    """One classical RK4 step of dy/dt = rhs(y, t).

    ``project`` maps every stage point and the update back onto the state
    manifold in place; without it the stages are used as they are.  ``k1``
    is rhs(y, t) when the caller has it already.  ``rhs`` must return a new
    array on every call: the stages are formed in one buffer and the update
    in the second stage's result, in place but with the operand order of
    y + h * k and ((k1 + 2 k2) + 2 k3) + k4, so the bits are those of the
    plain expressions.
    """
    proj = project if project is not None else (lambda a: a)
    ks = [rhs(y, t) if k1 is None else k1]
    stage = np.empty_like(y, dtype=float)
    for h in (0.5 * dt, 0.5 * dt, dt):
        np.multiply(ks[-1], h, out=stage)
        stage += y
        ks.append(rhs(proj(stage), t + h))
    k1, k2, k3, k4 = ks
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += y
    return proj(k2)


def _advance(cols: np.ndarray, t: float, field: DrivingField, dt: float, x1: np.ndarray,
             groups=()) -> np.ndarray:
    """One RK4 step from time t of a component-major (..., d+1, n) stack
    of particle states whose first stage has the driving vectors ``x1``;
    a later stage's come from ``field.evaluate`` at its (..., n, d+1)
    transpose view and the stage time.  Each stage and the update are
    renormalised.  A non-finite update raises, naming the step time
    t + dt: a blow-up is reported by this check, not by numpy warnings."""

    def rhs(stage, ts):
        x = _driving_vector(field.evaluate(stage.swapaxes(-1, -2), ts), stage.shape[:-1])
        return _velocities(stage, x, groups)

    with np.errstate(over="ignore", invalid="ignore"):
        new = _rk4(cols, rhs, t, dt, _renormalize_columns_in_place, _velocities(cols, x1, groups))
    if not np.isfinite(new).all():
        raise ValueError(f"non-finite particle state at step time t = {t + dt}")
    return new


def step(ens: Ensemble, field: DrivingField, dt: float, t: float = 0.0) -> Ensemble:
    """One classical RK4 step for every particle, from ``ens`` at time t to t + dt.

    State-dependent fields are re-evaluated from each stage's (renormalized)
    points, clock-driven fields at the stage time; the final update is
    renormalized so the output sits exactly on the sphere.  A non-finite
    update raises, naming the step time t + dt.  A delayed field needs its
    run's history, which one step does not have, so it is refused.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(t):
        raise ValueError(f"step time t must be finite, not {t!r}")
    x1 = _driving_vector(field.evaluate(ens.points, t), (ens.d + 1,))
    cols = _advance(ens.points.T.copy(), t, field, dt, x1, ens._omega_slices())
    return ens._at(cols.T.copy())


class _RunField(DrivingField):
    """A field as the stepping loop hands it to ``step``: X at the run's
    current state ``at`` = (points, X) is the one the loop has worked out,
    at every other stage it comes from ``x_at``."""

    def __init__(self, x_at):
        self.x_at, self.at = x_at, None

    def evaluate(self, points, t):
        return self.at[1] if points is self.at[0] else self.x_at(points, t)


def _check_snapshots(points: np.ndarray, fields: np.ndarray):
    """The rules every recorded run obeys, as a ``Trajectory`` or a block of
    ``_snapshot_blocks``: finite field samples (m, d+1), and points
    (m, n, d+1) on the unit sphere within 1e-9."""
    if not np.isfinite(fields).all():
        raise ValueError("field samples must be finite")
    if not _on_unit_sphere(points):
        raise ValueError("trajectory points must lie on the unit sphere")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded snapshots of a run as one stack: points (m, n, d+1) at times
    (m,), the driving-field samples (m, d+1) at the same times, dense enough
    to replay X(t) into other integrators, and the run's generator labels
    ``omega``, as an ``Ensemble`` takes them.  The arrays are frozen; float
    arrays are taken over, not copied."""

    times: np.ndarray
    points: np.ndarray
    field_samples: np.ndarray
    omega: "SkewMatrix | tuple[SkewMatrix, ...] | None" = None

    def __post_init__(self):
        times, points, fields = (np.asarray(a, dtype=float)
                                 for a in (self.times, self.points, self.field_samples))
        if times.ndim != 1 or times.size < 1:
            raise ValueError("a trajectory needs a 1-D array of at least one snapshot time")
        if not np.isfinite(times).all() or np.any(np.diff(times) <= 0):
            raise ValueError("snapshot times must be finite and strictly increasing")
        if points.ndim != 3 or points.shape[1] < 1 or points.shape[2] < 2:
            raise ValueError(f"points must be an (m, n, d+1) array with d >= 1, not {points.shape}")
        if points.shape[0] != times.size or fields.shape[:1] != times.shape:
            raise ValueError("times, points and field samples must have equal length")
        if fields.shape[1:] != points.shape[2:]:
            raise ValueError("field samples must be an (m, d+1) array matching the points")
        _check_snapshots(points, fields)
        object.__setattr__(self, "omega", _checked_omega(self.omega, *points.shape[1:]))
        for name, value in (("times", times), ("points", points), ("field_samples", fields)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def d(self) -> int:
        return self.points.shape[2] - 1


def _step_count(t_end: float, dt: float, record_every: int) -> int:
    """round(t_end / dt), once the run's arguments are checked; a NaN dt and
    a NaN or infinite t_end are rejected here by name."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not 0 <= t_end < math.inf:
        raise ValueError("t_end must be finite and nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    if t_end / dt == math.inf:
        raise ValueError("t_end / dt overflows")
    return int(round(t_end / dt))


def _record_count(t_end: float, dt: float, record_every: int) -> int:
    """The number of states ``_run`` yields: every ``record_every``-th and the final one."""
    return -(-_step_count(t_end, dt, record_every) // record_every) + 1


def _recorded(s: int, steps: int, record_every: int) -> bool:
    """Whether state s of ``steps`` is recorded: every ``record_every``-th and the final one."""
    return s % record_every == 0 or s == steps


def _run(start, field: DrivingField, t_end: float, dt: float, record_every: int):
    """Step with RK4 and yield (time, points, exact mean, X) for the initial
    state, every ``record_every``-th state and the final state.

    ``start`` is an Ensemble, stepped through ``step``, or an (..., n, d+1)
    stack of populations without free flow, stepped as one array under a
    field that reads the population mean (one X per member) and is not
    delayed.  Every run starts at t = 0; the number of steps is
    round(t_end / dt), and state s is at s * dt, the grid of ``ws_evolve``,
    which is the time each step is handed.  The exact mean of every state
    is computed once, for a field that reads it (else it is None), and so
    is X: it feeds the next step's first stage and the caller.  A delayed
    field reads the run's own history of means.

    A single population is stepped as an Ensemble, ``step``'s result, and
    its points are yielded.  A stack is kept component-major, (..., d+1, n),
    the layout ``_advance`` steps, so that ``exact_mean`` reads its columns
    without a transpose copy; its points are the (..., n, d+1) transpose
    views.  Each member gets the bits it gets on its own, for any d.
    """
    steps = _step_count(t_end, dt, record_every)
    single = isinstance(start, Ensemble)
    delayed = isinstance(field, TimeDelayField)
    if single:
        state, points = start, start.points
    elif delayed:
        raise ValueError("a time-delay field steps a single population")
    elif not field._reads_mean:
        raise ValueError(f"a stack of populations steps only under a field that reads the "
                         f"population mean, not {type(field).__name__}")
    else:
        cols = np.swapaxes(np.asarray(start, dtype=float), -1, -2).copy()
        points = np.swapaxes(cols, -1, -2)
    means = []
    x_at = field._in_run(means, dt) if delayed else field.evaluate
    run_field = _RunField(x_at)
    t = 0.0
    for s in range(steps + 1):
        if s:
            if single:
                run_field.at = points, x
                state = step(state, run_field, dt, t)
                points = state.points
            else:
                cols = _advance(cols, t, field, dt, x)
                points = cols.swapaxes(-1, -2)
            t = s * dt
        mean = exact_mean(points) if field._reads_mean else None
        if delayed:
            means.append(mean)
        x = _driving_vector(x_at(points, t) if delayed else field._at_state(points, t, mean),
                            points.shape[:-2] + points.shape[-1:])
        if _recorded(s, steps, record_every):
            yield t, points, mean, x


def simulate(ens0: Ensemble, field: DrivingField, t_end: float, dt: float,
             record_every: int = 1) -> Trajectory:
    """Integrate and record snapshots every ``record_every`` steps.

    The initial state and the final state are always recorded.  The number of
    steps is round(t_end / dt); t_end = 0 yields the single initial snapshot.
    """
    m, (n, dim) = _record_count(t_end, dt, record_every), ens0.points.shape
    times, points, fields = np.empty(m), np.empty((m, n, dim)), np.empty((m, dim))
    for j, (t, pts, _, x) in enumerate(_run(ens0, field, t_end, dt, record_every)):
        times[j], points[j], fields[j] = t, pts, x
    return Trajectory(times, points, fields, ens0.omega)


def _snapshot_blocks(start: Ensemble, field: DrivingField, t_end: float, dt: float,
                     record_every: int):
    """The snapshots ``simulate`` records, in run order, as blocks
    (times, points, fields) of at most ``_DRIFT_BLOCK_FLOATS // (n (d+1))``
    snapshots (at least one), each checked by the ``Trajectory`` rules
    before it is yielded.  The three arrays are one buffer, overwritten by
    the next block: a caller copies what it keeps.  The run is never held
    whole, so an observer that reduces each block holds O(n) memory."""
    n, dim = start.points.shape
    rows = min(max(1, _DRIFT_BLOCK_FLOATS // (n * dim)), _record_count(t_end, dt, record_every))
    times, points, fields = np.empty(rows), np.empty((rows, n, dim)), np.empty((rows, dim))
    j = 0
    for t, pts, _, x in _run(start, field, t_end, dt, record_every):
        times[j], points[j], fields[j] = t, pts, x
        j += 1
        if j == rows:
            _check_snapshots(points, fields)
            yield times, points, fields
            j = 0
    if j:
        _check_snapshots(points[:j], fields[:j])
        yield times[:j], points[:j], fields[:j]


def collision_residual(traj: Trajectory, k: int, l: int) -> float:
    """Residual of the two-particle separation identity along a trajectory.

    For any pair the log separation satisfies
    log|x_k - x_l|(t) = log|x_k - x_l|(0) - (1/2) * int_0^t <X, x_k + x_l> ds,
    so with the integral done by the trapezoid rule on the snapshot grid the
    returned max-over-time absolute defect is an integrator-plus-quadrature
    error, not a modelling one.
    """
    if any(isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)) for i in (k, l)):
        raise TypeError(f"particle indices must be integers, not {k!r} and {l!r}")
    if k == l:
        raise ValueError("collision residual needs two distinct particle indices")
    n = traj.n
    if not (0 <= k < n and 0 <= l < n):
        raise ValueError("particle index out of range")
    xk, xl = traj.points[:, k], traj.points[:, l]
    seps = np.linalg.norm(xk - xl, axis=1)
    if seps[0] < 1e-14:
        raise ValueError("coincident initial pair: identity is vacuous")
    g = _component_dot(traj.field_samples.T, (xk + xl).T)
    dt = np.diff(traj.times)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * dt * (g[1:] + g[:-1]))])
    defect = np.log(seps) - np.log(seps[0]) + 0.5 * integral
    return float(np.max(np.abs(defect)))
