"""Watanabe-Strogatz reduction for sphere dynamics.

Once the driving vector X(t) is known as a function of time, the whole flow
is a time-dependent Moebius-type map applied to the frozen initial points.
The map is parameterised by a ball vector w (norm < 1) and a rotation R that
obey the reduced system

    dw/dt = Omega w + (1 + |w|^2) X / 2 - <w, X> w,        w(0) = 0,
    dR/dt = (Omega + X w^T - w X^T) R,                     R(0) = I,

and the map itself is  x -> w + (R x + w)(1 - |w|^2) / |R x + w|^2.
Pushing an initial ensemble through the map reproduces the direct particle
simulation, which is what ``push_forward`` and ``conjugacy_residual`` verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DrivingField, _rk4, _velocities
from .geometry import Ensemble, SkewMatrix, reorthonormalize

__all__ = [
    "MobiusPoleError",
    "WsPath",
    "WsState",
    "algebraic_identity_residuals",
    "conjugacy_residual",
    "heterogeneous_push_forward",
    "mobius",
    "push_forward",
    "ws_evolve",
    "ws_evolve_groups",
    "ws_rhs",
]

_BALL_GUARD = 1e-10
_POLE_TOL = 1e-14
_REORTH_EVERY = 100  # steps between scheduled re-orthonormalisations of R


class MobiusPoleError(ValueError):
    """Raised when a point is numerically antipodal to the map pole."""


@dataclass(frozen=True, eq=False)
class WsState:
    """Parameters (w, R) of the reduction map at one instant."""

    w: np.ndarray
    rotation: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        rot = np.array(self.rotation, dtype=float)
        if w.ndim != 1 or rot.shape != (w.size, w.size):
            raise ValueError("w must be a vector and rotation a matching square matrix")
        if not float(w @ w) < 1.0:
            raise ValueError("ball vector must have norm strictly below one")
        if not np.linalg.norm(rot.T @ rot - np.eye(w.size)) <= 1e-8:
            raise ValueError("rotation is not orthogonal within tolerance")
        w.flags.writeable = False
        rot.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "rotation", rot)

    @classmethod
    def initial(cls, d: int) -> "WsState":
        return cls(np.zeros(d + 1), np.eye(d + 1), 0.0)

    @property
    def d(self) -> int:
        return self.w.size - 1


class WsPath(list):
    """List of WsState produced by ``ws_evolve``, with integration diagnostics."""

    guard_events: int = 0


def ws_rhs(w: np.ndarray, rotation: np.ndarray, omega: SkewMatrix | None,
           x_field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides of the reduced (w, R) system."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x_field, dtype=float)
    w2 = float(w @ w)
    wx = float(w @ x)
    om_mat = omega.matrix if omega is not None else None
    dw = 0.5 * (1.0 + w2) * x - wx * w
    if om_mat is not None:
        dw = dw + om_mat @ w
    coupling = x[:, None] * w - w[:, None] * x
    if om_mat is not None:
        coupling = coupling + om_mat
    drot = coupling @ rotation
    return dw, drot


def ws_evolve(omega: SkewMatrix | None, field: DrivingField, t_end: float, dt: float) -> WsPath:
    """RK4 integration of the reduced system from (0, I).

    The driving field must be clock-driven (a replayed recording or a
    prescribed function); the orthogonality of R is re-established every
    ``_REORTH_EVERY`` steps and at the end, and the ball vector is clamped
    just inside the unit ball if floating-point drift pushes it out.  A
    non-finite update raises, naming the step time.
    """
    if field.state_dependent:
        raise ValueError("ws evolution needs a prescribed or replayed driving field")
    if dt <= 0 or t_end < 0:
        raise ValueError("need dt > 0 and t_end >= 0")
    x0 = np.asarray(field.evaluate(None, 0.0), dtype=float)
    if t_end > 0:
        field.evaluate(None, t_end)  # fail fast if the recording is too short
    dim = x0.size
    if omega is not None and omega.n != dim:
        raise ValueError("generator dimension must match the driving field")
    steps = int(round(t_end / dt))
    eye = np.eye(dim)
    # rows 0..d hold R and the last row holds w; the leading-row slice keeps
    # R C-contiguous like a standalone matrix, so ws_rhs rounds the same way
    y = np.vstack((eye, np.zeros(dim)))
    path = WsPath([WsState(y[-1], y[:-1], 0.0)])
    guard = 0

    def rhs(yc, ts):
        dw, drot = ws_rhs(yc[-1], yc[:-1], omega, field.evaluate(None, ts))
        return np.concatenate((drot, dw[None]))

    # a blow-up is reported by the finite check below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, steps + 1):
            y = _rk4(y, rhs, (s - 1) * dt, dt)
            if not np.isfinite(y).all():
                raise ValueError(f"non-finite (w, R) state at step time t = {s * dt}")
            wn = float(np.linalg.norm(y[-1]))
            if wn >= 1.0 - _BALL_GUARD:
                # analytically |w| < 1 always; any excursion is pure float drift
                y[-1] *= (1.0 - _BALL_GUARD) / wn
                guard += 1
            # cadence plus a defect trigger, so coarse steps cannot outrun the
            # 1e-8 orthogonality invariant between scheduled corrections
            rot = y[:-1]
            if s % _REORTH_EVERY == 0 or s == steps \
                    or np.linalg.norm(rot.T @ rot - eye) > 1e-9:
                y[:-1] = reorthonormalize(rot)
            path.append(WsState(y[-1], y[:-1], s * dt))
    path.guard_events = guard
    return path


def ws_evolve_groups(omegas, field: DrivingField, t_end: float, dt: float
                     ) -> dict[SkewMatrix, WsPath]:
    """Evolve one reduction per distinct generator, all driven by the same field."""
    out: dict[SkewMatrix, WsPath] = {}
    for om in omegas:
        if om not in out:
            out[om] = ws_evolve(om, field, t_end, dt)
    return out


def mobius(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Moebius-type sphere map  x -> w + (x + w)(1 - |w|^2) / |x + w|^2.

    The map fixes the sphere, is the identity at w = 0, and its inverse is
    the same map with -w.  Points numerically antipodal to the pole raise.
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    if w.shape != x.shape:
        raise ValueError("dimension mismatch")
    s = x + w
    q = float(s @ s)
    if q <= _POLE_TOL:
        raise MobiusPoleError("point is numerically antipodal to the map pole")
    return w + s * ((1.0 - float(w @ w)) / q)


def _mobius_rows(w: np.ndarray, points: np.ndarray) -> np.ndarray:
    s = points + w
    q = np.einsum("ij,ij->i", s, s)
    if np.min(q) <= _POLE_TOL:
        raise MobiusPoleError("point is numerically antipodal to the map pole")
    return w + s * ((1.0 - float(w @ w)) / q)[:, None]


def _apply_map(state: WsState, points: np.ndarray) -> np.ndarray:
    """The reduction map of ``state`` on an (n, d+1) array; the identity map
    returns ``points`` itself."""
    if not state.w.any() and np.array_equal(state.rotation, np.eye(state.d + 1)):
        return points
    return _mobius_rows(state.w, points @ state.rotation.T)


def push_forward(state: WsState, ens0: Ensemble) -> Ensemble:
    """Apply the reduction map of ``state`` to every point of an ensemble.

    At (w, R) = (0, I) the input ensemble is returned unchanged, bit for bit.
    """
    if state.d != ens0.d:
        raise ValueError("state and ensemble dimensions do not match")
    points = _apply_map(state, ens0.points)
    if points is ens0.points and state.time == ens0.time:
        return ens0
    return Ensemble(points, ens0.omega, state.time)


def heterogeneous_push_forward(states: "dict[SkewMatrix, WsState]", ens0: Ensemble) -> Ensemble:
    """Push each particle through its own generator group's map.

    Every distinct generator label in the ensemble must have a state, all at
    the same time; labels are carried to the output unchanged.
    """
    times = set()
    out = np.empty_like(ens0.points)
    for om, idx in ens0.omega_groups():
        if om is None:
            raise ValueError("ensemble carries no generator labels")
        if om not in states:
            raise ValueError("missing reduction state for a generator group")
        st = states[om]
        if st.d != ens0.d:
            raise ValueError("state and ensemble dimensions do not match")
        times.add(st.time)
        out[idx] = _apply_map(st, ens0.points[idx])
    if len(times) > 1:
        raise ValueError("group states are not synchronous")
    return Ensemble(out, ens0.omega, times.pop())


def conjugacy_residual(states, field: DrivingField, sample_points: Ensemble) -> float:
    """Check that the pushed points move with the model velocity field.

    Central-differences the pushed samples in time and compares against
    Omega m + X - <m, X> m at the interior instants; the residual decays as
    O(dt^2).  Needs at least three uniformly spaced states.
    """
    if len(states) < 3:
        raise ValueError("need at least three states for a central difference")
    times = np.array([st.time for st in states])
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(dts[0], 1e-30):
        raise ValueError("states are not uniformly spaced")
    dt = dts[0]
    pushed = [push_forward(st, sample_points).points for st in states]
    groups = sample_points.omega_groups()
    worst = 0.0
    for i in range(1, len(states) - 1):
        fd = (pushed[i + 1] - pushed[i - 1]) / (2.0 * dt)
        x = np.asarray(field.evaluate(None, times[i]), dtype=float)
        v = _velocities(pushed[i], groups, x)
        worst = max(worst, float(np.max(np.linalg.norm(fd - v, axis=1))))
    return worst


def algebraic_identity_residuals(w, m_point, omega: SkewMatrix | None, x_field):
    """Residuals of two internal identities of the reduced system.

    First, the radial growth of the ball vector:
        <w, dw/dt> = (1 - |w|^2) <w, X> / 2.
    Second, with  D := Omega (m - w) + (1 - |w|^2) X / 2 - <m, X> m + <w, X> w
    (the algebraic form of d(m)/dt - dw/dt for a sphere point m moved by the
    flow):
        <D, m - w> = -|m - w|^2 <m + w, X> / 2.
    Both must vanish to rounding for any |w| < 1, unit m, skew Omega and X.
    """
    w = np.asarray(w, dtype=float)
    m = np.asarray(m_point, dtype=float)
    x = np.asarray(x_field, dtype=float)
    dim = w.size
    dw, _ = ws_rhs(w, np.eye(dim), omega, x)
    w2 = float(w @ w)
    r1 = abs(float(w @ dw) - 0.5 * (1.0 - w2) * float(w @ x))
    diff = m - w
    d_vec = 0.5 * (1.0 - w2) * x - float(m @ x) * m + float(w @ x) * w
    if omega is not None:
        d_vec = d_vec + omega.matrix @ diff
    r3 = abs(float(d_vec @ diff) + 0.5 * float(diff @ diff) * float((m + w) @ x))
    return r1, r3
