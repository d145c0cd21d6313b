"""Watanabe-Strogatz reduction for sphere dynamics.

Once the driving vector X(t) is known as a function of time, the whole flow
is a time-dependent Moebius-type map applied to the frozen initial points.
The map is parameterised by a ball vector w (norm < 1) and a rotation R that
obey the reduced system

    dw/dt = Omega w + (1 + |w|^2) X / 2 - <w, X> w,        w(0) = 0,
    dR/dt = (Omega + X w^T - w X^T) R,                     R(0) = I,

and the map itself is  x -> w + (R x + w)(1 - |w|^2) / |R x + w|^2.
Each generator group has its own map, driven by the same X(t).  Pushing an
initial ensemble through its maps reproduces the direct particle simulation,
which is what ``push_forward`` and ``conjugacy_residual`` verify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DrivingField, _rk4, _step_count, _velocities
from .geometry import Ensemble, SkewMatrix, _checked_omega, _component_dot

__all__ = [
    "MobiusPoleError",
    "WsPath",
    "WsState",
    "algebraic_identity_residuals",
    "conjugacy_residual",
    "push_forward",
    "ws_evolve",
    "ws_rhs",
]

_BALL_GUARD = 1e-10
_POLE_TOL = 1e-14
# float64 entries (32 kB) in the largest batched array of ws_evolve's R
# update and of conjugacy_residual's stacked push-forward; this sets their
# block lengths and keeps each call's transients to a few hundred kB
_BLOCK_FLOATS = 1 << 12


class MobiusPoleError(ValueError):
    """Raised when a point is numerically antipodal to the map pole."""


@dataclass(frozen=True, eq=False)
class WsState:
    """Parameters (w, R) of the reduction map at one instant, or a validated
    stack of them: w (..., d+1), rotation (..., d+1, d+1) and time (...)."""

    w: np.ndarray
    rotation: np.ndarray
    time: "float | np.ndarray" = 0.0

    def __post_init__(self):
        w, rot, time = (np.array(a, dtype=float) for a in (self.w, self.rotation, self.time))
        if w.ndim < 1 or rot.shape != w.shape + w.shape[-1:] or time.shape != w.shape[:-1]:
            raise ValueError("w, rotation and time must be (..., d+1), (..., d+1, d+1) and "
                             f"(...) stacks, not {w.shape}, {rot.shape} and {time.shape}")
        if not np.isfinite(time).all():
            raise ValueError("state times must be finite")
        if not ((w[..., None, :] @ w[..., :, None]) < 1.0).all():
            raise ValueError("ball vector must have norm strictly below one")
        defect = np.swapaxes(rot, -1, -2) @ rot - np.eye(w.shape[-1])
        if not (np.linalg.norm(defect, axis=(-2, -1)) <= 1e-8).all():
            raise ValueError("rotation is not orthogonal within tolerance")
        for name, value in (("w", w), ("rotation", rot), ("time", time)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if not time.ndim:
            object.__setattr__(self, "time", float(time))  # a single state's time is a float

    @classmethod
    def initial(cls, d: int) -> "WsState":
        return cls(np.zeros(d + 1), np.eye(d + 1), 0.0)

    @property
    def d(self) -> int:
        return self.w.shape[-1] - 1

    # a single state's time is a float, which has no length and no items
    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, s) -> "WsState":
        return WsState(self.w[s], self.rotation[s], self.time[s])


@dataclass(frozen=True, eq=False)
class WsPath(WsState):
    """The stacked states of ``ws_evolve``, one per step, and its ball-guard clamp count."""

    guard_events: int = 0


def _dw(w: np.ndarray, om_mat: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """dw/dt = Omega w + (1 + |w|^2) X / 2 - <w, X> w; ``om_mat`` is Omega's
    matrix or None."""
    dw = 0.5 * (1.0 + float(w @ w)) * x - float(w @ x) * w
    if om_mat is not None:
        dw = dw + om_mat @ w
    return dw


def _generator(w: np.ndarray, x: np.ndarray, om_mat: np.ndarray | None) -> np.ndarray:
    """A = Omega + X w^T - w X^T, exactly skew, for vectors w and X or
    stacks (..., d+1) of them."""
    a = x[..., :, None] * w[..., None, :] - w[..., :, None] * x[..., None, :]
    return a if om_mat is None else a + om_mat


def ws_rhs(w: np.ndarray, rotation: np.ndarray, omega: SkewMatrix | None,
           x_field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides of the reduced (w, R) system."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x_field, dtype=float)
    om_mat = omega.matrix if omega is not None else None
    return _dw(w, om_mat, x), _generator(w, x, om_mat) @ rotation


def _cayley_factors(stage_w: np.ndarray, stage_x: np.ndarray, om_mat: np.ndarray | None,
                    dt: float) -> np.ndarray:
    """Step factors Q_n, with R_{n+1} = Q_n R_n, of the fourth-order
    Runge-Kutta-Munthe-Kaas method in Cayley coordinates for dR/dt = A(t) R,
    from the (steps, 4, d+1) stage values of w and X.

    The stages are k1 = A1 and k_i = dcayinv(c_i dt k_{i-1}, A_i) with
    c = (1/2, 1/2, 1) and dcayinv(T, A) = A - [T, A]/2 - T A T/4, the
    inverse derivative of cay(T) = (I - T/2)^-1 (I + T/2).  Then
    Theta = dt/6 (k1 + 2 k2 + 2 k3 + k4) and Q = cay(Theta), which is
    orthogonal for skew Theta.  A step whose Theta is not finite gets a NaN
    factor.
    """
    a = _generator(stage_w, stage_x, om_mat)
    k = a[:, 0]
    acc = k.copy()
    for i, c in ((1, 0.5), (2, 0.5), (3, 1.0)):
        t = (c * dt) * k
        ai = a[:, i]
        ta = t @ ai
        k = ai - 0.5 * (ta - ai @ t) - 0.25 * (ta @ t)
        acc += k if i == 3 else 2.0 * k
    half = (dt / 12.0) * acc
    ok = np.isfinite(half).all(axis=(1, 2))
    eye = np.eye(half.shape[-1])
    q = np.full_like(half, np.nan)
    q[ok] = np.linalg.solve(eye - half[ok], eye + half[ok])
    return q


def ws_evolve(omega: SkewMatrix | tuple | None, field: DrivingField, t_end: float, dt: float) -> WsPath:
    """Integrate the reduced system from (0, I) over round(t_end / dt) steps,
    returned as one validated stack of the states at t = s * dt.

    ``omega`` is taken as ``Ensemble.omega`` is.  For G >= 2 generator
    groups the path is their own runs stacked as (steps+1, G, ...), in the
    order of ``Ensemble.omega_groups()``, with their guard events summed.

    R does not enter dw/dt, and dR/dt = A(t) R is linear in R once w is
    known.  So w alone is stepped by classical RK4, and R by the RKMK4
    Cayley method (``_cayley_factors``) from w's stage values, batched over
    blocks of steps: R stays orthogonal by construction and is never
    corrected.  The driving field must be clock-driven (a replayed
    recording or a prescribed function); it is evaluated at every stage
    time of a block in one call.  The ball vector is clamped just inside
    the unit ball if floating-point drift pushes it out.  A non-finite w or
    R raises, naming the first step time where it occurs.
    """
    steps = _step_count(t_end, dt, 1)
    dim = field._at_times(np.array([0.0, t_end])).shape[1]  # fails fast on a short recording
    if isinstance(omega, (list, tuple)):
        groups = dict.fromkeys(_checked_omega(omega, len(omega), dim))
        if not groups:
            raise ValueError("need at least one generator label")
        paths = [ws_evolve(om, field, t_end, dt) for om in groups]
        if len(paths) == 1:
            return paths[0]
        stacked = (np.stack(a, axis=1) for a in zip(*((p.w, p.rotation, p.time) for p in paths)))
        return WsPath(*stacked, sum(p.guard_events for p in paths))
    om_mat = None if _checked_omega(omega, 1, dim) is None else omega.matrix
    ws = np.zeros((steps + 1, dim))
    rots = np.empty((steps + 1, dim, dim))
    rots[0] = np.eye(dim)
    w = ws[0].copy()
    block = max(1, _BLOCK_FLOATS // (4 * dim * dim))
    stage_w = np.empty((block, 4, dim))
    guard = 0
    # a blow-up is reported by each block's finite check, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, steps, block):
            nb = min(block, steps - b0)
            t0 = np.arange(b0, b0 + nb) * dt
            # the stage times t, t + dt/2 (twice) and t + dt as _rk4 forms them
            xs = field._at_times(np.stack((t0, t0 + 0.5 * dt, t0 + dt), axis=1).reshape(-1))
            xs = xs.reshape(nb, 3, dim)[:, (0, 1, 1, 2)]
            xs_flat, sw_flat = xs.reshape(-1, dim), stage_w.reshape(-1, dim)
            calls = itertools.count()

            def rhs(wc, _t):
                # the stages come in order, and X at their times is in xs
                c = next(calls)
                sw_flat[c] = wc
                return _dw(wc, om_mat, xs_flat[c])

            for j in range(nb):
                w = _rk4(w, rhs, (b0 + j) * dt, dt)
                wn = math.sqrt(float(w @ w))
                if wn >= 1.0 - _BALL_GUARD:
                    # analytically |w| < 1 always; any excursion is pure float drift
                    w *= (1.0 - _BALL_GUARD) / wn
                    guard += 1
                ws[b0 + j + 1] = w
            q = _cayley_factors(stage_w[:nb], xs, om_mat, dt)
            for j in range(nb):
                np.matmul(q[j], rots[b0 + j], out=rots[b0 + j + 1])
            finite = np.isfinite(ws[b0 + 1:b0 + nb + 1]).all(axis=1) \
                & np.isfinite(rots[b0 + 1:b0 + nb + 1]).all(axis=(1, 2))
            if not finite.all():
                t_bad = (b0 + int(np.argmin(finite)) + 1) * dt
                raise ValueError(f"non-finite (w, R) state at step time t = {t_bad}")
    return WsPath(ws, rots, np.arange(steps + 1) * dt, guard)


def _mobius_rows(w: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The Moebius-type sphere map  x -> w + (x + w)(1 - |w|^2) / |x + w|^2
    on the rows of an (..., n, d+1) stack, one ball vector (..., d+1) per
    member; every member gets the bits it gets on its own.

    The map fixes the sphere, is the identity at w = 0, and its inverse is
    the same map with -w.  Points numerically antipodal to the pole raise.
    """
    s = points + w[..., None, :]
    s_cols = np.swapaxes(s, -1, -2)
    q = _component_dot(s_cols, s_cols)
    if np.min(q) <= _POLE_TOL:
        raise MobiusPoleError("point is numerically antipodal to the map pole")
    # w @ w as a stack of (1, k) @ (k, 1) products: the same matmul loop a
    # single 1-D ``w @ w`` runs, so each member keeps its own bits
    ww = (w[..., None, :] @ w[..., :, None])[..., 0, 0]
    return w[..., None, :] + s * ((1.0 - ww)[..., None] / q)[..., None]


def _apply_map(w: np.ndarray, rotation: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The reduction maps of ball vectors (..., d+1) and rotations
    (..., d+1, d+1) on an (n, d+1) array, one image per map; an identity
    map's image is ``points`` bit for bit, and for a single identity map it
    is ``points`` itself."""
    ident = ~w.any(axis=-1) & (rotation == np.eye(w.shape[-1])).all(axis=(-2, -1))
    if w.ndim == 1 and ident:
        return points
    out = _mobius_rows(w, points @ np.swapaxes(rotation, -1, -2))
    if ident.any():
        out[ident] = points
    return out


def _push_groups(w: np.ndarray, rotation: np.ndarray, points: np.ndarray, groups) -> np.ndarray:
    """``_apply_map`` with one map per entry of ``groups``: for G >= 2, w and rotation
    carry a group axis, and map g moves the rows of group g's indices or slice."""
    if len(groups) == 1:
        return _apply_map(w, rotation, points)
    out = np.empty(w.shape[:-2] + points.shape)
    for g, (_, idx) in enumerate(groups):
        out[..., idx, :] = _apply_map(w[..., g, :], rotation[..., g, :, :], points[idx])
    return out


def _group_time(state: WsState, ens0: Ensemble, stacked: bool):
    """The time of a state, or the times of a stack of them, with one map per
    generator group of ``ens0``: w (d+1,) for one group, (G, d+1) at one time for G >= 2."""
    groups = len(ens0.omega_groups())
    want = state.w.shape[:1] * stacked + (groups,) * (groups > 1) + (ens0.d + 1,)
    if state.w.shape != want:
        hint = "; index a path" if state.w.ndim > len(want) and not stacked else ""
        raise ValueError(f"need {'a path' if stacked else 'one state'} with one map per generator "
                         f"group of the ensemble, w {want}, not w {state.w.shape}{hint}")
    if groups > 1 and (state.time != state.time[..., :1]).any():
        raise ValueError("the group maps of a state must share its time")
    return state.time[..., 0] if groups > 1 else state.time


def push_forward(state: WsState, ens0: Ensemble) -> Ensemble:
    """Move each generator group of an ensemble by its own map of ``state``,
    one state of ``ws_evolve(ens0.omega, ...)``.

    At (w, R) = (0, I) the input ensemble itself is returned.  The state's
    time is checked but not carried: an ensemble has no clock.
    """
    _group_time(state, ens0, stacked=False)
    points = _push_groups(state.w, state.rotation, ens0.points, ens0._omega_slices())
    return ens0 if points is ens0.points else Ensemble(points, ens0.omega)


def conjugacy_residual(states: WsState, field: DrivingField, sample_points: Ensemble) -> float:
    """Check that the pushed points move with the model's vector field.

    Central-differences the pushed samples in time and compares against
    Omega m + X - <m, X> m at the interior instants; the residual decays as
    O(dt^2).  Needs a stack of at least three uniformly spaced states, each
    as ``push_forward`` takes it.  They are pushed forward as blocks, with
    the value of pushing them one at a time; a NaN residual at any instant
    makes the result NaN.
    """
    if states.d != sample_points.d:
        raise ValueError("state and ensemble dimensions do not match")
    times = _group_time(states, sample_points, stacked=True)
    if len(times) < 3:
        raise ValueError("need a stack of at least three states for a central difference")
    dts = np.diff(times)
    if not (dts > 0).all():
        raise ValueError("state times must increase")
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(dts[0], 1e-30):
        raise ValueError("states are not uniformly spaced")
    dt = dts[0]
    xs = field._at_times(times[1:-1])
    points = sample_points.points
    groups = sample_points._omega_slices()
    block = max(1, _BLOCK_FLOATS // points.size)
    worst = []
    # block [b0, b1) of interior states, pushed with one neighbour on each side
    for b0 in range(1, len(times) - 1, block):
        b1 = min(b0 + block, len(times) - 1)
        pushed = _push_groups(states.w[b0 - 1:b1 + 1], states.rotation[b0 - 1:b1 + 1], points, groups)
        fd = (pushed[2:] - pushed[:-2]) / (2.0 * dt)
        v = _velocities(pushed[1:-1].swapaxes(-1, -2), xs[b0 - 1:b1 - 1], groups)
        fd -= v.swapaxes(-1, -2)
        worst.append(np.max(np.linalg.norm(fd, axis=-1)))
    return float(np.max(worst))


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
    dw, _ = ws_rhs(w, np.eye(w.size), omega, x)
    w2 = float(w @ w)
    r1 = abs(float(w @ dw) - 0.5 * (1.0 - w2) * float(w @ x))
    diff = m - w
    d_vec = 0.5 * (1.0 - w2) * x - float(m @ x) * m + float(w @ x) * w
    if omega is not None:
        d_vec = d_vec + omega.matrix @ diff
    r3 = abs(float(d_vec @ diff) + 0.5 * float(diff @ diff) * float((m + w) @ x))
    return r1, r3
