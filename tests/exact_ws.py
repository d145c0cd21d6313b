"""The Watanabe-Strogatz reduction in exact rational arithmetic.

Random rational inputs (points on S^d by inverse stereographic projection,
rotations by the Cayley transform of a skew matrix, ball vectors, Omega and
X), the reduced system's rates and the reduction map over
``fractions.Fraction``, and d/dt by forward-mode dual numbers.  Every term
of the reduction identity is a rational function of its inputs, and a
nonzero rational function vanishes at a random point only with small
probability (Schwartz, J. ACM 27(4), 1980), so a few exact draws prove the
identity up to that probability.
"""

import math
from fractions import Fraction


class Dual:
    """A value and its time derivative, a + b eps with eps^2 = 0."""

    __slots__ = ("val", "der")

    def __init__(self, val, der=0):
        self.val, self.der = val, der

    def __add__(self, other):
        other = _dual(other)
        return Dual(self.val + other.val, self.der + other.der)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.der)

    def __sub__(self, other):
        return self + -_dual(other)

    def __rsub__(self, other):
        return _dual(other) + -self

    def __mul__(self, other):
        other = _dual(other)
        return Dual(self.val * other.val, self.val * other.der + self.der * other.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _dual(other)
        q = self.val / other.val
        return Dual(q, (self.der - q * other.der) / other.val)


def _dual(a):
    return a if isinstance(a, Dual) else Dual(a)


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def matvec(m, v):
    return [dot(row, v) for row in m]


def _fraction(rng):
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def sphere_point(rng, d):
    """A rational point of S^d: the inverse stereographic projection of a
    rational u in R^d."""
    u = [_fraction(rng) for _ in range(d)]
    n = dot(u, u)
    return [2 * a / (n + 1) for a in u] + [(n - 1) / (n + 1)]


def distinct_sphere_points(rng, d, n):
    points = []
    while len(points) < n:
        p = sphere_point(rng, d)
        if p not in points:
            points.append(p)
    return points


def skew(rng, dim):
    s = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i):
            s[i][j] = _fraction(rng)
            s[j][i] = -s[i][j]
    return s


def solve(a, b):
    """X with a X = b for a square nonsingular a, by Gauss-Jordan elimination."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [e / pivot for e in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [e - f * g for e, g in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def rotation(rng, dim):
    """A rational orthogonal matrix, the Cayley transform (I - S)^-1 (I + S)
    of a rational skew S (I - S is nonsingular for skew S)."""
    s = skew(rng, dim)
    eye = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    sub = [[e - f for e, f in zip(re, rs)] for re, rs in zip(eye, s)]
    add = [[e + f for e, f in zip(re, rs)] for re, rs in zip(eye, s)]
    return solve(sub, add)


def draw(rng, d):
    """Rational w (|w| < 1), R, Omega, X and a point x0 of S^d."""
    w = [Fraction(rng.randint(1, 99), 100) * a for a in sphere_point(rng, d)]
    x = [_fraction(rng) for _ in range(d + 1)]
    return w, rotation(rng, d + 1), skew(rng, d + 1), x, sphere_point(rng, d)


def exact_dw(w, omega, x):
    """dw/dt = Omega w + (1 + |w|^2) X / 2 - <w, X> w."""
    ww, wx = dot(w, w), dot(w, x)
    return [o + (1 + ww) * a / 2 - wx * b for o, a, b in zip(matvec(omega, w), x, w)]


def exact_generator(w, x, omega):
    """A = Omega + X w^T - w X^T."""
    return [[o + x[i] * w[j] - w[i] * x[j] for j, o in enumerate(row)] for i, row in enumerate(omega)]


def mobius(w, y):
    """The reduction map's Moebius part at one point, y -> w + (y + w)(1 - |w|^2) / |y + w|^2."""
    s = [a + b for a, b in zip(y, w)]
    f = (1 - dot(w, w)) / dot(s, s)
    return [b + a * f for a, b in zip(s, w)]


def flow_residual(w, rot, omega, x, x0, dw=exact_dw, generator=exact_generator):
    """dy/dt - (Omega y + X - <y, X> y) at y = M_w(R x0), for w moving at
    ``dw(w, omega, x)`` and R at ``generator(w, x, omega) R``; every entry is
    exactly 0 where the reduction holds."""
    z = matvec(rot, x0)
    y = mobius([Dual(a, b) for a, b in zip(w, dw(w, omega, x))],
               [Dual(a, b) for a, b in zip(z, matvec(generator(w, x, omega), z))])
    yv = [e.val for e in y]
    yx = dot(yv, x)
    return [e.der - (o + a - yx * b) for e, o, a, b in zip(y, matvec(omega, yv), x, yv)]


def cycle_ratio(points):
    """Alternating product of squared chords around a cycle of 2k points."""
    chords = [[a - b for a, b in zip(p, q)] for p, q in zip(points, points[1:] + points[:1])]
    ch2 = [dot(c, c) for c in chords]
    return math.prod(ch2[0::2]) / math.prod(ch2[1::2])
