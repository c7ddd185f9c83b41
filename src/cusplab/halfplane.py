"""Hyperbolic geometry of the upper half-plane.

Conventions used throughout the package:

* Interior points are ``HPoint`` values (x + iy with y > 0); the reference
  base point is i = ``BASE_POINT``.
* Boundary points are plain floats, with ``math.inf`` standing for the point
  at infinity.  Infinity compares greater than every finite value, which is
  the boundary ordering we need.
* Geodesics are oriented: a ``Geodesic`` runs from ``start`` to ``end``.
  With both endpoints finite the trace is the Euclidean semicircle over the
  segment; with one endpoint at infinity it is a vertical line.
* Horoballs are Euclidean discs tangent to the real axis (finite base,
  ``size`` = Euclidean diameter) or the half-plane above a horizontal line
  (base at infinity, ``size`` = height of the line).

Everything here is double precision; exact arithmetic only enters at the
continued-fraction layer, which has its own cancellation-free formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INFINITY = math.inf

_DET_TOL = 1e-12


def _is_infinite(x) -> bool:
    return isinstance(x, (int, float)) and math.isinf(x)


@dataclass(frozen=True)
class HPoint:
    """Interior point x + iy of the upper half-plane (y strictly positive)."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"HPoint needs y > 0, got y={self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


BASE_POINT = HPoint(0.0, 1.0)


@dataclass(frozen=True)
class MoebiusMap:
    """Real Moebius map z -> (az + b)/(cz + d), normalized to determinant +1.

    Orientation-reversing matrices (negative determinant) are rejected; the
    group acting here is PSL(2, R).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not det > 0:
            raise ValueError(f"MoebiusMap needs positive determinant, got {det}")
        s = math.sqrt(det)
        if abs(det - 1.0) > _DET_TOL:
            object.__setattr__(self, "a", self.a / s)
            object.__setattr__(self, "b", self.b / s)
            object.__setattr__(self, "c", self.c / s)
            object.__setattr__(self, "d", self.d / s)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __call__(self, z):
        return mobius_apply(self, z)


def mobius_apply(m: MoebiusMap, z):
    """Apply a Moebius map; interior points map to interior, boundary to boundary.

    Boundary conventions: z = infinity maps to a/c (or infinity when c = 0),
    and the pole z = -d/c maps to infinity.
    """
    if isinstance(z, HPoint):
        w = (m.a * z.z + m.b) / (m.c * z.z + m.d)
        return HPoint(w.real, w.imag)
    x = float(z)
    if math.isinf(x):
        return m.a / m.c if m.c != 0.0 else INFINITY
    denom = m.c * x + m.d
    if denom == 0.0:
        return INFINITY
    return (m.a * x + m.b) / denom


def _as_extended(p):
    """Internal: HPoint -> complex, boundary float -> complex or INFINITY marker."""
    if isinstance(p, HPoint):
        return p.z
    x = float(p)
    if math.isinf(x):
        return INFINITY
    return complex(x, 0.0)


def cross_ratio(x, y, z, t):
    """Cross-ratio [x, y, z, t] = (x - y)(z - t) / ((y - z)(t - x)).

    Accepts interior points and boundary values; at most one argument may be
    infinite, and infinity is handled by cancelling the two factors that
    contain it.  Returns a float when the result is real (the generic case for
    boundary arguments), otherwise a complex number.
    """
    pts = [_as_extended(p) for p in (x, y, z, t)]
    inf_count = sum(1 for p in pts if _is_infinite(p))
    if inf_count > 1:
        raise ValueError("cross_ratio allows at most one point at infinity")
    finite = [p for p in pts if not _is_infinite(p)]
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            if finite[i] == finite[j]:
                raise ValueError("cross_ratio needs pairwise distinct points")
    X, Y, Z, T = pts
    if _is_infinite(X):
        val = (Z - T) / (Z - Y)
    elif _is_infinite(Y):
        val = (Z - T) / (X - T)
    elif _is_infinite(Z):
        val = (X - Y) / (X - T)
    elif _is_infinite(T):
        val = (X - Y) / (Z - Y)
    else:
        val = (X - Y) * (Z - T) / ((Y - Z) * (T - X))
    if abs(val.imag) <= 1e-13 * max(1.0, abs(val)):
        return val.real
    return val


def hyp_distance(z: HPoint, w: HPoint) -> float:
    """Hyperbolic distance, cosh d = 1 + |z - w|^2 / (2 Im z Im w)."""
    dx = z.x - w.x
    dy = z.y - w.y
    return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * z.y * w.y))


@dataclass(frozen=True)
class Geodesic:
    """Oriented geodesic with boundary endpoints ``start`` -> ``end``."""

    start: float
    end: float

    def __post_init__(self):
        if _is_infinite(self.start) and _is_infinite(self.end):
            raise ValueError("a geodesic needs at most one endpoint at infinity")
        if self.start == self.end:
            raise ValueError("geodesic endpoints must be distinct")

    @property
    def is_vertical(self) -> bool:
        return _is_infinite(self.start) or _is_infinite(self.end)

    @property
    def foot(self) -> float:
        """Finite endpoint of a vertical geodesic."""
        if not self.is_vertical:
            raise ValueError("foot is defined for vertical geodesics only")
        return self.end if _is_infinite(self.start) else self.start


def geodesic_through(z: HPoint, w: HPoint) -> Geodesic:
    """Oriented geodesic through two interior points, pointing z -> w.

    Vertical configurations (equal real parts) give (foot, infinity) when the
    travel goes upward and (infinity, foot) when it goes downward.
    """
    if z == w:
        raise ValueError("geodesic_through needs two distinct points")
    if z.x == w.x:
        if z.y < w.y:
            return Geodesic(z.x, INFINITY)
        return Geodesic(INFINITY, z.x)
    c = (w.x * w.x + w.y * w.y - z.x * z.x - z.y * z.y) / (2.0 * (w.x - z.x))
    r = math.hypot(z.x - c, z.y)
    if z.x < w.x:
        return Geodesic(c - r, c + r)
    return Geodesic(c + r, c - r)


def mobius_apply_geodesic(m: MoebiusMap, g: Geodesic) -> Geodesic:
    return Geodesic(mobius_apply(m, g.start), mobius_apply(m, g.end))


def distance_via_crossratio(z: HPoint, w: HPoint) -> float:
    """Distance through the cross-ratio route: d(z, w) = log [w, start, z, end].

    Here (start, end) are the endpoints of the oriented geodesic through z
    then w.  Agrees with ``hyp_distance`` to within floating-point noise.
    """
    if z == w:
        raise ValueError("distance_via_crossratio needs distinct points")
    g = geodesic_through(z, w)
    val = cross_ratio(w, g.start, z, g.end)
    if isinstance(val, complex):
        val = val.real
    return math.log(val)


def petal_span(n: int):
    """Center c of the semicircle joining i to the boundary point n - 1/2,
    together with the hyperbolic distance d(i, i + 2c).

    The distance measures the travel across 2n-ish fundamental petals around
    a parabolic point and is trapped in [log(n^2) - log 10, log(n^2)] for
    every n >= 2.  Returns (c, distance).
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"petal_span needs an integer n >= 2, got {n!r}")
    c = (4.0 * n * n - 4.0 * n - 3.0) / (4.0 * (2.0 * n - 1.0))
    half = n - 0.5
    # d(i, i+2c) = log((1 + (n-1/2)^2) / (1 + (2c - (n-1/2))^2)), and
    # 2c - (n - 1/2) simplifies to -2/(2n-1).
    off = 2.0 / (2.0 * n - 1.0)
    dist = math.log1p(half * half) - math.log1p(off * off)
    return c, dist


@dataclass(frozen=True)
class Horoball:
    """Horoball tangent at ``base``; ``size`` is its Euclidean diameter, or the
    height of the bounding horizontal line when the base is at infinity."""

    base: float
    size: float

    def __post_init__(self):
        if not self.size > 0:
            raise ValueError(f"horoball size must be positive, got {self.size}")

    @property
    def top(self) -> HPoint:
        """Euclidean apex of the ball (undefined for the ball at infinity)."""
        if _is_infinite(self.base):
            raise ValueError("the horoball at infinity has no finite top")
        return HPoint(self.base, self.size)


def penetration_depth(ball: Horoball, geod: Geodesic) -> float:
    """Formal penetration depth of a geodesic into a horoball.

    Positive means the geodesic enters the open ball and the value is the
    maximal distance from the trace to the ball's boundary; zero means
    tangency; negative values mean no entry and measure how far outside the
    geodesic stays.  A geodesic endpoint equal to the base point would mean
    an infinite excursion and raises ValueError.

    Derivation: send the base point to infinity, where the ball becomes the
    half-plane above height 1/size and the geodesic a semicircle of apex
    height H; the depth is log(H * size).
    """
    a, b = geod.start, geod.end
    if _is_infinite(ball.base):
        if _is_infinite(a) or _is_infinite(b):
            raise ValueError("geodesic ends in the cusp at infinity")
        return math.log(abs(a - b) / (2.0 * ball.size))
    x0 = ball.base
    if a == x0 or b == x0:
        raise ValueError("geodesic ends at the horoball base (infinite excursion)")
    if _is_infinite(a):
        return math.log(ball.size / (2.0 * abs(b - x0)))
    if _is_infinite(b):
        return math.log(ball.size / (2.0 * abs(a - x0)))
    return math.log(ball.size * abs(a - b) / (2.0 * abs(a - x0) * abs(b - x0)))


def chord_length(depth: float) -> float:
    """Hyperbolic length of the geodesic segment inside a horoball, given the
    penetration depth d > 0.  Equals 2*arccosh(e^d); for large d this is
    2d + 2 log 2 up to exponentially small terms."""
    if depth <= 0:
        raise ValueError("chord_length needs a positive depth")
    # 2*arccosh(e^d) = 2*(d + log(1 + sqrt(1 - e^{-2d}))), stable for all d.
    return 2.0 * (depth + math.log1p(math.sqrt(-math.expm1(-2.0 * depth))))


def entry_exit_points(ball: Horoball, geod: Geodesic):
    """Entry and exit points of an oriented geodesic through a horoball,
    ordered along the orientation.  Requires strictly positive penetration
    depth (tangency does not give two points)."""
    depth = penetration_depth(ball, geod)
    if not depth > 0:
        raise ValueError(f"geodesic does not enter the open horoball (depth={depth})")
    a, b = geod.start, geod.end
    if _is_infinite(ball.base):
        h = ball.size
        c, r = 0.5 * (a + b), 0.5 * abs(b - a)
        s = math.sqrt(r * r - h * h)
        first, second = (c - s, c + s) if a < b else (c + s, c - s)
        return HPoint(first, h), HPoint(second, h)
    x0 = ball.base
    # Normalize the base to infinity with sigma(z) = -1/(z - x0).
    ap = 0.0 if _is_infinite(a) else -1.0 / (a - x0)
    bp = 0.0 if _is_infinite(b) else -1.0 / (b - x0)
    hline = 1.0 / ball.size
    c, r = 0.5 * (ap + bp), 0.5 * abs(bp - ap)
    s = math.sqrt(r * r - hline * hline)
    first, second = (c - s, c + s) if ap < bp else (c + s, c - s)

    def back(xc):
        w = complex(xc, hline)
        zz = x0 - 1.0 / w
        return HPoint(zz.real, zz.imag)

    return back(first), back(second)


@dataclass(frozen=True)
class Interval:
    """Closed interval of finite boundary points."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("interval needs lo <= hi")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def shadow(ball: Horoball, viewpoint: HPoint) -> Interval:
    """Interval of boundary endpoints whose geodesic ray from ``viewpoint``
    meets the horoball.

    The viewpoint must not lie inside the open ball (tangency is allowed; the
    shadow is then still well defined).  Shadows that wrap around infinity
    (viewpoint straight below a finite ball, or a ball based at infinity) are
    not representable as a finite interval and raise ValueError.
    """
    if _is_infinite(ball.base):
        raise ValueError("the shadow of the horoball at infinity wraps around infinity")
    x0 = ball.base
    w = -1.0 / complex(viewpoint.x - x0, viewpoint.y)
    a, bimag = w.real, w.imag
    inv_d = 1.0 / ball.size
    if bimag > inv_d * (1.0 + 1e-12):
        raise ValueError("viewpoint lies inside the horoball")
    s = math.sqrt(max(inv_d * inv_d - bimag * bimag, 0.0))
    xi_hi = a + s + inv_d
    xi_lo = a - s - inv_d
    if xi_hi <= 0.0 or xi_lo >= 0.0:
        raise ValueError("shadow wraps around infinity; not representable as an interval")
    e1 = x0 - 1.0 / xi_hi
    e2 = x0 - 1.0 / xi_lo
    return Interval(min(e1, e2), max(e1, e2))


def mobius_apply_horoball(m: MoebiusMap, ball: Horoball) -> Horoball:
    """Image of a horoball under a Moebius map (horoballs map to horoballs)."""
    base2 = mobius_apply(m, ball.base)
    # One point on the boundary circle/line, chosen away from the pole.
    if _is_infinite(ball.base):
        candidates = [complex(t, ball.size) for t in (0.0, 1.0, 2.0)]
    else:
        candidates = [complex(ball.base, ball.size)]
    pt = max(candidates, key=lambda zz: abs(m.c * zz + m.d))
    img = (m.a * pt + m.b) / (m.c * pt + m.d)
    if _is_infinite(base2):
        return Horoball(INFINITY, img.imag)
    dx = img.real - base2
    return Horoball(base2, (dx * dx + img.imag * img.imag) / img.imag)
