"""Reference oracle for the half-plane Dirichlet construction: the
metric Dirichlet cell as an intersection of hyperbolic half-planes,
and the float measurements of disk isometries and polygons that only
the tests take.

The package builds its fundamental polygon combinatorially (a
word-metric Voronoi cell adapted to the square cells, in
`cactus45.dirichlet`); nothing in it clips half-planes.  The tests use
this code to compute the metric Dirichlet 10-gon around a vertex and
check its covolume 6*pi against the package's embedding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from cactus45.geometry import HPoint, HPolygon, Mobius, _z, hyp_distance, to_klein


def mobius_compose(m: Mobius, other: Mobius) -> Mobius:
    """m after other."""
    return Mobius(
        m.a * other.a + m.b * other.b.conjugate(),
        m.a * other.b + m.b * other.a.conjugate(),
    )


def mobius_rotation(theta: float) -> Mobius:
    """The rotation of the disk by theta about the origin."""
    return Mobius(cmath.exp(0.5j * theta), 0.0)


def side_lengths(poly: HPolygon) -> List[float]:
    vs = poly.vertices
    return [hyp_distance(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def angle_sum(poly: HPolygon) -> float:
    return sum(poly.interior_angles())


def hyp_midpoint(a, b) -> HPoint:
    za, zb = _z(a), _z(b)
    w = (zb - za) / (1.0 - za.conjugate() * zb)
    if abs(w) < 1e-15:
        return HPoint.from_complex(za)
    m = math.tanh(math.atanh(abs(w)) / 2.0) * w / abs(w)
    return HPoint.from_complex(Mobius.translation(za)(m))


@dataclass(frozen=True)
class Geodesic:
    """Either a diameter (unit direction) or a circular arc orthogonal
    to the unit circle (center with |center| > 1)."""

    center: Optional[complex]
    radius: float
    direction: Optional[complex]

    @classmethod
    def diameter(cls, d: complex) -> "Geodesic":
        d = d / abs(d)
        if d.imag < 0 or (d.imag == 0 and d.real < 0):
            d = -d
        return cls(None, 0.0, d)

    @classmethod
    def arc(cls, center: complex) -> "Geodesic":
        m2 = abs(center) ** 2
        if m2 <= 1.0:
            raise ValueError("arc center must lie outside the closed unit disk")
        return cls(center, math.sqrt(m2 - 1.0), None)

    @classmethod
    def through_ideal(cls, p: complex, q: complex) -> "Geodesic":
        det = p.real * q.imag - p.imag * q.real
        if abs(det) < 1e-12:
            return cls.diameter(p)
        cx = (q.imag - p.imag) / det
        cy = (p.real - q.real) / det
        return cls.arc(complex(cx, cy))

    @property
    def is_diameter(self) -> bool:
        return self.center is None

    def ideal_endpoints(self) -> Tuple[complex, complex]:
        if self.is_diameter:
            return self.direction, -self.direction
        alpha = cmath.phase(self.center)
        phi = math.acos(1.0 / abs(self.center))
        return cmath.exp(1j * (alpha - phi)), cmath.exp(1j * (alpha + phi))

    def points(self, n: int, margin: float = 0.95) -> List[HPoint]:
        """n sample points strictly inside the disk."""
        out = []
        if self.is_diameter:
            for k in range(n):
                s = margin * (2.0 * k / (n - 1) - 1.0) if n > 1 else 0.0
                out.append(HPoint.from_complex(s * self.direction))
            return out
        e_minus, e_plus = self.ideal_endpoints()
        mid_angle = cmath.phase(-self.center)
        w_minus = _wrap(cmath.phase(e_minus - self.center) - mid_angle)
        w_plus = _wrap(cmath.phase(e_plus - self.center) - mid_angle)
        for k in range(n):
            u = 2.0 * k / (n - 1) - 1.0 if n > 1 else 0.0
            psi = mid_angle + margin * (w_minus + (w_plus - w_minus) * (u + 1) / 2)
            out.append(
                HPoint.from_complex(self.center + self.radius * cmath.exp(1j * psi))
            )
        return out

    def side(self, p) -> float:
        """Signed pseudo-distance; zero on the geodesic."""
        zp = _z(p)
        if self.is_diameter:
            return (self.direction.conjugate() * zp).imag
        return abs(zp - self.center) - self.radius


def _wrap(a: float) -> float:
    while a > math.pi:
        a -= 2 * math.pi
    while a <= -math.pi:
        a += 2 * math.pi
    return a


def perpendicular_bisector(a, b) -> Geodesic:
    za, zb = _z(a), _z(b)
    if abs(za - zb) < 1e-12:
        raise ValueError("perpendicular bisector needs two distinct points")
    T = Mobius.translation(za)
    w = T.inverse()(zb)
    s = math.tanh(math.atanh(abs(w)) / 2.0)
    u = w / abs(w)
    center = u * (1.0 + s * s) / (2.0 * s)
    e1, e2 = Geodesic.arc(center).ideal_endpoints()
    p, q = T(e1), T(e2)
    p, q = p / abs(p), q / abs(q)  # renormalize against rounding
    return Geodesic.through_ideal(p, q)


def from_klein(k: complex) -> complex:
    return k / (1.0 + math.sqrt(max(0.0, 1.0 - abs(k) ** 2)))


def halfplane_intersection(center, sites: Sequence) -> HPolygon:
    """Intersection of the closed half-planes of points at least as
    close to center as to each site, clipped in the Klein model where
    the boundaries are straight chords."""
    zc = _z(center)
    kc = to_klein(zc)
    # a box outside the disk; a corner left on it marks an unbounded cell
    verts = [complex(-2, -2), complex(2, -2), complex(2, 2), complex(-2, 2)]
    for j, site in enumerate(sites):
        zs = _z(site)
        if abs(zs - zc) < 1e-12:
            raise ValueError(f"site {j} coincides with the center")
        p, q = perpendicular_bisector(zc, zs).ideal_endpoints()
        # chord through the same ideal points; keep the center's side
        nx, ny = q.imag - p.imag, p.real - q.real
        d = nx * p.real + ny * p.imag
        if nx * kc.real + ny * kc.imag > d:
            nx, ny, d = -nx, -ny, -d
        new_v: List[complex] = []
        m = len(verts)
        for i in range(m):
            A, B = verts[i], verts[(i + 1) % m]
            fA = nx * A.real + ny * A.imag - d
            fB = nx * B.real + ny * B.imag - d
            inA, inB = fA <= 1e-12, fB <= 1e-12
            if inA != inB:
                new_v.append(A + (B - A) * (fA / (fA - fB)))
            if inB:
                new_v.append(B)
        if len(new_v) < 3:
            raise ValueError("half-plane intersection is empty")
        verts = new_v
    # drop zero-length edges left by corner hits
    m = len(verts)
    keep_v = [v for i, v in enumerate(verts) if abs(v - verts[(i - 1) % m]) > 1e-9]
    if any(abs(v) >= 1.0 - 1e-9 for v in keep_v):
        raise ValueError("half-plane intersection is unbounded")
    return HPolygon(tuple(HPoint.from_complex(from_klein(v)) for v in keep_v))
