"""Poincaré-disk geometry: the regular {4,5} embedding of Cayley
balls, perpendicular bisectors, half-plane intersections, and SVG
rendering.

Double precision throughout; pointwise identities hold to 1e-9 and
propagated placements to 1e-6.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .complex import CayleyBall
from .words import Word

EMBED_TOL = 1e-6


def edge_length_45() -> float:
    """Side length of the regular hyperbolic square with all corner
    angles 2*pi/5 (five squares around each vertex)."""
    return math.acosh(1.0 / math.tan(math.pi / 5) ** 2)


_R = edge_length_45()


@dataclass(frozen=True)
class HPoint:
    x: float
    y: float

    def __post_init__(self):
        if self.x * self.x + self.y * self.y >= 1.0:
            raise ValueError(f"({self.x}, {self.y}) is not inside the unit disk")

    @classmethod
    def from_complex(cls, z: complex) -> "HPoint":
        return cls(z.real, z.imag)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def _z(p) -> complex:
    return p.z if isinstance(p, HPoint) else complex(p)


def hyp_distance(a, b) -> float:
    za, zb = _z(a), _z(b)
    return 2.0 * math.atanh(abs((zb - za) / (1.0 - za.conjugate() * zb)))


@dataclass(frozen=True)
class Mobius:
    """Orientation-preserving disk isometry z -> (a z + b)/(conj(b) z + conj(a))."""

    a: complex
    b: complex

    def __call__(self, z: complex) -> complex:
        return (self.a * z + self.b) / (
            self.b.conjugate() * z + self.a.conjugate()
        )

    def compose(self, other: "Mobius") -> "Mobius":
        # self after other
        return Mobius(
            self.a * other.a + self.b * other.b.conjugate(),
            self.a * other.b + self.b * other.a.conjugate(),
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.a.conjugate(), -self.b)

    @classmethod
    def translation(cls, c: complex) -> "Mobius":
        return cls(1.0, c)

    @classmethod
    def rotation(cls, theta: float) -> "Mobius":
        return cls(cmath.exp(0.5j * theta), 0.0)


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


# -- Klein model helpers -------------------------------------------------


def to_klein(z: complex) -> complex:
    return 2.0 * z / (1.0 + abs(z) ** 2)


def from_klein(k: complex) -> complex:
    return k / (1.0 + math.sqrt(max(0.0, 1.0 - abs(k) ** 2)))


@dataclass(frozen=True)
class HPolygon:
    """Compact hyperbolic polygon; vertices counterclockwise, side i
    running from vertices[i] to vertices[i+1] and tagged with the index
    of the half-plane site that produced it (None for seeds)."""

    vertices: Tuple[HPoint, ...]
    side_sites: Tuple[Optional[int], ...]

    @property
    def n_sides(self) -> int:
        return len(self.vertices)

    def side_lengths(self) -> List[float]:
        vs = self.vertices
        return [hyp_distance(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def interior_angles(self) -> List[float]:
        vs = [v.z for v in self.vertices]
        n = len(vs)
        out = []
        for i in range(n):
            U = Mobius.translation(vs[i]).inverse()
            a = U(vs[(i - 1) % n])
            b = U(vs[(i + 1) % n])
            out.append((cmath.phase(a) - cmath.phase(b)) % (2 * math.pi))
        return out

    def angle_sum(self) -> float:
        return sum(self.interior_angles())

    def contains(self, p, tol: float = 1e-12) -> bool:
        k = to_klein(_z(p))
        ks = [to_klein(v.z) for v in self.vertices]
        n = len(ks)
        for i in range(n):
            d = ks[(i + 1) % n] - ks[i]
            if (d.conjugate() * (k - ks[i])).imag < -tol:
                return False
        return True


def halfplane_intersection(center, sites: Sequence) -> HPolygon:
    """Intersection of the closed half-planes of points at least as
    close to center as to each site, clipped in the Klein model where
    the boundaries are straight chords."""
    zc = _z(center)
    kc = to_klein(zc)
    verts = [complex(-2, -2), complex(2, -2), complex(2, 2), complex(-2, 2)]
    # tags[i] labels the edge arriving at verts[i] from verts[i-1]
    tags: List[Optional[int]] = [None, None, None, None]
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
        new_t: List[Optional[int]] = []
        m = len(verts)
        for i in range(m):
            A, B = verts[i], verts[(i + 1) % m]
            tAB = tags[(i + 1) % m]
            fA = nx * A.real + ny * A.imag - d
            fB = nx * B.real + ny * B.imag - d
            inA, inB = fA <= 1e-12, fB <= 1e-12
            if inA and inB:
                new_v.append(B)
                new_t.append(tAB)
            elif inA and not inB:
                I = A + (B - A) * (fA / (fA - fB))
                new_v.append(I)
                new_t.append(tAB)
            elif not inA and inB:
                I = A + (B - A) * (fA / (fA - fB))
                new_v.append(I)
                new_t.append(j)
                new_v.append(B)
                new_t.append(tAB)
        if len(new_v) < 3:
            raise ValueError("half-plane intersection is empty")
        verts, tags = new_v, new_t
    # drop zero-length edges left by corner hits
    keep_v: List[complex] = []
    keep_t: List[Optional[int]] = []
    m = len(verts)
    for i in range(m):
        if abs(verts[i] - verts[(i - 1) % m]) > 1e-9:
            keep_v.append(verts[i])
            keep_t.append(tags[i])
    for i, v in enumerate(keep_v):
        if abs(v) >= 1.0 - 1e-9:
            raise ValueError("half-plane intersection is unbounded")
    if any(t is None for t in keep_t):
        raise ValueError("half-plane intersection is unbounded")
    points = tuple(HPoint.from_complex(from_klein(v)) for v in keep_v)
    side_sites = tuple(keep_t[(i + 1) % len(keep_t)] for i in range(len(keep_t)))
    return HPolygon(points, side_sites)


# -- embedding the Cayley ball ------------------------------------------


def embed_ball(ball: CayleyBall, tol: float = EMBED_TOL) -> Dict[Word, HPoint]:
    """Isometric {4,5} placement: identity at the origin, the first
    generator edge along the positive x axis, neighbors spread
    counterclockwise at 2*pi/5 steps in alphabet order.

    Every edge is revisited from both endpoints, so any failure of the
    faces to close up beyond `tol` is detected and reported.
    """
    order = tuple(g.name for g in ball.presentation.alphabet)
    if len(order) != 5:
        raise ValueError("embedding requires the five-generator presentation")
    # generators whose edge symmetry is a reflection rather than a
    # half-turn; crossing such an edge mirrors the cyclic star order
    # (forced by requiring the quadrilateral relator orientations to
    # multiply to the identity)
    reflecting = {order[0], order[2], order[4]}
    t = math.tanh(_R / 2.0)
    e = ball.identity()
    pos: Dict[Word, complex] = {e: 0.0 + 0.0j}
    orient: Dict[Word, int] = {e: 1}
    angles: Dict[Word, Dict[str, float]] = {
        e: {name: 2 * math.pi * k / 5 for k, name in enumerate(order)}
    }
    queue = [e]
    while queue:
        u = queue.pop(0)
        zu = pos[u]
        T = Mobius.translation(zu)
        for s in order:
            v = ball.neighbor[u].get(s)
            if v is None:
                continue
            target = T(t * cmath.exp(1j * angles[u][s]))
            if v in pos:
                if abs(pos[v] - target) > tol:
                    culprits = [
                        f.boundary
                        for f in ball.faces_at(u)
                        if v in f.vertex_set
                    ]
                    raise ValueError(
                        f"embedding failed to close along edge ({u}, {s}) "
                        f"at faces {culprits}: deviation {abs(pos[v] - target):.3e}"
                    )
                continue
            pos[v] = target
            w = (zu - target) / (1.0 - target.conjugate() * zu)
            phi = cmath.phase(w)
            orient[v] = -orient[u] if s in reflecting else orient[u]
            local = order if orient[v] > 0 else tuple(reversed(order))
            idx = local.index(s)
            angles[v] = {
                local[(idx + k) % 5]: phi + 2 * math.pi * k / 5 for k in range(5)
            }
            queue.append(v)
    return {v: HPoint.from_complex(z) for v, z in pos.items()}


# -- SVG rendering -------------------------------------------------------


def _svg_xy(z: complex) -> Tuple[float, float]:
    return (z.real + 1.0) * 500.0, (1.0 - z.imag) * 500.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _segment_path(p: complex, q: complex) -> str:
    x1, y1 = _svg_xy(p)
    x2, y2 = _svg_xy(q)
    det = p.real * q.imag - p.imag * q.real
    if abs(det) < 1e-9:
        return (
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    # circle through p, q orthogonal to the unit circle
    bp = (1.0 + abs(p) ** 2) / 2.0
    bq = (1.0 + abs(q) ** 2) / 2.0
    cx = (bp * q.imag - bq * p.imag) / det
    cy = (bq * p.real - bp * q.real) / det
    c = complex(cx, cy)
    r = abs(p - c) * 500.0
    cross = ((q - p).conjugate() * (c - p)).imag
    sweep = 1 if cross > 0 else 0
    return (
        f'<path d="M {_fmt(x1)} {_fmt(y1)} '
        f'A {_fmt(r)} {_fmt(r)} 0 0 {sweep} {_fmt(x2)} {_fmt(y2)}" fill="none"/>'
    )


def render_svg(layers: Sequence[dict], size: int = 1000) -> str:
    """Deterministic SVG of the unit disk with point, segment, polygon,
    and label layers drawn in input order."""
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 1000 1000">',
        '<circle cx="500" cy="500" r="499" fill="white" stroke="black" '
        'stroke-width="1"/>',
    ]
    for layer in layers:
        kind = layer["kind"]
        color = layer.get("color", "black")
        if kind == "points":
            out.append(f'<g fill="{color}">')
            for entry in layer["points"]:
                p, label = entry if isinstance(entry, tuple) else (entry, None)
                x, y = _svg_xy(_z(p))
                rad = layer.get("radius", 3)
                out.append(
                    f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{rad}"/>'
                )
                if label is not None:
                    out.append(
                        f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}" '
                        f'font-size="11">{label}</text>'
                    )
            out.append("</g>")
        elif kind == "segments":
            width = layer.get("width", 1)
            out.append(
                f'<g stroke="{color}" stroke-width="{width}" fill="none">'
            )
            for p, q in layer["segments"]:
                out.append(_segment_path(_z(p), _z(q)))
            out.append("</g>")
        elif kind == "polygon":
            poly: HPolygon = layer["polygon"]
            side_colors = layer.get("side_colors")
            n = poly.n_sides
            for i in range(n):
                p = poly.vertices[i].z
                q = poly.vertices[(i + 1) % n].z
                col = side_colors[i] if side_colors else color
                width = layer.get("width", 2)
                out.append(
                    f'<g stroke="{col}" stroke-width="{width}" fill="none">'
                    + _segment_path(p, q)
                    + "</g>"
                )
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    out.append("</svg>")
    return "\n".join(out)
