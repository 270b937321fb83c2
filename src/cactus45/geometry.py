"""Poincaré-disk geometry: the regular {4,5} embedding of Cayley
balls, compact polygons, and SVG rendering.  The registry's float
cross-checks and the drawing read it; the fundamental domain does not.

Double precision throughout; pointwise identities hold to 1e-9 and
propagated placements to 1e-6.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .complex import CayleyBall
from .words import Record, Word

EMBED_TOL = 1e-6


def edge_length_45() -> float:
    """Side length of the regular hyperbolic square with all corner
    angles 2*pi/5 (five squares around each vertex)."""
    return math.acosh(1.0 / math.tan(math.pi / 5) ** 2)


_R = edge_length_45()


class HPoint(Record):
    """A point of the open unit disk.  Not a tuple: `render_svg` reads a
    tuple entry as a (point, label) pair."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        # written so that a NaN coordinate fails it too
        if not x * x + y * y < 1.0:
            raise ValueError(f"({x}, {y}) is not inside the unit disk")
        super().__init__(x, y)

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


class Mobius(NamedTuple):
    """Orientation-preserving disk isometry z -> (a z + b)/(conj(b) z + conj(a))."""

    a: complex
    b: complex

    def __call__(self, z: complex) -> complex:
        return (self.a * z + self.b) / (
            self.b.conjugate() * z + self.a.conjugate()
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.a.conjugate(), -self.b)

    @classmethod
    def translation(cls, c: complex) -> "Mobius":
        return cls(1.0, c)


# -- Klein model helpers -------------------------------------------------


def to_klein(z: complex) -> complex:
    return 2.0 * z / (1.0 + abs(z) ** 2)


class HPolygon(NamedTuple):
    """Compact hyperbolic polygon; vertices counterclockwise, side i
    running from vertices[i] to vertices[i+1]."""

    vertices: Tuple[HPoint, ...]

    @property
    def n_sides(self) -> int:
        return len(self.vertices)

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

    def contains(self, p, tol: float = 1e-12) -> bool:
        k = to_klein(_z(p))
        ks = [to_klein(v.z) for v in self.vertices]
        n = len(ks)
        for i in range(n):
            d = ks[(i + 1) % n] - ks[i]
            if (d.conjugate() * (k - ks[i])).imag < -tol:
                return False
        return True


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
