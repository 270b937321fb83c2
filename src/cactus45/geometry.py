"""Poincaré-disk geometry: the regular {4,5} embedding of Cayley
balls, compact polygons, and SVG rendering.  The registry's float
cross-checks and the drawing read it; the fundamental domain does not.
Double precision throughout; pointwise identities hold to 1e-9.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .cactus import J4P
from .complex import CayleyBall
from .words import Record, Word


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

# the generators whose edge symmetry is the reflection in the edge's
# perpendicular bisector, not the half-turn about its midpoint: of the
# 32 choices, the one that makes every J4' relator compose to the identity
_REFLECTING = frozenset({"s12", "s23", "s34"})


def _compose(f, g):
    """The isometry z -> f(g(z)); (m, flip) is z -> m(conj(z) if flip else z)."""
    (m, flip), (n, flop) = f, g
    if flip:  # conj(n(w)) is n with conjugated coefficients at conj(w)
        n = Mobius(n.a.conjugate(), n.b.conjugate())
    a, b = m.a * n.a + m.b * n.b.conjugate(), m.a * n.b + m.b * n.a.conjugate()
    return Mobius(a, b), flip != flop


def _edge_symmetries(names: Sequence[str]):
    """The k-th name's isometry swapping 0 with its neighbour t*exp(2*pi*i*k/5)."""
    t = math.tanh(_R / 2.0)
    out = []
    for k, name in enumerate(names):
        u = cmath.exp(2j * math.pi * k / 5)
        flip = name in _REFLECTING
        out.append((Mobius(-1j * u, 1j * t) if flip else Mobius(-1j, 1j * t * u), flip))
    return out


def embed_ball(ball: CayleyBall) -> Dict[Word, HPoint]:
    """Isometric {4,5} placement: identity at the origin, the first
    generator edge along the positive x axis, neighbors spread
    counterclockwise at 2*pi/5 steps in alphabet order.  A vertex's
    isometry is its parent's (its normal form less the last letter)
    after that letter's edge symmetry, and the vertex is its image of 0."""
    alphabet = ball.presentation.alphabet
    if alphabet is not J4P.alphabet and alphabet != J4P.alphabet:
        raise ValueError("embedding requires the J4' presentation")
    edge = _edge_symmetries(J4P.alphabet.names())
    iso = {(): (Mobius(1.0, 0j), False)}
    for v in ball.vertices:
        if v.codes:
            iso[v.codes] = _compose(iso[v.codes[:-1]], edge[v.codes[-1]])
    return {v: HPoint.from_complex(iso[v.codes][0](0j)) for v in ball.vertices}


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


def render_svg(layers: Sequence[dict]) -> str:
    """Deterministic 1000-pixel SVG of the unit disk with point, segment
    and polygon layers drawn in input order."""
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" '
        'height="1000" viewBox="0 0 1000 1000">',
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
                out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3"/>')
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
            side_colors = layer["side_colors"]
            n = poly.n_sides
            for i in range(n):
                p = poly.vertices[i].z
                q = poly.vertices[(i + 1) % n].z
                out.append(
                    f'<g stroke="{side_colors[i]}" stroke-width="2" fill="none">'
                    + _segment_path(p, q)
                    + "</g>"
                )
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    out.append("</svg>")
    return "\n".join(out)
