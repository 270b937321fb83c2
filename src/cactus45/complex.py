"""Finite balls of the Cayley graph and 2-complex of an involutive
presentation, with local {4,5}-structure checks.

Vertices are canonical words, edges connect v to canonical(v·s) with
the involution bigon collapsed to one unoriented edge, and faces are
the quadrilateral cells traced by the length-4 relators.  A vertex is
interior when every relator trace from it stays inside the ball, i.e.
all of its faces are present.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from .rewrite import sphere, system_for
from .words import Presentation, Word, shortlex_key


class PartialLinkError(ValueError):
    """Raised when a link is requested at a non-interior vertex."""


class Face(NamedTuple):
    """Quadrilateral cell; boundary starts at the shortlex-least corner
    and proceeds toward its shortlex-least neighbor on the cell."""

    boundary: Tuple[Word, Word, Word, Word]

    @property
    def vertex_set(self) -> FrozenSet[Word]:
        return frozenset(self.boundary)

    @classmethod
    def from_cycle(cls, cycle: List[Word]) -> "Face":
        i = min(range(4), key=lambda k: shortlex_key(cycle[k]))
        rot = cycle[i:] + cycle[:i]
        if shortlex_key(rot[3]) < shortlex_key(rot[1]):
            rot = [rot[0], rot[3], rot[2], rot[1]]
        return cls(tuple(rot))


class TilingReport(NamedTuple):
    ok: bool
    vertex_count: int
    edge_count: int
    face_count: int
    interior_count: int
    failures: Tuple[str, ...]


class CayleyBall:
    def __init__(
        self,
        presentation: Presentation,
        radius: int,
        vertices: Dict[Word, int],
        neighbor: Dict[Word, Dict[str, Word]],
        edges: Tuple[Tuple[Word, Word, str], ...],
        faces: Tuple[Face, ...],
        interior: FrozenSet[Word],
    ):
        self.presentation = presentation
        self.radius = radius
        self.vertices = vertices
        self.neighbor = neighbor
        self.edges = edges
        self.faces = faces
        self.interior = interior
        self._identity = Word._from_codes(presentation.alphabet, ())
        self._faces_at: Dict[Word, List[Face]] = {}
        for f in faces:
            for v in f.boundary:
                self._faces_at.setdefault(v, []).append(f)

    def faces_at(self, v: Word) -> List[Face]:
        return self._faces_at.get(v, [])

    def degree(self, v: Word) -> int:
        return len(self.neighbor[v])

    def is_interior(self, v: Word) -> bool:
        return v in self.interior

    def identity(self) -> Word:
        return self._identity

    def restricted(self, r: int) -> "CayleyBall":
        """The ball of radius r, 1 <= r <= radius, read off this one; it
        equals `build_ball(presentation, r)`.  A vertex is interior there
        when it is interior here and every face at it lies within r."""
        if not 1 <= r <= self.radius:
            raise ValueError(f"radius {r} is outside 1..{self.radius}")
        dist = self.vertices
        vertices = {v: d for v, d in dist.items() if d <= r}
        neighbor = {
            v: {g: u for g, u in self.neighbor[v].items() if dist[u] <= r}
            for v in vertices
        }

        def within(f: Face) -> bool:
            return max(dist[v] for v in f.boundary) <= r

        return CayleyBall(
            self.presentation,
            r,
            vertices,
            neighbor,
            tuple(e for e in self.edges if max(dist[e[0]], dist[e[1]]) <= r),
            tuple(f for f in self.faces if within(f)),
            frozenset(
                v for v in self.interior
                if dist[v] <= r and all(within(f) for f in self.faces_at(v))
            ),
        )


def build_ball(P: Presentation, radius: int) -> CayleyBall:
    """Ball of the given radius around the identity, kept by the engine
    `system_for(P)` and dropped with it; a radius below the largest kept
    is read off that ball.  A CayleyBall is never mutated."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    sys = system_for(P)
    largest = max(sys.balls, default=0)
    if radius > largest:
        sys.balls[radius] = _construct(P, sys, radius)
    elif radius not in sys.balls:
        sys.balls[radius] = sys.balls[largest].restricted(radius)
    return sys.balls[radius]


def _construct(P: Presentation, sys, radius: int) -> CayleyBall:
    vertices: Dict[Word, int] = {}
    words: Dict[Tuple[int, ...], Word] = {}
    for L in range(radius + 1):
        for v in sphere(P, L):
            vertices[v] = L
            words[v.codes] = v

    neighbor: Dict[Word, Dict[str, Word]] = {}
    edge_set = set()
    names = P.alphabet.names()
    for v in vertices:
        nbrs: Dict[str, Word] = {}
        for g in range(sys.n):
            wc = words.get(sys.normal_form(v.codes + (g,), start=len(v)))
            if wc is not None:
                nbrs[names[g]] = wc
                a, b = sorted((v, wc), key=shortlex_key)
                edge_set.add((a, b, names[g]))
        neighbor[v] = nbrs

    # with an engine, every relator form is a square's rotation; the
    # reversed rotations trace the same cells
    squares = dict.fromkeys(P.forms)
    faces_by_set: Dict[FrozenSet[Word], Face] = {}
    interior = set()
    for v in vertices:
        tv = v.codes
        all_inside = True
        for rot in squares:
            cycle_t = [tv]
            inside = True
            cur = tv
            for g in rot:
                cur = sys.normal_form(cur + (g,), start=len(cur))
                if cur not in words:
                    inside = False
                    break
                cycle_t.append(cur)
            if not inside:
                all_inside = False
                continue
            if cycle_t[4] != tv:
                raise AssertionError(f"relator trace failed to close at {v}")
            cycle = [words[t] for t in cycle_t[:4]]
            if len(set(cycle)) == 4:
                f = Face.from_cycle(cycle)
                faces_by_set.setdefault(f.vertex_set, f)
        if all_inside:
            interior.add(v)

    faces = tuple(
        sorted(faces_by_set.values(), key=lambda f: [shortlex_key(x) for x in f.boundary])
    )
    edges = tuple(
        sorted(edge_set, key=lambda e: (shortlex_key(e[0]), shortlex_key(e[1]), e[2]))
    )
    return CayleyBall(P, radius, vertices, neighbor, edges, faces, frozenset(interior))


def vertex_link(ball: CayleyBall, v: Word) -> List[Word]:
    """Neighbors of v in the cyclic order induced by shared faces.

    Starts at the shortlex-least neighbor and proceeds toward the
    lesser of its two link-neighbors; errors on boundary vertices,
    whose stars are truncated.
    """
    if not ball.is_interior(v):
        raise PartialLinkError(f"vertex {v} is not interior; its link is partial")
    link_adj: Dict[Word, List[Word]] = {}
    for f in ball.faces_at(v):
        cyc = f.boundary
        i = cyc.index(v)
        a, b = cyc[(i - 1) % 4], cyc[(i + 1) % 4]
        link_adj.setdefault(a, []).append(b)
        link_adj.setdefault(b, []).append(a)
    neighbors = sorted(ball.neighbor[v].values(), key=shortlex_key)
    if sorted(link_adj, key=shortlex_key) != neighbors:
        raise PartialLinkError(f"link of {v} does not cover its neighbors")
    start = neighbors[0]
    if len(link_adj[start]) != 2:
        raise PartialLinkError(f"link of {v} is not a cycle at {start}")
    order = [start, min(link_adj[start], key=shortlex_key)]
    while True:
        prev, cur = order[-2], order[-1]
        nxt = [x for x in link_adj[cur] if x != prev]
        if len(link_adj[cur]) != 2 or len(nxt) != 1:
            raise PartialLinkError(f"link of {v} is not a single cycle at {cur}")
        if nxt[0] == start:
            break
        order.append(nxt[0])
        if len(order) > len(neighbors):
            raise PartialLinkError(f"link walk at {v} exceeded vertex degree")
    if len(order) != len(neighbors):
        raise PartialLinkError(f"link of {v} splits into several cycles")
    return order


def check_tiling(ball: CayleyBall) -> TilingReport:
    """Local {4,5} structure on the interior: degree 5, five faces,
    pentagon link at every interior vertex; all faces combinatorial
    squares."""
    if ball.radius < 3:
        raise ValueError("tiling checks need a ball of radius >= 3")
    failures: List[str] = []
    for f in ball.faces:
        if len(f.vertex_set) != 4:
            failures.append(f"face {f.boundary} is not a combinatorial square")
    for v in sorted(ball.interior, key=shortlex_key):
        if ball.degree(v) != 5:
            failures.append(f"vertex {v}: degree {ball.degree(v)} != 5")
        n_faces = len(ball.faces_at(v))
        if n_faces != 5:
            failures.append(f"vertex {v}: {n_faces} faces != 5")
            continue
        try:
            link = vertex_link(ball, v)
        except PartialLinkError as exc:
            failures.append(f"vertex {v}: {exc}")
            continue
        if len(link) != 5:
            failures.append(f"vertex {v}: link length {len(link)} != 5")
    return TilingReport(
        ok=not failures,
        vertex_count=len(ball.vertices),
        edge_count=len(ball.edges),
        face_count=len(ball.faces),
        interior_count=len(ball.interior),
        failures=tuple(failures),
    )
