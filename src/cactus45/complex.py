"""Finite balls of the Cayley graph and 2-complex of an involutive
presentation, with local {4,5}-structure checks.

Vertices are canonical words, edges connect v to canonical(v·s) with
the involution bigon collapsed to one unoriented edge, and faces are
the quadrilateral cells traced by the length-4 relators.  A vertex is
interior when every relator trace from it stays inside the ball, i.e.
all of its faces are present.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Tuple

from .rewrite import system_for
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
    """A ball of the Cayley complex: `vertices` maps each vertex to its
    distance from the identity and lists them in shortlex order, sphere
    by sphere, the order in which they were built."""

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


def build_ball(P: Presentation, radius: int) -> CayleyBall:
    """Ball of the given radius around the identity, built once and kept
    on P, with which it dies.  A CayleyBall is never mutated."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    return P.derived(_construct, radius)


def _construct(P: Presentation, radius: int) -> CayleyBall:
    sys = system_for(P)
    vertices: Dict[Word, int] = {}
    words: Dict[Tuple[int, ...], Word] = {}
    # the spheres S_0 .. S_radius off the engine, each in shortlex
    # order, so a vertex's place in `vertices` is its rank
    for L, level in enumerate(islice(sys.spheres(), radius + 1)):
        for t in level:
            words[t] = v = Word._from_codes(P.alphabet, t)
            vertices[v] = L
    rank = {v: i for i, v in enumerate(vertices)}
    neighbor, edges = _neighbors(P, sys, vertices, words, radius)

    # edges and faces are built once each, but every relator form is a
    # rotation of a square or of its reverse: each square is still traced
    # from every corner both ways
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
            corners = frozenset(cycle)
            if len(corners) == 4 and corners not in faces_by_set:
                faces_by_set[corners] = Face.from_cycle(cycle)
        if all_inside:
            interior.add(v)

    faces = tuple(sorted(faces_by_set.values(), key=lambda f: [rank[x] for x in f.boundary]))
    edges.sort(key=lambda e: (rank[e[0]], rank[e[1]]))
    return CayleyBall(P, radius, vertices, neighbor, tuple(edges), faces, frozenset(interior))


def _neighbors(P, sys, vertices, words, radius):
    """Each vertex's neighbours, in letter order, and each edge once,
    from its shorter end: the letters are involutions and every relator
    has even length, so an edge joins two consecutive spheres.  A right
    descent's edge was met from its shorter end, which recorded it in
    `down`; on the last sphere every other letter leaves the ball.
    Normal forms are closed under prefixes, so v·g, spelled v then g,
    is a tree edge exactly when that spelling is a vertex; only the
    other letters, the non-tree edges, go to the engine."""
    names = P.alphabet.names()
    neighbor: Dict[Word, Dict[str, Word]] = {}
    edges: List[Tuple[Word, Word, str]] = []
    down: Dict[Word, Dict[int, Word]] = {}  # v: {g: v·g} for v·g shorter
    for v, L in vertices.items():
        t, below, nbrs = v.codes, down.pop(v, {}), {}
        for g in range(sys.n):
            if g in below:
                u = below[g]
            elif L == radius:
                continue
            else:
                u = words.get(t + (g,))
                if u is None:
                    u = words.get(sys.normal_form(t + (g,), start=L))
                    if u is None:
                        continue
            nbrs[names[g]] = u
            if vertices[u] > L:
                edges.append((v, u, names[g]))
                down.setdefault(u, {})[g] = v
        neighbor[v] = nbrs
    return neighbor, edges


def vertex_link(ball: CayleyBall, v: Word) -> List[Word]:
    """Neighbors of v in the cyclic order induced by shared faces.

    Starts at the shortlex-least neighbor and proceeds toward the
    lesser of its two link-neighbors; errors on boundary vertices,
    whose stars are truncated.
    """
    if not ball.is_interior(v):
        raise PartialLinkError(f"vertex {v} is not interior; its link is partial")
    link = []
    for f in ball.faces_at(v):
        i = f.boundary.index(v)
        link.append((f.boundary[i - 1], f.boundary[(i + 1) % 4]))
    neighbors = sorted(ball.neighbor[v].values(), key=shortlex_key)
    if sorted({x for pair in link for x in pair}, key=shortlex_key) != neighbors:
        raise PartialLinkError(f"link of {v} does not cover its neighbors")
    try:
        return _cycle(link)
    except ValueError as exc:
        raise PartialLinkError(f"link of {v} {exc}") from None


def _cycle(edges: Iterable[Tuple[Word, Word]]) -> List[Word]:
    """The vertices of the graph with these edges as one cycle, from the
    shortlex-least vertex toward the lesser of its two neighbors;
    ValueError unless the graph is a single cycle."""
    adj: Dict[Word, List[Word]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for x, nbrs in adj.items():
        if len(nbrs) != 2 or nbrs[0] == nbrs[1]:
            raise ValueError(f"is not a cycle at {x}")
    start = min(adj, key=shortlex_key)
    order = [start, min(adj[start], key=shortlex_key)]
    while True:
        prev, cur = order[-2], order[-1]
        nxt = adj[cur][0] if adj[cur][1] == prev else adj[cur][1]
        if nxt == start:
            break
        order.append(nxt)
    if len(order) != len(adj):
        raise ValueError("splits into several cycles")
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
    for v in ball.vertices:  # in shortlex order
        if v not in ball.interior:
            continue
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
