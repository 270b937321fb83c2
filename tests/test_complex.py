import gc
import sys
import weakref
from collections import Counter

import pytest

from cactus45 import (
    PartialLinkError,
    build_ball,
    canonical_form,
    check_tiling,
    j4_presentation,
    j4prime_presentation,
    vertex_link,
)
from cactus45 import complex as complex_module
from cactus45.complex import Face, _construct, _cycle
from cactus45.grouptheory import _dehn_rules, dehn_reduce
from cactus45.rewrite import system_for
from cactus45.words import Alphabet, Generator, Presentation, Word, shortlex_key

from complex_helpers import forget, plain_ball, radii_built, without_face
from fixtures import FACES_AT_E
from rewrite_oracle import PENTAGON

P = j4prime_presentation()
P4 = j4_presentation()


def w(text):
    return P.word(text)


@pytest.fixture(scope="module")
def ball2():
    return build_ball(P, 2)


@pytest.fixture(scope="module")
def ball3():
    return build_ball(P, 3)


def test_radius_validation():
    with pytest.raises(ValueError):
        build_ball(P, 0)


def test_radius_one_counts():
    b = build_ball(P, 1)
    assert len(b.vertices) == 6
    assert len(b.edges) == 5
    assert len(b.faces) == 0
    assert len(b.interior) == 0


def test_radius_two_counts(ball2):
    assert len(ball2.vertices) == 21
    assert len(ball2.edges) == 25


def test_vertex_distances(ball2):
    by_len = {}
    for v, d in ball2.vertices.items():
        assert len(v) == d
        by_len[d] = by_len.get(d, 0) + 1
    assert by_len == {0: 1, 1: 5, 2: 15}


def test_edges_realize_multiplication(ball2):
    for u, v, s in ball2.edges:
        assert canonical_form(u * w(s), P) == v
        assert canonical_form(v * w(s), P) == u
        assert (len(u) - len(v)) % 2 == 1


def test_edge_endpoint_ordering(ball2):
    for u, v, _ in ball2.edges:
        assert shortlex_key(u) < shortlex_key(v)


def test_faces_at_identity(ball2):
    e = ball2.identity()
    assert e is ball2.identity() and e == Word(P.alphabet, ())
    expected = {
        frozenset(canonical_form(w(x), P) for x in row) for row in FACES_AT_E
    }
    got = {f.vertex_set for f in ball2.faces_at(e)}
    assert got == expected
    # radius 2 contains no other complete face
    assert len(ball2.faces) == 5


def test_face_boundary_convention(ball2):
    for f in ball2.faces:
        corners = sorted(f.boundary, key=shortlex_key)
        assert f.boundary[0] == corners[0]
        assert shortlex_key(f.boundary[1]) < shortlex_key(f.boundary[3])
        assert len(f.vertex_set) == 4


def test_face_sides_are_edges(ball2):
    for f in ball2.faces:
        for i in range(4):
            a, b = f.boundary[i], f.boundary[(i + 1) % 4]
            assert b in ball2.neighbor[a].values()


def test_interior_radius_two(ball2):
    assert ball2.interior == {ball2.identity()}


def test_link_at_identity(ball2):
    e = ball2.identity()
    link = vertex_link(ball2, e)
    assert link == [w("s12"), w("s13"), w("s23"), w("s24"), w("s34")]


def test_link_requires_interior(ball2):
    with pytest.raises(PartialLinkError):
        vertex_link(ball2, w("s12"))


def test_radius_three_growth(ball3):
    by_len = {}
    for v, d in ball3.vertices.items():
        by_len[d] = by_len.get(d, 0) + 1
    assert by_len == {0: 1, 1: 5, 2: 15, 3: 40}


def test_radius_three_interior(ball3):
    # whole spheres 0 and 1 are interior; sphere 2 touches distance-4
    # face corners that fall outside
    assert {len(v) for v in ball3.interior} == {0, 1}
    assert len(ball3.interior) == 6


def test_tiling_report_ok(ball3):
    report = check_tiling(ball3)
    assert report.ok
    assert report.failures == ()
    assert report.vertex_count == 61
    assert report.interior_count == 6


def test_tiling_requires_radius_three(ball2):
    with pytest.raises(ValueError):
        check_tiling(ball2)


def test_interior_links_are_pentagons(ball3):
    for v in ball3.interior:
        assert ball3.degree(v) == 5
        assert len(ball3.faces_at(v)) == 5
        assert len(vertex_link(ball3, v)) == 5


def test_deleted_face_is_detected(ball3):
    victim = next(f for f in ball3.faces if ball3.identity() in f.vertex_set)
    damaged = without_face(ball3, victim)
    report = check_tiling(damaged)
    assert not report.ok
    flagged = {v for v in victim.vertex_set if damaged.is_interior(v)}
    for v in flagged:
        assert any(f"vertex {v}" in msg for msg in report.failures)


def test_without_face_requires_member(ball3, ball2):
    foreign = ball2.faces[0]
    stray = next(f for f in ball3.faces if f not in ball3.faces[:0])
    assert without_face(ball3, stray) is not ball3
    missing = type(foreign)(boundary=tuple(reversed(foreign.boundary)))
    with pytest.raises(ValueError):
        without_face(ball3, missing)


def test_radius_four_interior_count():
    b = build_ball(P, 4)
    assert len(b.vertices) == 166
    assert {len(v) for v in b.interior} == {0, 1, 2}
    assert len(b.interior) == 21
    report = check_tiling(b)
    assert report.ok
    assert report.interior_count == 21


def _cut(ball, r):
    """The ball's vertices, neighbours, edges, faces and interior within
    distance r of the identity.  A vertex is interior at radius r when it
    is interior in the ball and every face at it lies within r."""
    dist = ball.vertices

    def within(f):
        return max(dist[v] for v in f.boundary) <= r

    vertices = {v: d for v, d in dist.items() if d <= r}
    neighbor = {
        v: {g: u for g, u in ball.neighbor[v].items() if dist[u] <= r}
        for v in vertices
    }
    edges = tuple(e for e in ball.edges if max(dist[e[0]], dist[e[1]]) <= r)
    faces = tuple(f for f in ball.faces if within(f))
    interior = {
        v for v in ball.interior
        if dist[v] <= r and all(within(f) for f in ball.faces_at(v))
    }
    return vertices, neighbor, edges, faces, interior


def test_balls_nest():
    # a smaller ball is the larger one cut down by distance
    big = build_ball(P, 6)
    for r in range(1, 6):
        small = _construct(P, r)
        vertices, neighbor, edges, faces, interior = _cut(big, r)
        assert small.radius == r
        assert list(small.vertices.items()) == list(vertices.items())
        assert small.neighbor == neighbor
        assert small.edges == edges
        assert small.faces == faces
        assert small.interior == interior


def test_the_ball_equals_the_plain_ball():
    # sink-and-sort spheres, canonical neighbours, both-ended edges and
    # neighbour-walked squares, all ordered by the oracle's shortlex key,
    # for J4', for J4 on its split engine, and for the pentagon group
    for Q, counts in ((P, (225, 60, 21)), (P4, (366, 160, 27)), (PENTAGON, (225, 60, 21))):
        ball, plain = _construct(Q, 4), plain_ball(Q, 4)
        assert list(ball.vertices.items()) == list(plain.vertices.items())
        assert ball.neighbor == plain.neighbor
        assert ball.edges == plain.edges
        assert ball.faces == plain.faces
        assert ball.interior == plain.interior
        assert (len(ball.edges), len(ball.faces), len(ball.interior)) == counts


def _count_normal_forms(monkeypatch, Q, calls):
    """Count, in calls, each `normal_form` call of Q's engine, and apart
    those made inside `complex._neighbors`."""
    engine = type(system_for(Q))
    normal_form, neighbors, stepping = engine.normal_form, complex_module._neighbors, [False]

    def counted_normal_form(self, t, start=0):
        calls["normal_form"] += 1
        calls["normal_form in neighbors"] += stepping[0]
        return normal_form(self, t, start)

    def counted_neighbors(*args):
        stepping[0] = True
        try:
            return neighbors(*args)
        finally:
            stepping[0] = False

    monkeypatch.setattr(engine, "normal_form", counted_normal_form)
    monkeypatch.setattr(complex_module, "_neighbors", counted_neighbors)


def test_the_ball_builds_each_face_once_and_sorts_on_ranks(monkeypatch):
    # every square is still traced from each corner both ways, 3,730 of
    # the 3,790 normal forms, but each of the 60 faces is built once, and
    # nothing outside `Face.from_cycle` asks for a shortlex key: ranks
    # come off the spheres' order.  The neighbours read each tree edge
    # off the vertex table and each descent off its shorter end, so they
    # put only the 60 non-tree edges (225 edges less 165 tree edges) to
    # the engine, where reading every neighbour off it took 830 calls
    forget(monkeypatch, P, _construct)
    calls, building = Counter(), []
    from_cycle = Face.from_cycle.__func__

    def counted_from_cycle(cls, cycle):
        calls["from_cycle"] += 1
        building.append(cycle)
        try:
            return from_cycle(cls, cycle)
        finally:
            building.pop()

    def counted_key(v):
        if not building:
            calls["shortlex_key"] += 1
        return shortlex_key(v)

    monkeypatch.setattr(Face, "from_cycle", classmethod(counted_from_cycle))
    monkeypatch.setattr(complex_module, "shortlex_key", counted_key)
    _count_normal_forms(monkeypatch, P, calls)
    assert len(build_ball(P, 4).faces) == 60
    assert calls == {"from_cycle": 60, "normal_form": 3790, "normal_form in neighbors": 60}


def test_a_j4_ball_puts_only_its_non_tree_edges_to_the_engine(monkeypatch):
    # a tree edge is a vertex spelled v then g, on J4's split engine as
    # on J4', so the neighbours make 140 calls, 366 edges less 226 tree
    # edges, where sending every letter to the engine took 1,362; the
    # square traces make the other 10,120
    forget(monkeypatch, P4, _construct)
    calls = Counter()
    _count_normal_forms(monkeypatch, P4, calls)
    ball = build_ball(P4, 4)
    assert (len(ball.vertices), len(ball.edges)) == (227, 366)
    assert calls == {"normal_form": 10260, "normal_form in neighbors": 140}


def test_build_ball_keeps_each_radius_it_builds(monkeypatch):
    forget(monkeypatch, P, _construct)
    built = radii_built(monkeypatch)
    for r in (4, 2, 4, 2, 5):
        assert build_ball(P, r).radius == r
    assert built == [4, 2, 5]


def _square(a, b, c, d):
    return [(a, b), (b, c), (c, d), (d, a)]


def test_cycle_walks_from_the_least_vertex_toward_its_lesser_neighbour():
    a, b, c, d = (w(t) for t in ("s12", "s13", "s23", "s24"))
    assert _cycle(_square(d, b, a, c)) == [a, b, d, c]


@pytest.mark.parametrize(
    "edges, message",
    [
        # a path: its ends have one neighbour
        (_square(*map(w, ("s12", "s13", "s23", "s24")))[:3], "is not a cycle at s12"),
        # two disjoint triangles
        (
            [(w(x), w(y)) for x, y in (
                ("s12", "s13"), ("s13", "s23"), ("s23", "s12"),
                ("s24", "s34"), ("s34", "s12 s13"), ("s12 s13", "s24"),
            )],
            "splits into several cycles",
        ),
        # a doubled edge is no cycle
        ([(w("s12"), w("s13"))] * 2, "is not a cycle at s12"),
    ],
    ids=["path", "two-cycles", "digon"],
)
def test_cycle_rejects_a_graph_that_is_not_one_cycle(edges, message):
    with pytest.raises(ValueError) as exc:
        _cycle(edges)
    assert str(exc.value) == message


def test_a_link_that_is_not_one_cycle_is_a_partial_link(ball2):
    # without one of its faces the identity's link still covers its five
    # neighbours, but is a path whose ends are that face's corners next
    # to the identity
    e = ball2.identity()
    face = ball2.faces_at(e)[0]
    ends = {x for x in face.boundary if x in ball2.neighbor[e].values()}
    with pytest.raises(PartialLinkError) as exc:
        vertex_link(without_face(ball2, face), e)
    assert str(exc.value) in {f"link of {e} is not a cycle at {x}" for x in ends}


def test_derived_values_die_with_their_presentation():
    # a throwaway presentation keeps its engine, its ball and its Dehn
    # table, and nothing else holds them: they die with it
    alphabet = Alphabet([Generator("throwaway", involutive=True)])
    x = Word.parse(alphabet, "throwaway")
    Q = Presentation(alphabet, [x * x])
    assert canonical_form(x * x * x, Q) == x
    assert dehn_reduce(x * x, Q).is_identity()
    assert build_ball(Q, 1) is build_ball(Q, 1)
    engine, ball = weakref.ref(system_for(Q)), weakref.ref(build_ball(Q, 1))
    table = Q.derived(_dehn_rules)
    held = sys.getrefcount(table)
    del Q
    gc.collect()
    assert engine() is None and ball() is None
    # a tuple takes no weak reference: the memo's count is the one lost
    assert sys.getrefcount(table) == held - 1
