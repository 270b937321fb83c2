"""Helpers for Cayley balls: damaged copies that the structure checks
must reject, balls built afresh and counted, and a ball built the plain
way to compare `complex._construct` against."""

from __future__ import annotations

from typing import List

from cactus45.complex import CayleyBall, Face
from cactus45.rewrite import canonical_form
from cactus45.words import Presentation, Word

from rewrite_oracle import sink_and_sort_spheres
from words_oracle import shortlex_key


def without_face(ball: CayleyBall, face: Face) -> CayleyBall:
    """Copy of ball with one face removed; ValueError if it has no such
    face."""
    kept = tuple(f for f in ball.faces if f != face)
    if len(kept) == len(ball.faces):
        raise ValueError("face not present in ball")
    return CayleyBall(
        ball.presentation,
        ball.radius,
        ball.vertices,
        ball.neighbor,
        ball.edges,
        kept,
        ball.interior,
    )


def forget(monkeypatch, P, *builds) -> None:
    """Drop every value P keeps from one of builds, until the test ends
    and the monkeypatch puts each back: the next use builds it afresh."""
    for key in [k for k in P._memo if k[0] in builds]:
        monkeypatch.delitem(P._memo, key)


def radii_built(monkeypatch) -> List[int]:
    """The list to which each CayleyBall built from now on appends its
    radius; `complex._construct` builds every ball the package makes."""
    built: List[int] = []
    init = CayleyBall.__init__

    def counting(self, presentation, radius, *rest):
        built.append(radius)
        init(self, presentation, radius, *rest)

    monkeypatch.setattr(CayleyBall, "__init__", counting)
    return built


def plain_ball(P: Presentation, radius: int) -> CayleyBall:
    """The ball of P, whose letters are involutions, built without the
    sphere walk, the ranks or the relator forms of `complex._construct`:
    vertices off the sink-and-sort spheres; each neighbour the engine's
    normal form of v·g; each edge added from both ends and deduplicated;
    a face for every trace of a rotation of a square relator, or of its
    reverse, that stays inside, walked through the neighbours; and
    everything ordered by the oracle's shortlex key."""
    levels = sink_and_sort_spheres(P)
    found = {
        Word._from_codes(P.alphabet, t): L for L in range(radius + 1) for t in next(levels)
    }
    vertices = {v: found[v] for v in sorted(found, key=shortlex_key)}
    neighbor, edges = {}, set()
    for v in vertices:
        neighbor[v] = {}
        for g in P.alphabet.names():
            u = canonical_form(v * P.word(g), P)
            if u in vertices:
                neighbor[v][g] = u
                edges.add((*sorted((v, u), key=shortlex_key), g))
    squares = {
        spelling[i:] + spelling[:i]
        for r in P.relators
        if len(r) == 4
        for spelling in (tuple(n for n, _ in r.letters), tuple(n for n, _ in reversed(r.letters)))
        for i in range(4)
    }
    faces, interior = {}, set()
    for v in vertices:
        inside = True
        for square in squares:
            cycle = [v]
            for g in square:
                cycle.append(neighbor[cycle[-1]].get(g))
                if cycle[-1] is None:
                    inside = False
                    break
            else:
                assert cycle.pop() == v
                corners = frozenset(cycle)
                if len(corners) == 4:
                    i = cycle.index(min(cycle, key=shortlex_key))
                    turn = cycle[i:] + cycle[:i]
                    if shortlex_key(turn[3]) < shortlex_key(turn[1]):
                        turn = [turn[0], *reversed(turn[1:])]
                    faces[corners] = Face(tuple(turn))
        if inside:
            interior.add(v)
    return CayleyBall(
        P,
        radius,
        vertices,
        neighbor,
        tuple(sorted(edges, key=lambda e: (shortlex_key(e[0]), shortlex_key(e[1]), e[2]))),
        tuple(sorted(faces.values(), key=lambda f: [shortlex_key(x) for x in f.boundary])),
        frozenset(interior),
    )
