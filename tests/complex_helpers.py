"""Negative-control helpers for Cayley balls: damaged copies that the
structure checks must reject, and balls built afresh and counted."""

from __future__ import annotations

from typing import List

from cactus45.complex import CayleyBall, Face


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
