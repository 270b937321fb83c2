"""Negative-control helpers for Cayley balls: damaged copies that the
structure checks must reject."""

from __future__ import annotations

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
