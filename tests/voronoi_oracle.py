"""Reference oracle for the word-metric Voronoi cell: every orbit site
tested against every ball vertex, by rewriting.

`cactus45.dirichlet._cell` keeps a vertex when it is shortest in its
class of S4 modulo the full reversal, which is its pure orbit, and
rewrites nothing.  This module keeps the plain metric test, so the
tests can check that the two cells are the same against any list of
orbit points.
"""

from __future__ import annotations

from typing import Sequence, Set

from cactus45.complex import CayleyBall
from cactus45.rewrite import system_for
from cactus45.words import Word


def site_distance(ball: CayleyBall, site: Word, vertex: Word) -> int:
    """Graph distance |site^-1 vertex|; the generators are involutions,
    so site^-1 is spelled by the reversed site."""
    engine = system_for(ball.presentation)
    return len(engine.geodesic(site.codes[::-1] + vertex.codes))


def voronoi_keeps(ball: CayleyBall, sites: Sequence[Word]) -> Set[Word]:
    """Vertices that no site is strictly closer to than the identity."""
    return {
        v
        for v in ball.vertices
        if all(site_distance(ball, w, v) >= len(v) for w in sites)
    }
