"""Reference oracle for the word-metric Voronoi cell: every orbit site
tested against every ball vertex, with no pruning by length.

`cactus45.dirichlet._voronoi_keeps` tests a vertex v only against the
sites w with |w| < 2|v|, since the triangle inequality rules the rest
out, and only when v's parent is kept, since the cell is star-shaped.
This module keeps the plain all-sites test so the tests can check that
the pruned keep set is the same one.
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
