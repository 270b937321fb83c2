"""The Dirichlet cell against the metric oracle out to distance ten.

    python -m pytest tests_slow/test_cell.py

`dirichlet._cell` keeps each vertex shortest in its class of S4 modulo
the full reversal.  Here the radius-4 cell is checked against every
orbit point of the pure subgroup within distance ten: the vertices of
length at most ten whose image in S4 is central, each one tested
against every ball vertex by rewriting.
"""

from cactus45.cactus import J4P, project_to_symmetric
from cactus45.complex import build_ball
from cactus45.dirichlet import _cell
from cactus45.rewrite import sphere

from voronoi_oracle import voronoi_keeps

_CENTRAL = {(1, 2, 3, 4), (4, 3, 2, 1)}


def test_the_radius_four_cell_against_orbit_points_to_distance_ten():
    """6,600 orbit points against 166 vertices.  About 3 s on a 2-core
    host with Python 3.11."""
    ball = build_ball(J4P, 4)
    sites = [
        v
        for L in range(1, 11)
        for v in sphere(J4P, L)
        if project_to_symmetric(v, 4).images in _CENTRAL
    ]
    assert len(sites) == 20 + 120 + 820 + 5640
    keep = _cell(ball)
    assert len(keep) == 31
    assert voronoi_keeps(ball, sites) == keep
