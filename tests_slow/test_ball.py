"""The Cayley ball at the CLI's radius limit.

    python -m pytest tests_slow/test_ball.py

The radius-8 ball of J4' is checked field by field against the ball
built the plain way (`complex_helpers.plain_ball`), and `cactus45
complex --radius 8` is run as a child process (`launcher.run_cli`) with
its time and peak RSS bounded.  Times are for one run on a 2-core host
with Python 3.11.
"""

import json

from cactus45.cactus import J4P
from cactus45.complex import _construct

from complex_helpers import plain_ball
from launcher import run_cli


def test_the_radius_eight_ball_equals_the_plain_ball():
    """7,981 vertices.  About 5 s, most of it the plain ball."""
    ball, plain = _construct(J4P, 8), plain_ball(J4P, 8)
    assert len(ball.vertices) == 7_981
    assert list(ball.vertices.items()) == list(plain.vertices.items())
    assert ball.neighbor == plain.neighbor
    assert ball.edges == plain.edges
    assert ball.faces == plain.faces
    assert ball.interior == plain.interior


def test_the_cli_builds_the_radius_eight_ball_in_bounded_time_and_memory():
    """Measured at 1.5-2.5 s and 24 MB peak RSS; the bounds leave room
    for a slower or busier host."""
    child = run_cli("complex", "--radius", "8")
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)["results"]
    assert results["tiling"] == {
        "failures": [], "interior_count": 1_161, "ok": True, "vertex_count": 7_981,
    }
    counts = [results[k] for k in ("vertex_count", "edge_count", "face_count", "interior_count")]
    assert counts == [7_981, 11_025, 3_045, 1_161]
    assert child.seconds < 15
    assert child.peak_mb < 40
