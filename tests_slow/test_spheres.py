"""The slow tier: checks too costly for the tier-1 suite, run only by

    python -m pytest tests_slow

Here the shortlex walk's spheres are checked against the sink-and-sort
enumeration they replaced, level for level, up to the largest length
the CLI accepts.  Times are for one run on a 2-core host with
Python 3.11.
"""

from cactus45.cactus import j4_presentation, j4prime_presentation
from cactus45.rewrite import sphere

from rewrite_oracle import sink_and_sort_spheres


def _check(P, top):
    levels = sink_and_sort_spheres(P)
    for L in range(top + 1):
        assert [w.codes for w in sphere(P, L)] == next(levels), L


def test_j4prime_spheres_to_length_12():
    """S'_12 has 231,840 elements.  About 15 s."""
    _check(j4prime_presentation(), 12)
    assert len(sphere(j4prime_presentation(), 12)) == 231_840


def test_j4_spheres_to_length_10():
    """S_10 of J4 has |S'_10| + |S'_9| = 33,825 + 12,920 elements.
    About 8 s."""
    _check(j4_presentation(), 10)
    assert len(sphere(j4_presentation(), 10)) == 33_825 + 12_920
