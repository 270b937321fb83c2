"""The slow tier: checks too costly for the tier-1 suite, run only by

    python -m pytest tests_slow

Here the shortlex walk's spheres are checked against the sink-and-sort
enumeration they replaced, level for level, up to the largest length
the CLI accepts, and `cactus45 sphere --length 12` is run as a child
process (`launcher.run_cli`) for each group, its report pinned by its
sha256 and its time and peak RSS bounded.  Times are for one run on a
2-core host with Python 3.11.
"""

import hashlib
import json

import pytest

from cactus45.cactus import j4_presentation, j4prime_presentation
from cactus45.rewrite import sphere

from launcher import run_cli
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


@pytest.mark.parametrize(
    "group, count, sha256, seconds, peak_mb",
    [
        # measured at 1.0-1.6 s and 87-89 MB peak RSS, before and after
        # the walk read the numbered automaton's rows
        ("j4p", 231_840, "43f065b0fda79034f036b26ea1372f2612e91d71b6ea84273a01001f6e7ab51d", 6, 110),
        # measured at 2.7-3.0 s and 130 MB peak RSS
        ("j4", 231_840 + 88_555, "06fcf48ffd20b60e96d02e6593fa184b3d9d7cb72c28aa309e55d8d597889402", 12, 160),
    ],
    ids=["j4p", "j4"],
)
def test_the_cli_writes_the_sphere_of_length_12_in_bounded_time_and_memory(
    group, count, sha256, seconds, peak_mb
):
    """The largest sphere the CLI accepts, as a JSON report of 13 to 18
    MB, byte for byte.  The bounds leave room for a slower or busier
    host; the peak is the levels of the breadth-first walk and the
    report, which a depth-first walk would shrink."""
    child = run_cli("sphere", "--group", group, "--length", "12")
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout)["results"]["count"] == count
    assert hashlib.sha256(child.stdout).hexdigest() == sha256
    assert child.seconds < seconds
    assert child.peak_mb < peak_mb
