"""The metamorphic relations of `tests/test_metamorphic.py` on words of
up to 10,000 letters.

    python -m pytest tests_slow/test_long_relations.py

Same generators and relations as the tier-1 tests, with other pinned
seeds and longer words.  J4' pairs start from the normal form of a
random word of 20,000 to 25,000 letters, which has about 8,000 to
10,000 letters, and conjugate by a random word of up to 25,000 letters.
Surface and five-generator words grow from conjugates of the relator
until they pass a bound drawn from 9,500 to 9,950 letters.  Times are
for one run on a 2-core host with Python 3.11.
"""

from cactus45.grouptheory import word_problem_search
from cactus45.words import EQUAL, NONTRIVIAL, PROVEN_UNEQUAL, TRIVIAL

from test_metamorphic import (
    FIVE,
    SURF,
    _conjugation_breaks,
    _dehn_words,
    _inversion_breaks,
    _j4p_pairs,
    _mirror_breaks,
    _outcome,
    _shift_breaks,
)

_LONG = (9_500, 9_950)


def test_words_equal_keeps_its_status_on_long_words():
    """40 pairs under the mirror and conjugation.  4 to 5 s."""
    pairs = list(_j4p_pairs(2901, lengths=(20_000, 25_000)))
    lengths = [len(w1) for w1, _, _ in pairs]
    assert 7_500 < min(lengths) and max(lengths) <= 10_000
    assert [_outcome(w1, w2) for w1, w2, _ in pairs] == [EQUAL, PROVEN_UNEQUAL] * 20
    assert _mirror_breaks(pairs) == 0
    assert _conjugation_breaks(pairs) == 0


def test_word_problem_search_keeps_its_status_on_long_words():
    """40 surface words under the index shift and inversion, and 40
    five-generator words under inversion.  2 to 2.5 s."""
    for P, seed in ((SURF, 2902), (FIVE, 2903)):
        words = list(_dehn_words(P, seed, bounds=_LONG))
        assert _LONG[0] <= min(map(len, words)) <= max(map(len, words)) <= 10_000
        assert [word_problem_search(w, P).status for w in words] == [TRIVIAL, NONTRIVIAL] * 20
        assert _inversion_breaks(P, words) == 0
        if P is SURF:
            assert _shift_breaks(words) == 0
