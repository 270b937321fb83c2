"""The slow tier: `words_equal` against the oracle that decides by two
normal forms and recomputes each certificate's paths afresh
(`rewrite_oracle.words_equal`), on seeded words of 200, 500 and 1,000
letters in J4' and J4.  Half of the pairs are planted equal: both words
are relator walks from one base word.  Of the rest, half walk from two
bases one letter apart, a quarter from two random bases, and a quarter
from two bases one pure word apart: these have the same S4 image, so
the flips get far before they fail.  Status and every certificate move
must agree, with and without ``certificate=True``; the witness must be
the two S4 images when they differ (computed from the letters' names),
else the oracle's normal forms.  The verdict must be the planted one,
and each certificate must replay move by move through
`rewrite_oracle.replay`, which reads the stored relators and not the
engine's table.  Times are for one run on a 2-core host with
Python 3.11.
"""

import random

import pytest

from cactus45.cactus import j4_presentation, j4prime_presentation
from cactus45.rewrite import words_equal

import rewrite_oracle
from rewrite_oracle import expected_route, random_word, relator_walk

PAIRS = 40  # per group and length; half of them equal


def _pairs(P, length, rng):
    """(u, v, planted verdict).  Bases one letter apart are unequal: a
    single letter is no relator.  So are bases one pure word apart: the
    word is a translation, which is nontrivial."""
    names = P.alphabet.names()
    for i in range(PAIRS):
        base = random_word(P, length // 2, rng)
        if i % 2 == 0:
            other = base
        elif i % 4 == 1:
            p = rng.randrange(len(base))
            letter = rng.choice([x for x in names if x != names[base.codes[p]]])
            other = base[:p] * P.word(letter) * base[p + 1:]
        elif i % 8 == 3:
            other = random_word(P, length // 2, rng)
        else:
            p = rng.randrange(len(base) + 1)
            other = base[:p] * P.word("s13 s24 s13 s24") * base[p:]
        yield relator_walk(P, base, length, rng), relator_walk(P, other, length, rng), i % 2 == 0


@pytest.mark.parametrize("length", [200, 500, 1000])
@pytest.mark.parametrize(
    "P, seed", [(j4prime_presentation(), 4101), (j4_presentation(), 4102)], ids=["j4p", "j4"]
)
def test_words_equal_matches_the_oracle_on_long_words(P, seed, length):
    """All six cases take 2.5 to 4.5 s together."""
    rng = random.Random(seed * length)
    for u, v, planted in _pairs(P, length, rng):
        assert len(u) >= length and len(v) >= length
        for certificate in (False, True):
            got = words_equal(u, v, P, certificate=certificate)
            want = rewrite_oracle.words_equal(u, v, P, certificate=certificate)
            assert (got.equal, got.status) == (want.equal, want.status)
            assert (got.oracle, got.witness) == expected_route(u, v, want)
            assert got.certificate == want.certificate
            assert got.equal == planted
        if planted:  # the certified result, checked outside the engine
            assert rewrite_oracle.replay(got.certificate, P, u) == v
