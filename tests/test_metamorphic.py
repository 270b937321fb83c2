"""Metamorphic relations: a decider's verdict must keep under a symmetry
of its group, which needs no oracle and holds at any word length.

  * `words_equal` on J4' keeps its status under the mirror (conjugation
    by s14, `J4P_MIRROR`), an automorphism of J4';
  * it keeps its status when both words are conjugated by one word u;
  * `word_problem_search` on the surface group keeps its status under
    the index shift a_i -> a_{i+1 mod 5}, which rotates the relator
    a1 a1 a2 a2 ... a5 a5 and so is an automorphism;
  * on the surface group and the five-generator one-relator group it
    keeps its status under inversion: w is trivial exactly when w^-1 is.

Words are seeded and up to 500 letters long (at least 400 for the
longest Dehn word); `tests_slow` runs the same relations at up to
10,000.  Each relation is also shown to catch one planted fault.  An engine that lacks one of J4''s squares answers
for another group: the mirror exposes it, but conjugation, an
automorphism of every group, cannot.  A flip entry in the wrong order
on the mirror-fixed square s12 s34 s12 s34 is the converse:
conjugation exposes it, the mirror cannot.  Dehn's algorithm without
the rules that cut an a1 fails the index shift.  Dehn's algorithm with
rules for the relator's rotations alone, none for its inverse's, fails
inversion on single conjugates of a relator form; the index shift maps
that rule set to itself, so it cannot see it.  An error that a fault
raises counts as an outcome, so a relation also breaks when one side
raises and the other does not.
"""

import copy
import random

from cactus45 import grouptheory, rewrite
from cactus45.action import mirror_word
from cactus45.cactus import j4prime_presentation
from cactus45.grouptheory import one_relator_presentation, surface_presentation, word_problem_search
from cactus45.rewrite import canonical_form, system_for, words_equal
from cactus45.words import EQUAL, NONTRIVIAL, PROVEN_UNEQUAL, TRIVIAL, Word, invert

from rewrite_oracle import random_word

PP = j4prime_presentation()
SURF = surface_presentation()
FIVE = one_relator_presentation()


def _j4p_pairs(seed, count=40, lengths=(10, 500)):
    """(w1, w2, u): w1 the normal form of a random word whose length is
    drawn from range(*lengths), w2 the same with one square flipped
    (equal) or with the translation s13 s24 s13 s24 inserted (unequal),
    and u a random word shorter than lengths[1] to conjugate both by.  The
    inserted word is pure, so an unequal pair keeps one S4 image and
    only the rewrite engine can tell it apart."""
    rng, flip = random.Random(seed), system_for(PP).flip
    pure = list(PP.word("s13 s24 s13 s24").codes)
    for i in range(count):
        t = list(canonical_form(random_word(PP, rng.randrange(*lengths), rng), PP).codes)
        if i % 2 == 0:
            squares = [p for p in range(len(t) - 1) if flip[t[p]][t[p + 1]]]
            p = rng.choice(squares)
            w2 = t[:p] + list(flip[t[p]][t[p + 1]]) + t[p + 2:]
        else:
            p = rng.randrange(len(t) + 1)
            w2 = t[:p] + pure + t[p:]
        u = random_word(PP, rng.randrange(1, lengths[1]), rng)
        yield Word._from_codes(PP.alphabet, t), Word._from_codes(PP.alphabet, w2), u


def _outcome(w1, w2):
    """The status of words_equal, or the type of the error a faulty
    engine raised: its own self-check, or a flip it reads off a pair
    that lies on no square."""
    try:
        verdict = words_equal(w1, w2, PP)
    except (AssertionError, TypeError) as error:
        return type(error).__name__
    assert verdict.oracle == "rewrite", (w1, w2)  # no pair is told apart in S4
    return verdict.status


def _mirror_breaks(pairs):
    return sum(
        _outcome(w1, w2) != _outcome(mirror_word(w1), mirror_word(w2)) for w1, w2, _ in pairs
    )


def _conjugation_breaks(pairs):
    return sum(
        _outcome(w1, w2) != _outcome(u * w1 * invert(u), u * w2 * invert(u)) for w1, w2, u in pairs
    )


def _faulty_engine(monkeypatch, plant):
    """words_equal on a copy of the J4' engine whose flip table plant(flip)
    has changed in place."""
    engine = copy.copy(system_for(PP))
    engine.flip = [row[:] for row in engine.flip]
    plant(engine.flip)
    monkeypatch.setattr(rewrite, "system_for", lambda P: engine)


def test_words_equal_keeps_its_status_under_the_mirror_and_conjugation():
    pairs = list(_j4p_pairs(1901))
    statuses = [_outcome(w1, w2) for w1, w2, _ in pairs]
    assert statuses == [EQUAL, PROVEN_UNEQUAL] * 20
    assert _mirror_breaks(pairs) == 0
    assert _conjugation_breaks(pairs) == 0


def test_the_mirror_catches_an_engine_without_one_square(monkeypatch):
    # s12 s13 s23 s13 mirrors to s34 s24 s23 s24, another square, so the
    # engine without it decides a group that the mirror does not fix
    square = sorted(PP.word("s12 s13 s23 s13").codes)

    def drop(flip):
        for form in PP.forms:
            if sorted(form) == square:
                flip[form[0]][form[1]] = None

    pairs = list(_j4p_pairs(1901))
    _faulty_engine(monkeypatch, drop)
    assert _mirror_breaks(pairs) > 0
    assert _conjugation_breaks(pairs) == 0


def test_conjugation_catches_a_flip_entry_in_the_wrong_order(monkeypatch):
    # the square s12 s34 s12 s34 is its own mirror image, and so is the
    # fault: the mirror cannot see it
    s12, s34 = PP.alphabet.index("s12"), PP.alphabet.index("s34")

    def reverse(flip):
        flip[s34][s12] = flip[s34][s12][::-1]

    pairs = list(_j4p_pairs(1901))
    _faulty_engine(monkeypatch, reverse)
    assert _conjugation_breaks(pairs) > 0
    assert _conjugation_breaks(pairs[1::2]) > 0  # the unequal pairs alone
    assert _mirror_breaks(pairs) == 0


def _shift(w):
    """a_i -> a_{i+1 mod 5} on the codes of a surface word."""
    shifted = [(c + 1) % 5 if c >= 0 else ~((~c + 1) % 5) for c in w.codes]
    return Word._from_codes(SURF.alphabet, shifted)


def _dehn_words(P, seed, count=40, bounds=(20, 450)):
    """Products of conjugates of P's relator forms, freely reduced, grown
    while shorter than a bound drawn from range(*bounds) once per word
    (trivial), and the same with one letter inserted (nontrivial: each
    exponent sum of the relator is even, and the letter's turns odd)."""
    rng, inverse, names = random.Random(seed), P.alphabet.inverse, P.alphabet.names()
    for i in range(count):
        bound = rng.randrange(*bounds)
        w = []  # freely reduced: a letter cancels against the last one
        while len(w) < bound:
            u = Word(P.alphabet, [(rng.choice(names), rng.choice((1, -1)))
                                  for _ in range(rng.randrange(0, 8))])
            for c in (*u.codes, *rng.choice(P.forms), *invert(u).codes):
                if w and w[-1] == inverse[c]:
                    w.pop()
                else:
                    w.append(c)
        if i % 2:
            p = rng.randrange(len(w) + 1)
            w[p:p] = [P.alphabet.index(rng.choice(names))]
        yield Word._from_codes(P.alphabet, w)


def _shift_breaks(words):
    return sum(
        word_problem_search(w, SURF).status != word_problem_search(_shift(w), SURF).status
        for w in words
    )


def _inversion_breaks(P, words):
    return sum(
        word_problem_search(w, P).status != word_problem_search(invert(w), P).status
        for w in words
    )


def test_word_problem_search_keeps_its_status_under_the_index_shift():
    words = list(_dehn_words(SURF, 1902))
    assert 400 <= max(map(len, words)) <= 500
    assert [word_problem_search(w, SURF).status for w in words] == [TRIVIAL, NONTRIVIAL] * 20
    assert _shift_breaks(words) == 0


def test_the_index_shift_catches_missing_dehn_rules(monkeypatch):
    # one missing rule goes unseen: a trivial word holds seven letters of
    # a relator form (Greendlinger), so the next rotation's rule cuts it
    real = grouptheory._dehn_rules
    a1 = SURF.alphabet.index("a1")

    def without_a1(P):
        rules, lengths = real(P)
        return {key: cut for key, cut in rules.items() if a1 not in key}, lengths

    words = list(_dehn_words(SURF, 1902))
    monkeypatch.setattr(grouptheory, "_dehn_rules", without_a1)
    assert _shift_breaks(words) > 0


def test_word_problem_search_keeps_its_status_under_inversion():
    for P, seed in ((SURF, 1902), (FIVE, 1903)):
        words = list(_dehn_words(P, seed))
        assert 400 <= max(map(len, words)) <= 500
        assert [word_problem_search(w, P).status for w in words] == [TRIVIAL, NONTRIVIAL] * 20
        assert _inversion_breaks(P, words) == 0


def test_inversion_catches_dehn_rules_for_the_relator_alone(monkeypatch):
    # a rule is kept only when its key opens a rotation of the stored
    # relator; the index shift sends each such rotation to another.
    # Inversion sees the fault only where a trivial word holds forms of
    # one orientation: a longer product holds both, in w and in w^-1, the
    # rules stall on both, and the relation holds (no break in either
    # group's words of up to 500 letters).  So the words here are single
    # conjugates of a relator form, each trivial one a break
    real = grouptheory._dehn_rules

    def relator_alone(P):
        rules, lengths = real(P)
        (r,) = (rel.codes for rel in P.relators)
        keys = {(r[i:] + r[:i])[:take] for i in range(len(r)) for take in lengths}
        return {key: cut for key, cut in rules.items() if key in keys}, lengths

    surface = list(_dehn_words(SURF, 1902, bounds=(1, 2)))
    five = list(_dehn_words(FIVE, 1903, bounds=(1, 2)))
    monkeypatch.setattr(grouptheory, "_dehn_rules", relator_alone)
    assert _inversion_breaks(SURF, surface) == 20
    assert _inversion_breaks(FIVE, five) == 20
    assert _shift_breaks(surface) == 0
