import random

import pytest

from cactus45.words import (
    EQUAL,
    NONTRIVIAL,
    PROVEN_UNEQUAL,
    TRIVIAL,
    Alphabet,
    Generator,
    Presentation,
    Verdict,
    Word,
    cyclic_reduce,
    free_reduce,
    invert,
    normalize_relator,
    same_relator_class,
    shortlex_key,
    substitute,
)

import words_oracle

INV = Alphabet([Generator(n, involutive=True) for n in ("x", "y", "z")])
FREE = Alphabet([Generator(n) for n in ("a", "b", "c")])


def w(alph, text):
    return Word.parse(alph, text)


def random_word(rng, alph, length):
    letters = []
    for _ in range(length):
        g = rng.choice(alph.generators)
        exp = 1 if g.involutive else rng.choice([1, -1])
        letters.append((g.name, exp))
    return Word(alph, letters)


def test_parse_and_str_roundtrip():
    for text in ("e", "x", "x y z", "a b^-1 c a^-1"):
        alph = INV if text.startswith(("x", "y", "z", "e")) else FREE
        assert str(w(alph, text)) == text


@pytest.mark.parametrize("name", ["e", "a^-1", "^-1"])
def test_reserved_generator_names_are_rejected(name):
    # `e` would parse back as the empty word and `a^-1` as an inverse
    for involutive in (False, True):
        with pytest.raises(ValueError):
            Generator(name, involutive)


def _package_alphabets():
    from cactus45.action import TRANSLATIONS
    from cactus45.cactus import cactus_presentation, subgroup_presentation
    from cactus45.grouptheory import (
        STANDARD_ELIMINATIONS,
        alt_one_relator_presentation,
        one_relator_presentation,
        surface_presentation,
        ten_generator_presentation,
        tietze_eliminate,
    )

    ten = ten_generator_presentation()
    presentations = [cactus_presentation(n) for n in range(2, 7)]
    presentations += [subgroup_presentation(4, S) for S in ({2}, {3}, {2, 3}, {2, 4})]
    presentations += [
        ten,
        tietze_eliminate(ten, STANDARD_ELIMINATIONS),
        one_relator_presentation(),
        alt_one_relator_presentation(),
        surface_presentation(),
    ]
    return [P.alphabet for P in presentations] + [TRANSLATIONS]


def test_serialisation_round_trips_over_every_package_alphabet():
    rng = random.Random(412)
    for alph in _package_alphabets():
        assert Word.parse(alph, str(Word(alph))) == Word(alph)
        for _ in range(60):
            word = random_word(rng, alph, rng.randrange(1, 12))
            assert Word.parse(alph, str(word)) == word, (alph, word)


def test_involutive_exponent_normalized():
    word = Word(INV, [("x", -1), ("y", 1)])
    assert word.letters == (("x", 1), ("y", 1))


def test_free_reduce_cancels_involutive_squares():
    assert free_reduce(w(INV, "x x")).is_identity()
    assert str(free_reduce(w(INV, "x y y x z"))) == "z"


def test_free_reduce_cancels_opposite_exponents():
    assert free_reduce(w(FREE, "a a^-1")).is_identity()
    assert str(free_reduce(w(FREE, "a b b^-1 a^-1 c"))) == "c"
    # same-sign pairs survive for non-involutive letters
    assert len(free_reduce(w(FREE, "a a"))) == 2


def test_free_reduce_idempotent_and_inverse_cancels():
    rng = random.Random(5)
    for _ in range(200):
        alph = rng.choice([INV, FREE])
        word = random_word(rng, alph, rng.randrange(0, 21))
        r = free_reduce(word)
        assert free_reduce(r) == r
        assert free_reduce(word * invert(word)).is_identity()


def test_freely_reduced_involutive_word_has_positive_exponents():
    rng = random.Random(6)
    for _ in range(100):
        word = random_word(rng, INV, rng.randrange(0, 15))
        assert all(e == 1 for _, e in free_reduce(word).letters)


def test_cyclic_reduce_strips_conjugating_letters():
    assert str(cyclic_reduce(w(FREE, "a b c b^-1 a^-1"))) == "c"
    assert str(cyclic_reduce(w(INV, "x y z y x"))) == "z"
    assert cyclic_reduce(w(FREE, "a b a^-1")).letters == (("b", 1),)


def test_invert():
    assert str(invert(w(FREE, "a b^-1 c"))) == "c^-1 b a^-1"
    assert str(invert(w(INV, "x y"))) == "y x"


def test_substitute_basic():
    target = Alphabet([Generator("g2"), Generator("g10")])
    images = {
        "beta": w(target, "g2 g10"),
        "gamma": w(target, "g10^-1"),
    }
    src = Alphabet([Generator("beta"), Generator("gamma")])
    out = substitute(w(src, "beta gamma"), images)
    assert str(out) == "g2"


def test_substitute_identity_map_reduces():
    images = {n: Word(FREE, [(n, 1)]) for n in FREE.names()}
    word = w(FREE, "a b b^-1 c")
    assert substitute(word, images) == free_reduce(word)


def test_substitute_missing_generator_errors():
    with pytest.raises(KeyError):
        substitute(w(FREE, "a b"), {"a": w(FREE, "c")})


def test_substitute_respects_concatenation():
    rng = random.Random(7)
    target = FREE
    images = {
        "x": w(target, "a b"),
        "y": w(target, "b^-1 c"),
        "z": w(target, "c c"),
    }
    for _ in range(100):
        u = random_word(rng, INV, rng.randrange(0, 8))
        v = random_word(rng, INV, rng.randrange(0, 8))
        lhs = substitute(u * v, images)
        rhs = free_reduce(substitute(u, images) * substitute(v, images))
        assert lhs == rhs


def test_shortlex_orders_by_length_then_alphabet():
    assert shortlex_key(w(FREE, "c")) < shortlex_key(w(FREE, "a a"))
    assert shortlex_key(w(FREE, "a b")) < shortlex_key(w(FREE, "b a"))
    assert not shortlex_key(w(FREE, "a")) < shortlex_key(w(FREE, "a"))
    # positive exponent sorts before negative on the same letter
    assert shortlex_key(w(FREE, "a b")) < shortlex_key(w(FREE, "a b^-1"))


def test_shortlex_uses_declaration_order():
    j4ish = Alphabet(
        Generator(n, involutive=True)
        for n in ("s12", "s13", "s14", "s23", "s24", "s34")
    )
    assert shortlex_key(w(j4ish, "s12 s34")) < shortlex_key(w(j4ish, "s13 s12"))
    assert shortlex_key(w(j4ish, "s14 s12")) < shortlex_key(w(j4ish, "s23 s12"))


def test_normalize_relator_picks_least_rotation():
    r = normalize_relator(w(FREE, "b a c"))
    assert str(r) == "a c b"


def test_same_relator_class_rotation_and_inversion():
    assert same_relator_class(w(FREE, "a b c"), w(FREE, "c a b"))
    assert same_relator_class(w(FREE, "a b c"), w(FREE, "c^-1 b^-1 a^-1"))
    assert not same_relator_class(w(FREE, "a b c"), w(FREE, "a c b"))


def test_presentation_keeps_involution_squares():
    P = Presentation(INV, [w(INV, "x x"), w(INV, "x y x y")])
    assert w(INV, "x x") in P.relators
    assert len(P.relators) == 2


def test_presentation_drops_trivial_and_duplicate_relators():
    P = Presentation(FREE, [w(FREE, "a a^-1"), w(FREE, "a b"), w(FREE, "b a")])
    assert len(P.relators) == 1


def test_presentation_rejects_foreign_relator():
    with pytest.raises(ValueError):
        Presentation(FREE, [w(INV, "x x")])


def test_presentation_lists_its_relator_forms_once():
    # x y x y is a proper power: its rotations repeat, and its inverse
    # y x y x is one of them; the square x x has no form
    P = Presentation(INV, [w(INV, "x x"), w(INV, "x y x y")])
    x, y = INV.index("x"), INV.index("y")
    assert P.forms == ((x, y, x, y),) * 2 + ((y, x, y, x),) * 2
    assert P.is_form((y, x, y, x)) and not P.is_form((x, x))
    Q = Presentation(FREE, [w(FREE, "a b c")])
    assert len(Q.forms) == 6 and Q.forms == tuple(sorted(Q.forms))
    assert Q.is_form(w(FREE, "c^-1 b^-1 a^-1").codes)
    assert not Q.is_form(w(FREE, "a c b").codes)


def test_word_immutable_and_hashable():
    word = w(FREE, "a b")
    with pytest.raises(AttributeError):
        word.letters = ()
    assert len({word, w(FREE, "a b"), w(FREE, "b a")}) == 2


def test_concatenation_requires_same_alphabet():
    with pytest.raises(ValueError):
        w(FREE, "a") * w(INV, "x")


def test_both_deciders_answer_with_one_verdict_record():
    from cactus45.cactus import j4_presentation, j4prime_presentation
    from cactus45.grouptheory import (
        surface_presentation,
        ten_generator_presentation,
        word_problem_search,
    )
    from cactus45.rewrite import canonical_form, words_equal
    from rewrite_oracle import s4_image

    answers = []
    for P in (j4prime_presentation(), j4_presentation()):
        u = P.word("s12 s34 s13")
        pure = u * P.word("s13 s24 s13 s24")  # the same S4 image as u
        answers += [
            (words_equal(u, P.word("s34 s12 s13"), P, certificate=True), EQUAL, "rewrite"),
            (words_equal(u, u[:2], P, certificate=True), PROVEN_UNEQUAL, "s4"),
            (words_equal(u, pure, P, certificate=True), PROVEN_UNEQUAL, "rewrite"),
        ]
        # an UNEQUAL witness is the two S4 images when they differ,
        # else the two normal forms
        assert answers[-2][0].witness == (s4_image(u), s4_image(u[:2]))
        assert answers[-1][0].witness == (canonical_form(u, P), canonical_form(pure, P))
    routes = ((surface_presentation(), "dehn"), (ten_generator_presentation(), "tietze+dehn"))
    for P, oracle in routes:
        answers += [
            (word_problem_search(P.relators[0], P), TRIVIAL, oracle),
            (word_problem_search(Word._from_codes(P.alphabet, (1,)), P), NONTRIVIAL, oracle),
        ]
    for v, status, oracle in answers:
        assert type(v) is Verdict and (v.status, v.oracle) == (status, oracle)
        proved = status in (EQUAL, TRIVIAL)
        assert bool(v) is proved
        assert (v.certificate is not None) is proved and (v.witness is not None) is not proved
        assert v.equal is (status == EQUAL) and v.nontrivial is (status == NONTRIVIAL)
    # EQUAL carries a certificate only when one was asked for
    P = j4prime_presentation()
    assert words_equal(P.word("s12"), P.word("s12"), P) == Verdict(EQUAL, "rewrite")


def test_every_decider_refuses_a_word_over_another_alphabet():
    # one check in words: an equal alphabet that is another object passes
    # by Alphabet.__eq__, and any other alphabet is refused alike
    import copy

    from cactus45.cactus import j4prime_presentation
    from cactus45.grouptheory import dehn_reduce, surface_presentation, word_problem_search
    from cactus45.rewrite import _square_move, canonical_form, words_equal
    from cactus45.words import replay

    P, S = j4prime_presentation(), surface_presentation()
    twin = copy.deepcopy(P.alphabet)
    assert twin is not P.alphabet and twin == P.alphabet
    u = Word.parse(twin, "s12 s34 s12")
    assert words_equal(u, u, P) and canonical_form(u, P) == P.word("s34")
    assert replay(P, u, (), _square_move) == u
    a1 = Word.parse(copy.deepcopy(S.alphabet), "a1")
    assert dehn_reduce(a1, S) == a1 and word_problem_search(a1, S).nontrivial
    foreign = Word.parse(S.alphabet, "a1 a2")
    refusals = [
        lambda: words_equal(foreign, foreign, P),
        lambda: canonical_form(foreign, P),
        lambda: replay(P, foreign, (), _square_move),
        lambda: dehn_reduce(P.word("s12"), S),
        lambda: word_problem_search(P.word("s12"), S),
    ]
    for refused in refusals:
        with pytest.raises(ValueError, match="^word over a different alphabet$"):
            refused()


MIXED = Alphabet(
    [Generator("a"), Generator("x", involutive=True), Generator("b"), Generator("y", involutive=True)]
)


def test_word_validates_letters():
    with pytest.raises(KeyError):
        Word(MIXED, [("z", 1)])
    for exp in (0, 2, -2):
        with pytest.raises(ValueError):
            Word(MIXED, [("a", exp)])


def test_letter_codes_agree_with_name_oracle():
    rng = random.Random(2024)
    letters = [(g.name, e) for g in MIXED for e in (1, -1)]
    for _ in range(600):
        word = Word(MIXED, [rng.choice(letters) for _ in range(rng.randrange(0, 16))])
        other = Word(MIXED, [rng.choice(letters) for _ in range(rng.randrange(0, 16))])
        assert free_reduce(word).letters == words_oracle.free_reduce(word)
        assert cyclic_reduce(word).letters == words_oracle.cyclic_reduce(word)
        assert invert(word).letters == words_oracle.invert(word)
        for u, v in ((word, other), (other, word), (word, word)):
            assert (shortlex_key(u) < shortlex_key(v)) == (
                words_oracle.shortlex_key(u) < words_oracle.shortlex_key(v)
            )
        stored = words_oracle.stored_relator(word)
        assert [r.letters for r in Presentation(MIXED, [word]).relators] == ([stored] if stored else [])
        # the (name, exponent) boundary round-trips
        assert Word(MIXED, word.letters) == word
        assert Word.parse(MIXED, str(word)) == word
        assert hash(Word(MIXED, list(word))) == hash(word)
        i, j = sorted(rng.randrange(len(word) + 1) for _ in range(2))
        assert word[i:j] == Word(MIXED, word.letters[i:j])
        assert [word[k] for k in range(len(word))] == list(word.letters)
