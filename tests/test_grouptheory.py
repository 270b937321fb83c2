"""Tietze reduction, triviality oracles, and the companion isomorphisms."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from cactus45.grouptheory import (
    STANDARD_ELIMINATIONS,
    TrivialityCertificate,
    abelianization_invariants,
    alt_isomorphism_pair,
    alt_one_relator_presentation,
    dehn_reduce,
    exponent_vector,
    hom_well_defined,
    in_integer_row_span,
    one_relator_presentation,
    piece_ratio,
    surface_isomorphism_pair,
    surface_presentation,
    ten_generator_presentation,
    tietze_eliminate,
    verify_mutual_inverse,
    word_problem_search,
    GroupHom,
)
from cactus45 import grouptheory
from cactus45.grouptheory import _eliminate
from cactus45.cactus import j4prime_presentation
from cactus45.dirichlet import fundamental_domain
from cactus45.words import (
    Alphabet,
    Generator,
    Move,
    Presentation,
    Word,
    cyclic_reduce,
    free_reduce,
    invert,
    rotations,
    same_relator_class,
)

from fixtures import (
    ALT_F_IMAGES,
    ALT_G_IMAGES,
    ALT_RELATOR,
    ELIMINATIONS,
    ONE_RELATOR,
    SURFACE_F_IMAGES_FIVE,
    SURFACE_F_IMAGES_TEN,
    SURFACE_G_IMAGES,
    SURFACE_RELATOR,
    TEN_GEN_RELATORS,
)
import dehn_oracle
import tietze_oracle
from search_oracle import SearchBudget, bounded_search

TEN = ten_generator_presentation()
FIVE = one_relator_presentation()
ALT = alt_one_relator_presentation()
SURF = surface_presentation()


def small_presentation(names, relator_texts):
    alphabet = Alphabet(Generator(n) for n in names)
    return Presentation(alphabet, [Word.parse(alphabet, t) for t in relator_texts])


# ---------------------------------------------------------------------------
# reference presentations and fixtures agree


def test_ten_generator_relators_match_cycle_table():
    assert TEN.alphabet.names() == tuple(f"g{i}" for i in range(1, 11))
    assert len(TEN.relators) == 6
    for text in TEN_GEN_RELATORS:
        target = Word.parse(TEN.alphabet, text)
        assert any(same_relator_class(r, target) for r in TEN.relators)


def test_one_relator_presentation_matches_fixture():
    assert FIVE.alphabet.names() == ("g2", "g4", "g8", "g9", "g10")
    (r,) = FIVE.relators
    assert same_relator_class(r, Word.parse(FIVE.alphabet, ONE_RELATOR))


def test_companion_relators_match_fixtures():
    (r_alt,) = ALT.relators
    assert same_relator_class(r_alt, Word.parse(ALT.alphabet, ALT_RELATOR))
    (r_surf,) = SURF.relators
    assert same_relator_class(r_surf, Word.parse(SURF.alphabet, SURFACE_RELATOR))


def test_standard_eliminations_match_fixture():
    assert tuple(ELIMINATIONS) == STANDARD_ELIMINATIONS


def test_standard_expansion_images():
    images = grouptheory._STANDARD_IMAGES
    assert str(images["g1"]) == "g2 g10"
    assert str(images["g6"]) == "g4 g9 g2 g10"
    assert str(images["g3"]) == "g4 g8"
    for name in FIVE.alphabet.names():
        assert str(images[name]) == name
    assert all(img.alphabet == FIVE.alphabet for img in images.values())


# ---------------------------------------------------------------------------
# abelianization helpers


def test_exponent_vector():
    w = Word.parse(FIVE.alphabet, "g2 g9 g10^-1 g8^-1 g4 g9 g2 g10 g8^-1 g4^-1")
    assert exponent_vector(w) == (2, 0, -2, 2, 0)
    assert exponent_vector(Word(FIVE.alphabet, ())) == (0, 0, 0, 0, 0)


def test_integer_row_span_membership():
    rows = [(2, 0, -2, 2, 0)]
    assert in_integer_row_span((0, 0, 0, 0, 0), rows)
    assert in_integer_row_span((-4, 0, 4, -4, 0), rows)
    assert not in_integer_row_span((1, 0, 0, 0, 0), rows)
    assert not in_integer_row_span((2, 0, -2, 2, 1), rows)
    assert not in_integer_row_span((1, 1), [])
    assert in_integer_row_span((0, 0), [])
    # a lattice needing a combination of two rows
    assert in_integer_row_span((1, 1, 0), [(1, 0, 1), (0, 1, -1)])
    assert not in_integer_row_span((1, 1, 1), [(1, 0, 1), (0, 1, -1)])


def test_abelianization_invariants():
    for P in (TEN, FIVE, ALT, SURF):
        assert abelianization_invariants(P) == (4, (2,))
    free2 = small_presentation(["a", "b"], [])
    assert abelianization_invariants(free2) == (2, ())
    order2 = small_presentation(["a"], ["a a"])
    assert abelianization_invariants(order2) == (0, (2,))
    # invariant factors, not prime powers: Z/2 + Z/3 is Z/6
    z6 = small_presentation(["x", "y"], ["x x", "y y y", "x y x^-1 y^-1"])
    assert abelianization_invariants(z6) == (0, (6,))


def _det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _determinantal_invariants(rows, n):
    """Free rank and torsion from d_k, the gcd of the k x k minors."""
    divisors = [1]
    for k in range(1, min(len(rows), n) + 1):
        d = 0
        for ri in itertools.combinations(range(len(rows)), k):
            for ci in itertools.combinations(range(n), k):
                d = math.gcd(d, _det([[rows[i][j] for j in ci] for i in ri]))
        if d == 0:
            break
        divisors.append(d)
    factors = [b // a for a, b in zip(divisors, divisors[1:])]
    return n - len(factors), tuple(f for f in factors if f > 1)


def _matrix_presentation(rows, n):
    """Generators x0, x1, ... and one relator x0^e0 x1^e1 ... per row."""
    alphabet = Alphabet(Generator(f"x{j}") for j in range(n))
    relators = []
    for row in rows:
        letters = []
        for j, e in enumerate(row):
            letters += [(f"x{j}", 1 if e > 0 else -1)] * abs(e)
        relators.append(Word(alphabet, letters))
    return Presentation(alphabet, relators)


def test_abelianization_matches_determinantal_divisors():
    rng = random.Random(2024)
    deficient = 0
    for trial in range(320):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if trial % 40 == 0:
            rows = [[0] * n for _ in range(m)]
        elif trial % 4 == 0 and m >= 3:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        expected = _determinantal_invariants(rows, n)
        rank = n - expected[0]
        deficient += rank < min(m, n)
        P = _matrix_presentation(rows, n)
        assert {exponent_vector(r) for r in P.relators} == {
            tuple(r) for r in rows if any(r)
        }
        assert abelianization_invariants(P) == expected, rows
    assert deficient >= 30


# ---------------------------------------------------------------------------
# small cancellation


def test_piece_ratio_values():
    assert piece_ratio(small_presentation(["a"], ["a a"])) == Fraction(1, 2)
    assert piece_ratio(small_presentation(["a", "b"], ["a b a b^-1"])) == Fraction(1, 4)
    assert piece_ratio(SURF) == Fraction(1, 10)
    assert piece_ratio(FIVE) == Fraction(1, 10)
    assert piece_ratio(ALT) == Fraction(1, 10)
    assert piece_ratio(TEN) == Fraction(1, 3)


def test_dehn_reduce_relator_to_identity():
    assert dehn_reduce(SURF.relators[0], SURF).is_identity()


def test_dehn_reduce_padded_relator():
    w = Word.parse(SURF.alphabet, "a1 a1 a2 a2 a3 a3 a4 a4 a5 a5 a5^-1 a5")
    assert dehn_reduce(w, SURF).is_identity()


def test_dehn_reduce_leaves_nontrivial_words():
    w = Word.parse(SURF.alphabet, "a1 a2")
    assert str(dehn_reduce(w, SURF)) == "a1 a2"


def test_dehn_reduce_moves_replay():
    w = Word.parse(SURF.alphabet, "a3 a1 a1 a2 a2 a3 a3 a4 a4 a5 a5 a3^-1")
    reduced, moves = dehn_reduce(w, SURF, with_moves=True)
    assert reduced.is_identity()
    cert = TrivialityCertificate(w, moves)
    assert cert.check(SURF)


def test_dehn_reduce_requires_small_pieces():
    with pytest.raises(ValueError):
        dehn_reduce(Word.parse(TEN.alphabet, "g1"), TEN)


def test_dehn_reduce_long_image():
    # the substituted relator is ~30 letters before cancellation and
    # collapses to a rotation of the surface relator, which one more
    # match deletes
    _, g = surface_isomorphism_pair()
    raw = sum(len(g.images[n]) for n, _ in FIVE.relators[0])
    assert raw >= 25
    image = g.apply(FIVE.relators[0])
    assert same_relator_class(image, SURF.relators[0])
    assert dehn_reduce(image, SURF).is_identity()


# ---------------------------------------------------------------------------
# exact decider


def test_search_deletes_own_relator():
    res = word_problem_search(FIVE.relators[0], FIVE)
    assert res.status == "TRIVIAL"
    assert len(res.certificate.moves) >= 1
    assert res.certificate.check(FIVE)


def test_search_freely_trivial_word():
    w = Word.parse(FIVE.alphabet, "g2 g4 g4^-1 g2^-1")
    res = word_problem_search(w, FIVE)
    assert res.status == "TRIVIAL"
    assert res.certificate.moves == ()


def test_search_refutes_g2_with_witness():
    g2 = Word.parse(FIVE.alphabet, "g2")
    res = word_problem_search(g2, FIVE)
    assert res.status == "NONTRIVIAL" and res.nontrivial
    assert res.witness == g2
    assert res.certificate is None
    assert res.oracle == "dehn"


def test_scrambled_relator_is_nontrivial_with_witness():
    # same exponent vector as the relator, so abelianization cannot
    # refute it; Dehn's algorithm does
    w = Word.parse(FIVE.alphabet, "g2 g9 g10^-1 g4 g8^-1 g9 g2 g8^-1 g10 g4^-1")
    res = word_problem_search(w, FIVE)
    assert res.status == "NONTRIVIAL" and res.nontrivial
    assert res.witness == dehn_reduce(w, FIVE)
    assert len(res.witness) > 0


def test_ten_generator_word_goes_through_tietze():
    res = word_problem_search(TEN.relators[0], TEN)
    assert res.oracle == "tietze+dehn"
    assert res.status == "TRIVIAL"
    assert res.certificate.check(FIVE)
    res = word_problem_search(Word.parse(TEN.alphabet, "g1"), TEN)
    assert res.oracle == "tietze+dehn"
    assert res.status == "NONTRIVIAL"


def test_the_derived_presentation_goes_through_tietze():
    # the corner cycles give the ten-generator relator classes, some of
    # them stored inverted, so the presentation is not TEN but decides
    # its words the same way
    P = fundamental_domain().presentation
    assert P != TEN and P.alphabet == TEN.alphabet and P.forms == TEN.forms
    for r in P.relators:
        res = word_problem_search(r, P, "tietze")
        assert (res.status, res.oracle) == ("TRIVIAL", "tietze+dehn")
        assert res.certificate.check(FIVE)
    res = word_problem_search(P.word("g1"), P)
    assert (res.status, res.oracle) == ("NONTRIVIAL", "tietze+dehn")


def test_search_rejects_words_over_another_alphabet():
    # every route checks the alphabet, the ten-generator one included
    five_word = FIVE.relators[0]
    surface_word = Word.parse(SURF.alphabet, "a1")
    for w, P in ((five_word, TEN), (surface_word, TEN), (surface_word, FIVE)):
        with pytest.raises(ValueError, match="different alphabet"):
            word_problem_search(w, P)
    with pytest.raises(ValueError, match="different alphabet"):
        word_problem_search(five_word, TEN, "tietze")


def test_a_certificate_that_fails_its_replay_is_an_internal_error(monkeypatch):
    # a replay that makes no move leaves the relator, not the empty word
    monkeypatch.setattr(grouptheory, "replay", lambda P, w, moves, edit: w)
    with pytest.raises(AssertionError, match="^internal error: certificate failed to replay$"):
        word_problem_search(SURF.relators[0], SURF)


def test_search_rejects_presentation_without_decider():
    # the commutator relator has piece ratio 1/4, not below 1/6
    P = small_presentation(["x", "y"], ["x y x^-1 y^-1"])
    assert piece_ratio(P) >= Fraction(1, 6)
    with pytest.raises(ValueError):
        word_problem_search(Word.parse(P.alphabet, "x"), P)


def test_search_rejects_unknown_oracles():
    g2 = Word.parse(FIVE.alphabet, "g2")
    for oracle in ("search", "dehn"):
        with pytest.raises(ValueError):
            word_problem_search(g2, FIVE, oracle)
    with pytest.raises(ValueError):
        word_problem_search(g2, FIVE, "tietze")


def test_search_finds_alt_relator_image():
    f, _ = alt_isomorphism_pair()
    image = f.apply(ALT.relators[0])
    res = word_problem_search(image, FIVE)
    assert res.status == "TRIVIAL"
    assert res.certificate.check(FIVE)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_insert_move():
    (r,) = SURF.relators
    rotated = Word(SURF.alphabet, r.letters[5:] + r.letters[:5])
    cert = TrivialityCertificate(rotated, (Move(len(r), invert(rotated), "insert"),))
    assert cert.check(SURF)


def test_certificate_rejects_non_relator_insert():
    w = Word.parse(SURF.alphabet, "a1")
    cert = TrivialityCertificate(w, (Move(0, Word.parse(SURF.alphabet, "a1^-1"), "insert"),))
    with pytest.raises(ValueError):
        cert.replay(SURF)


def test_certificate_rejects_bad_position():
    (r,) = SURF.relators
    cert = TrivialityCertificate(r, (Move(99, invert(r), "insert"),))
    with pytest.raises(ValueError):
        cert.replay(SURF)


def test_failed_replay_reported():
    w = Word.parse(SURF.alphabet, "a1 a2")
    cert = TrivialityCertificate(w, ())
    assert not cert.check(SURF)


# ---------------------------------------------------------------------------
# Tietze eliminations


def test_tietze_standard_chain():
    out = tietze_eliminate(TEN, STANDARD_ELIMINATIONS)
    assert out.alphabet.names() == ("g2", "g4", "g8", "g9", "g10")
    (r,) = out.relators
    assert same_relator_class(r, Word(out.alphabet, Word.parse(FIVE.alphabet, ONE_RELATOR).letters))


def test_tietze_preserves_abelianization():
    out = tietze_eliminate(TEN, STANDARD_ELIMINATIONS)
    assert abelianization_invariants(out) == abelianization_invariants(TEN)


def test_tietze_empty_list_is_identity():
    assert tietze_eliminate(TEN, []) == TEN


def test_tietze_two_generator_example():
    P = small_presentation(["a", "b"], ["a b"])
    out = tietze_eliminate(P, [("b", "a^-1")])
    assert out.alphabet.names() == ("a",)
    assert out.relators == ()
    assert abelianization_invariants(out) == (1, ())


def test_tietze_rejects_unjustified_elimination():
    with pytest.raises(ValueError):
        tietze_eliminate(TEN, [("g1", "g4 g8")])


def test_tietze_rejects_unknown_generator():
    P = small_presentation(["a", "b"], ["a b"])
    with pytest.raises((ValueError, KeyError)):
        tietze_eliminate(P, [("c", "a")])


def test_tietze_substitutes_on_codes(monkeypatch):
    # the definitions are read to codes and substituted there: no step
    # builds one-letter words from their names
    parsed = []
    parse = Word.parse.__func__

    def counting(cls, alphabet, text):
        parsed.append(text)
        return parse(cls, alphabet, text)

    monkeypatch.setattr(Word, "parse", classmethod(counting))
    out = tietze_eliminate(ten_generator_presentation(), STANDARD_ELIMINATIONS)
    assert parsed == []
    (r,) = out.relators
    assert same_relator_class(r, one_relator_presentation().relators[0])
    Word.parse(out.alphabet, "g2")
    assert parsed == ["g2"]  # the wrapper counts


def _random_eliminations(rng):
    """A presentation on five generators, some of them involutive, with
    random relators, and up to three eliminations, each backed by a
    relator x·d^-1 for its defining word d."""
    names = ["a", "b", "c", "d", "f"]
    alphabet = Alphabet(Generator(n, involutive=rng.random() < 0.4) for n in names)

    def random_word(pool, length):
        letters = []
        for _ in range(length):
            name = rng.choice(pool)
            letters.append((name, 1 if rng.random() < 0.5 else -1))
        return Word(alphabet, letters)

    relators = [Word(alphabet, [(g.name, 1)] * 2) for g in alphabet if g.involutive]
    for _ in range(rng.randint(1, 4)):
        relators.append(random_word(names, rng.randint(2, 7)))
    eliminations = []
    for x in rng.sample(names, rng.randint(0, 3)):
        d = random_word([n for n in names if n != x], rng.randint(1, 2))
        relators.append(Word(alphabet, [(x, 1)]) * invert(d))
        eliminations.append((x, str(d)))
    rng.shuffle(relators)
    return Presentation(alphabet, relators), eliminations


def test_tietze_matches_word_level_oracle():
    # involution squares brought together by a rotation stay in a stored
    # relator until a later substitution reduces them, as before
    rng = random.Random(1923)
    raised = 0
    for _ in range(1500):
        P, eliminations = _random_eliminations(rng)
        try:
            want = tietze_oracle.eliminate(P, eliminations)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                _eliminate(P, eliminations)
            continue
        got = _eliminate(P, eliminations)
        assert got[0].alphabet == want[0].alphabet
        assert got[0].relators == want[0].relators
        assert list(got[1].items()) == list(want[1].items())
    assert 0 < raised < 500


# ---------------------------------------------------------------------------
# homomorphism verification


def identity_hom(P):
    images = {n: Word.parse(P.alphabet, n) for n in P.alphabet.names()}
    return GroupHom(P, P, images, "id")


def test_identity_maps_verified():
    for P in (FIVE, ALT, SURF, TEN):
        assert hom_well_defined(identity_hom(P)).verdict == "verified"
    v = verify_mutual_inverse(identity_hom(FIVE), identity_hom(FIVE))
    assert v.verdict == "verified"


def test_alt_pair_well_defined():
    f, g = alt_isomorphism_pair()
    assert {k: str(v) for k, v in f.images.items()} == ALT_F_IMAGES
    assert {k: str(v) for k, v in g.images.items()} == ALT_G_IMAGES
    vf = hom_well_defined(f)
    vg = hom_well_defined(g)
    assert vf.verdict == "verified"
    assert vg.verdict == "verified"
    for cert in vf.certificates + vg.certificates:
        assert cert is not None


def test_alt_pair_mutual_inverse():
    f, g = alt_isomorphism_pair()
    v = verify_mutual_inverse(f, g)
    assert v.verdict == "verified"
    assert len(v.details) == 10
    # the round trips all cancel freely: every certificate is empty
    assert all(cert.moves == () for cert in v.certificates)


def test_mutual_inverse_builds_generators_from_codes(monkeypatch):
    # each generator x of the round trips g(f(x)) x^-1 is its code
    parsed = []
    parse = Word.parse.__func__

    def counting(cls, alphabet, text):
        parsed.append(text)
        return parse(cls, alphabet, text)

    monkeypatch.setattr(Word, "parse", classmethod(counting))
    f, g = surface_isomorphism_pair()
    parsed.clear()  # the pair's images are parsed once, when built
    v = verify_mutual_inverse(f, g)
    assert v.verdict == "verified" and parsed == []
    assert [label for label, _, _ in v.details[:2]] == ["g(f(a1))", "g(f(a2))"]


def test_surface_pair_well_defined_by_dehn():
    f, g = surface_isomorphism_pair()
    assert {k: str(v) for k, v in f.images.items()} == SURFACE_F_IMAGES_FIVE
    assert {k: str(v) for k, v in g.images.items()} == SURFACE_G_IMAGES
    vf = hom_well_defined(f)
    vg = hom_well_defined(g)
    assert vf.verdict == "verified"
    assert vg.verdict == "verified"
    assert all(oracle == "dehn" for _, oracle, _ in vf.details + vg.details)


def test_surface_pair_mutual_inverse():
    f, g = surface_isomorphism_pair()
    v = verify_mutual_inverse(f, g)
    assert v.verdict == "verified"
    assert len(v.details) == 10
    assert all(status == "TRIVIAL" for _, _, status in v.details)


def surface_to_ten_hom():
    """The surface-group map stated over the ten-generator target; its
    images expand to those of surface_isomorphism_pair()[0]."""
    images = {
        "a1": "g1^-1",
        "a2": "g2 g10 g5^-1 g8 g3^-1",
        "a3": "g4",
        "a4": "g9 g10^-1",
        "a5": "g8^-1 g6",
    }
    return GroupHom(
        SURF, TEN, {k: Word.parse(TEN.alphabet, v) for k, v in images.items()}, "f10"
    )


def test_surface_to_ten_variant():
    h = surface_to_ten_hom()
    assert {k: str(v) for k, v in h.images.items()} == SURFACE_F_IMAGES_TEN
    v = hom_well_defined(h, oracle="tietze")
    assert v.verdict == "verified"
    assert all(oracle == "tietze+dehn" for _, oracle, _ in v.details)


def test_refuted_hom():
    P = small_presentation(["x"], ["x x"])
    h = GroupHom(P, FIVE, {"x": Word.parse(FIVE.alphabet, "g2")})
    v = hom_well_defined(h)
    assert v.verdict == "refuted"


def test_order_two_map_into_surface_is_refuted():
    # x^2 maps into the relator span, so no abelian witness exists; the
    # Dehn-reduced image is nonempty, which refutes the map
    P = small_presentation(["x"], ["x x"])
    h = GroupHom(P, SURF, {"x": Word.parse(SURF.alphabet, "a1 a2 a3 a4 a5")})
    v = hom_well_defined(h)
    assert v.verdict == "refuted"
    assert v.details == ((str(P.relators[0]), "dehn", "NONTRIVIAL"),)
    assert v.certificates == (None,)


def test_mutual_inverse_alphabet_mismatch():
    f, _ = alt_isomorphism_pair()
    with pytest.raises(ValueError):
        verify_mutual_inverse(f, f)


def test_hom_requires_all_images():
    with pytest.raises(ValueError):
        GroupHom(FIVE, ALT, {"g2": Word.parse(ALT.alphabet, "alpha")})


# ---------------------------------------------------------------------------
# oracle agreement on random words


def test_dehn_and_search_agree_on_random_words():
    # the exact decider against the bounded reference search
    rng = random.Random(48151623)
    letters = [(n, e) for n in SURF.alphabet.names() for e in (1, -1)]
    budget = SearchBudget(max_length_factor=3, max_depth=6, max_states=200)
    rel_vec = exponent_vector(SURF.relators[0])
    for _ in range(200):
        length = rng.randint(1, 12)
        w = free_reduce(
            Word(SURF.alphabet, [rng.choice(letters) for _ in range(length)])
        )
        by_dehn = word_problem_search(w, SURF).status == "TRIVIAL"
        res = bounded_search(w, SURF, budget)
        if by_dehn:
            assert res.status == "TRIVIAL"
            assert res.certificate.check(SURF)
        else:
            assert res.status == "NOT-FOUND"
            if res.nontrivial:
                assert not in_integer_row_span(exponent_vector(w), [rel_vec])


# ---------------------------------------------------------------------------
# the stack reducer against the rescanning reference reducer


def test_involution_square_is_skipped_not_divided_by():
    # s12 s12 cyclically reduces to the empty word: it is skipped, and
    # J4' (pieces of three letters in four-letter relators) has no Dehn
    # decider, which is a ValueError, not a ZeroDivisionError
    J4P = j4prime_presentation()
    assert piece_ratio(J4P) == Fraction(3, 4)
    w = J4P.relators[0]
    for call in (dehn_reduce, word_problem_search):
        with pytest.raises(ValueError):
            call(w, J4P)
    alphabet = Alphabet([Generator("x", involutive=True), Generator("y")])
    P = Presentation(alphabet, [Word.parse(alphabet, "x x")])
    assert piece_ratio(P) == 0
    assert str(dehn_reduce(Word.parse(alphabet, "y x x y^-1 x"), P)) == "x"


def _letters(P):
    return [(n, e) for n in P.alphabet.names() for e in (1, -1)]


def _planted(P, rng, n):
    """A product of conjugated rotations of the relator or its inverse,
    freely reduced; trivial by construction."""
    (r,) = P.relators
    letters = []
    while len(letters) < n:
        u = Word(P.alphabet, [rng.choice(_letters(P)) for _ in range(rng.randint(0, 4))])
        rel = (r if rng.random() < 0.5 else invert(r)).letters
        k = rng.randrange(len(rel))
        letters += u.letters + rel[k:] + rel[:k] + invert(u).letters
    return free_reduce(Word(P.alphabet, letters))


def _contains_rule_key(w, P):
    """Whether w contains more than half of a cyclic relator form."""
    text = w.letters
    for form in dehn_oracle._cyclic_forms(P):
        take = len(form) // 2 + 1
        for i in range(len(text) - take + 1):
            if text[i : i + take] == form[:take]:
                return True
    return False


def _check_reduction(w, P, trivial):
    """The verdict, then a witness with no match or a certificate that
    replays."""
    reduced, moves = dehn_reduce(w, P, with_moves=True)
    assert (len(reduced) == 0) == trivial
    if len(reduced):
        assert not _contains_rule_key(reduced, P)
    else:
        assert TrivialityCertificate(w, moves).check(P)


@pytest.mark.parametrize(
    "P, seed", [(FIVE, 1), (ALT, 2), (SURF, 3)], ids=["five", "alt", "surface"]
)
def test_stack_reducer_agrees_with_oracle(P, seed):
    rng = random.Random(seed)
    for n in (100, 1000):
        for _ in range(2):
            planted = _planted(P, rng, n)
            # dropping one letter x of a trivial word leaves a conjugate
            # of x^-1, which is nontrivial
            i = rng.randrange(len(planted))
            dropped = free_reduce(
                Word(P.alphabet, planted.letters[:i] + planted.letters[i + 1 :])
            )
            random_word = free_reduce(
                Word(P.alphabet, [rng.choice(_letters(P)) for _ in range(n)])
            )
            for w, known in ((planted, True), (dropped, False), (random_word, None)):
                verdict = len(dehn_oracle.dehn_reduce(w, P)) == 0
                assert known in (None, verdict)
                _check_reduction(w, P, verdict)
    # 10^4 letters: the rescanning oracle needs ~20 s for a planted
    # word, so those verdicts are checked against their construction
    random_word = free_reduce(
        Word(P.alphabet, [rng.choice(_letters(P)) for _ in range(10_000)])
    )
    _check_reduction(random_word, P, len(dehn_oracle.dehn_reduce(random_word, P)) == 0)
    planted = _planted(P, rng, 10_000)
    assert len(planted) >= 9_000
    _check_reduction(planted, P, True)
    _check_reduction(free_reduce(Word(P.alphabet, planted.letters[1:])), P, False)


def _random_presentation(rng):
    gens = [Generator(f"x{i}", involutive=rng.random() < 0.3) for i in range(rng.randint(1, 3))]
    alphabet = Alphabet(gens)
    letters = [(g.name, e) for g in gens for e in (1, -1)]
    relators = []
    for _ in range(rng.randint(1, 3)):
        base = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
        # proper powers and involution squares come up on purpose
        power = rng.choice((1, 1, 1, 2, 3))
        relators.append(Word(alphabet, base * power))
    return Presentation(alphabet, relators)


def _is_proper_power(w):
    n = len(w)
    return any(n % d == 0 and w.letters == w.letters[d:] + w.letters[:d] for d in range(1, n))


def test_piece_ratio_matches_subword_table():
    rng = random.Random(6174)
    powers = involutive = 0
    for _ in range(2000):
        P = _random_presentation(rng)
        assert piece_ratio(P) == dehn_oracle.piece_ratio(P), P
        involutive += any(g.involutive for g in P.alphabet)
        powers += any(_is_proper_power(cyclic_reduce(r)) for r in P.relators)
    assert involutive >= 500 and powers >= 300, (involutive, powers)


def _replay_outcome(replay, cert, P):
    try:
        return free_reduce(replay(cert, P))
    except ValueError:
        return "refused"


@pytest.mark.parametrize(
    "P, seed", [(FIVE, 4), (ALT, 5), (SURF, 6)], ids=["five", "alt", "surface"]
)
def test_linear_replay_agrees_with_rebuilding_oracle(P, seed):
    rng = random.Random(seed)
    for n in (30, 100, 400):
        for _ in range(4):
            w = _planted(P, rng, n)
            _, moves = dehn_reduce(w, P, with_moves=True)
            k = rng.randrange(len(moves))
            m = moves[k]
            # a bad position, a non-relator splice, unknown kinds
            corrupted = [
                Move(n + len(m.relator) + 1, m.relator, "insert"),
                Move(m.position, m.relator[1:], "insert"),
                Move(m.position, m.relator, "delete"),
                Move(m.position, m.relator, "shift"),
            ]
            cases = [(moves, Word(P.alphabet, ())), (moves[:k] + moves[k + 1 :], None)]
            cases += [(moves[:k] + (bad,) + moves[k + 1 :], "refused") for bad in corrupted]
            for mvs, expected in cases:
                cert = TrivialityCertificate(w, mvs)
                new = _replay_outcome(TrivialityCertificate.replay, cert, P)
                assert new == _replay_outcome(dehn_oracle.replay, cert, P)
                assert expected in (None, new)


def test_the_splice_cursor_reaches_both_ends_of_the_word():
    # w's first and last letters cancel against the relator's ends, so
    # a splice at either end of w cancels at its seam
    (r,) = SURF.relators
    inv = invert(r)
    w = Word.parse(SURF.alphabet, "a5^-1 a2 a1^-1")
    n = len(w)
    cases = [
        ([], w),
        ([Move(0, r, "insert")], free_reduce(r * w)),
        ([Move(n, r, "insert")], free_reduce(w * r)),
        # out to the end, back to 0, where r^-1 cancels the r spliced
        # there, and to the end again, where r^-1 cancels the first r
        (
            [Move(n, r, "insert"), Move(0, r, "insert"),
             Move(0, inv, "insert"), Move(n - 2 + len(r), inv, "insert")],
            w,
        ),
        ([Move(n + 1, r, "insert")], "refused"),
        ([Move(-1, r, "insert")], "refused"),
    ]
    for moves, expected in cases:
        cert = TrivialityCertificate(w, tuple(moves))
        got = _replay_outcome(TrivialityCertificate.replay, cert, SURF)
        assert got == _replay_outcome(dehn_oracle.replay, cert, SURF) == expected


def test_replay_accepts_exactly_the_inserts_spelling_a_relator_form():
    # the reference lists every rotation of each cyclically reduced
    # relator and of its inverse as (name, exponent) letters; a letter
    # with an unknown name or a +-2 exponent builds no word at all
    rng = random.Random(2718)
    refused_by_dehn = 0
    for _ in range(300):
        P = _random_presentation(rng)
        refused_by_dehn += piece_ratio(P) >= Fraction(1, 6)
        decoded = {
            rot.letters
            for r in P.relators
            for base in (cyclic_reduce(r), invert(cyclic_reduce(r)))
            for rot in rotations(base)
            if len(base)
        }
        candidates = [()]
        for letters in decoded:
            i = rng.randrange(len(letters))
            name, exp = letters[i]
            candidates.append(letters)
            candidates.append(letters[:i] + ((name, -exp),) + letters[i + 1 :])
            for bad in ((name, 2 * exp), ("zz", exp)):
                with pytest.raises((KeyError, ValueError)):
                    Word(P.alphabet, letters[:i] + (bad,) + letters[i + 1 :])
        for letters in candidates:
            form = Word(P.alphabet, letters)
            cert = TrivialityCertificate(Word(P.alphabet, ()), (Move(0, form, "insert"),))
            try:
                cert.replay(P)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (form.letters in decoded), (P, letters)
    assert refused_by_dehn >= 100


def test_relator_holding_an_involution_square_certifies_trivial():
    names = ["a", "b", "c", "d", "f", "g", "h", "i"]  # `e` spells the empty word
    alphabet = Alphabet([Generator("x", involutive=True)] + [Generator(n) for n in names])
    P = Presentation(alphabet, [Word.parse(alphabet, "x x " + " ".join(names))])
    assert str(P.relators[0]) == "x x a b c d f g h i"
    assert piece_ratio(P) == 0
    res = word_problem_search(Word.parse(alphabet, "a b c d f g h i"), P)
    assert res.status == "TRIVIAL" and res.certificate.check(P)
    res = word_problem_search(Word.parse(alphabet, "x a b c d f g h i x"), P)
    assert res.status == "TRIVIAL" and res.certificate.check(P)
    assert word_problem_search(Word.parse(alphabet, "x a b c d f g h i"), P).nontrivial
