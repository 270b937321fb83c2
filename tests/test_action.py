import copy
import pickle
import random

import pytest

from cactus45 import (
    Permutation,
    canonical_form,
    invert,
    j4_presentation,
    j4prime_presentation,
    sphere,
    words_equal,
)
from cactus45.cactus import W0, s4_table
from cactus45.words import Word
from cactus45.action import (
    GENERATOR_TABLE,
    TRANSLATIONS,
    TWENTY,
    PureElement,
    gamma,
    mirror_word,
    orbit_point,
    pure_elements_within,
    standard_generator,
    standard_generators,
)

import action_oracle
from fixtures import A_WORDS, G_DEF, G_INV_DEF

J4 = j4_presentation()
P = j4prime_presentation()


def w(text):
    return P.word(text)


def a_canon(i):
    return canonical_form(w(A_WORDS[i]), P)


@pytest.fixture(scope="module")
def gens():
    return standard_generators()


@pytest.fixture(scope="module")
def all_twenty(gens):
    out = dict(gens)
    for name, g in gens.items():
        out[name + "^-1"] = g.inverse()
    return out


def test_gamma_identity_acts_trivially():
    e = PureElement.identity()
    for h in sphere(P, 2):
        assert gamma(e, h) == h


def test_gamma_example_g1(gens):
    assert gamma(gens["g1"], w("s34 s12")) == w("s13 s24")


def test_orbit_points_match_table(gens):
    for name, (idx, _parity) in G_DEF.items():
        assert orbit_point(gens[name]) == a_canon(idx)
    assert orbit_point(PureElement.identity()) == w("e")


def test_generator_parities(gens):
    for name, (_idx, parity) in G_DEF.items():
        assert gens[name].parity == parity


def test_inverse_generators_match_table(all_twenty):
    for name, (idx, parity) in G_INV_DEF.items():
        ginv = all_twenty[name + "^-1"]
        assert ginv.parity == parity
        assert ginv.j4p_form == a_canon(idx)
        assert standard_generator(name + "^-1").j4p_form == a_canon(idx)


def test_unknown_generator_name():
    for bad in ("g11", "", "g1 g2", "g1^-2"):
        with pytest.raises(KeyError):
            standard_generator(bad)


def _embed(vertex, parity):
    """The six-generator word vertex · s14^parity."""
    return Word(J4.alphabet, list(vertex.letters) + [("s14", 1)] * parity)


def test_split_form_certified():
    # each table spelling, inverted for an inverse code, equals the
    # split form of its entry in the six-generator group
    spellings = [_embed(P.word(text), parity) for text, parity in GENERATOR_TABLE.values()]
    for c in range(-len(TRANSLATIONS), len(TRANSLATIONS)):
        spelled = spellings[c] if c >= 0 else invert(spellings[~c])
        split = _embed(TWENTY[c].j4p_form, TWENTY[c].parity)
        res = words_equal(spelled, split, J4, certificate=True)
        assert res.equal and res.certificate is not None
        assert res.certificate.verify(J4, spelled, split)


def test_table_is_indexed_by_letter_codes():
    assert len(TWENTY) == 2 * len(TRANSLATIONS) == 20
    assert TRANSLATIONS.names() == tuple(f"g{i}" for i in range(1, 11))
    for c in range(-len(TRANSLATIONS), len(TRANSLATIONS)):
        assert TWENTY[TRANSLATIONS.inverse[c]] == TWENTY[c].inverse()
        assert standard_generator(TRANSLATIONS.spell(c)) is TWENTY[c]


def test_standard_generator_is_a_table_lookup():
    assert standard_generator("g3^-1") is standard_generator("g3^-1")
    assert standard_generators()["g3"] is standard_generator("g3")


def test_from_word_roundtrip(gens):
    raw = J4.word("s13 s24 s12 s34 s14")
    g = action_oracle.from_word(raw)
    assert g.j4p_form == gens["g1"].j4p_form
    assert g.parity == 1


def test_from_word_rejects_impure():
    with pytest.raises(ValueError):
        action_oracle.from_word(J4.word("s12"))
    # g1's spelling is pure only with its reversal
    with pytest.raises(ValueError, match="not pure"):
        PureElement(w(A_WORDS[1]), 0)


def test_the_constructor_stores_the_normal_form():
    # g1's tabled spelling is not its normal form, yet it is g1
    g1 = PureElement(w("s13 s24 s12 s34"), 1)
    assert g1 == standard_generator("g1") and hash(g1) == hash(standard_generator("g1"))
    assert g1.j4p_form == canonical_form(w("s13 s24 s12 s34"), P) != w("s13 s24 s12 s34")
    for g in (g1, *TWENTY):
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and hash(twin) == hash(g)


@pytest.mark.parametrize("parity", [2, -1])
def test_parity_outside_zero_one_is_refused(parity):
    # such an element would act as if its parity were 1
    with pytest.raises(ValueError, match="parity"):
        PureElement(w("s12"), parity)
    assert PureElement(w("s13 s24 s12 s34"), 1).parity == 1


def test_mirror_word_involution():
    rng = random.Random(11)
    names = [g.name for g in P.alphabet]
    for _ in range(20):
        word = Word_from(names, rng)
        assert mirror_word(mirror_word(word)) == word


def Word_from(names, rng):
    from cactus45 import Word

    return Word(P.alphabet, [(rng.choice(names), 1) for _ in range(rng.randrange(0, 8))])


def test_pure_enumeration_small():
    assert pure_elements_within(0) == []
    assert pure_elements_within(3) == []


def test_pure_enumeration_bounds():
    with pytest.raises(ValueError):
        pure_elements_within(5)
    with pytest.raises(ValueError):
        pure_elements_within(-1)


def test_pure_enumeration_is_the_twenty(all_twenty):
    got = {(g.j4p_form, g.parity) for g in pure_elements_within(4)}
    expected = {(g.j4p_form, g.parity) for g in all_twenty.values()}
    assert len(got) == 20
    assert got == expected


def test_orbit_distance_parity(all_twenty):
    for g in all_twenty.values():
        assert len(orbit_point(g)) % 2 == 0
    rng = random.Random(23)
    items = list(all_twenty.values())
    for _ in range(12):
        prod = rng.choice(items).compose(rng.choice(items))
        assert len(prod.j4p_form) % 2 == 0


def test_compose_inverse_is_identity():
    # equality is (j4p_form, parity) alone, not a spelling
    for c in range(-len(TRANSLATIONS), len(TRANSLATIONS)):
        g, inverse = TWENTY[c], TWENTY[TRANSLATIONS.inverse[c]]
        assert g.compose(inverse) == PureElement.identity() == inverse.compose(g)
        assert g.compose(g.inverse()).is_identity


def test_action_law(all_twenty):
    items = list(all_twenty.values())
    rng = random.Random(5)
    pairs = [(rng.choice(items), rng.choice(items)) for _ in range(40)]
    hs = sphere(P, 2)
    for g, gp in pairs:
        prod = g.compose(gp)
        for h in hs:
            assert gamma(prod, h) == gamma(g, gamma(gp, h))


def test_action_is_isometric(all_twenty):
    rng = random.Random(7)
    ball = [v for L in range(3) for v in sphere(P, L)]

    def dist(u, v):
        return len(canonical_form(invert(u) * v, P))

    for g in all_twenty.values():
        for _ in range(6):
            h1, h2 = rng.choice(ball), rng.choice(ball)
            assert dist(h1, h2) == dist(gamma(g, h1), gamma(g, h2))


def test_action_is_free_on_vertices(all_twenty):
    ball = [v for L in range(4) for v in sphere(P, L)]
    for g in all_twenty.values():
        for h in ball:
            assert gamma(g, h) != h


def test_parity_of_pi_images():
    full = Permutation((4, 3, 2, 1))
    for g in pure_elements_within(4):
        from cactus45 import project_to_symmetric

        img = project_to_symmetric(g.j4p_form, 4)
        assert img == (full if g.parity else Permutation.identity(4))


# ---------------------------------------------------------------------------
# the code-level action against the Word-product oracle


def test_gamma_and_compose_match_word_oracle_on_the_ball():
    # gamma on every ball vertex; compose, the split-form group law of
    # J4, on the twenty and on every product of two of them
    ball = [v for L in range(4) for v in sphere(P, L)]
    assert len(ball) == 61
    products = {g.compose(h) for g in TWENTY for h in TWENTY}
    # the identity, the twenty (the three-term cycles make each a product
    # of two), and 340 others
    assert len(products) == 361 and set(TWENTY) < products
    for g in TWENTY:
        for h in ball:
            assert gamma(g, h) == action_oracle.gamma(g, h)
        for other in (*TWENTY, *products):
            assert g.compose(other) == action_oracle.compose(g, other)


def test_gamma_and_compose_match_word_oracle_on_random_words():
    # unreduced words of up to 40 letters, on both sides of the product;
    # an element is built from the first random word that is pure at
    # some parity, and stores its normal form
    rng = random.Random(1998)
    names = P.alphabet.names()
    table = s4_table(P)

    def random_word():
        length = rng.randint(0, 40)
        return Word(P.alphabet, [(rng.choice(names), 1) for _ in range(length)])

    def random_element():
        while True:
            u = random_word()
            parity = {0: 0, W0: 1}.get(table.fold(u.codes))
            if parity is not None:
                g = PureElement(u, parity)
                assert g.j4p_form == canonical_form(u, P)
                return g

    for _ in range(200):
        u, v = random_word(), random_word()
        g = rng.choice(TWENTY)
        assert gamma(g, u) == action_oracle.gamma(g, u)
        left, right = random_element(), random_element()
        assert gamma(left, v) == action_oracle.gamma(left, v)
        assert left.compose(right) == action_oracle.compose(left, right)


def test_gamma_rejects_words_over_other_alphabets():
    for g in (TWENTY[0], TWENTY[1]):  # parity 1, then parity 0
        with pytest.raises(ValueError):
            gamma(g, J4.word("s14 s12"))
