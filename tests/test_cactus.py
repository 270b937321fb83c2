import random

import pytest

from cactus45 import cactus
from cactus45.cactus import (
    J4P_MIRROR,
    S4,
    Permutation,
    cactus_presentation,
    is_pure,
    j4_presentation,
    j4prime_presentation,
    project_to_symmetric,
    push_s14_right,
    s4_table,
    subgroup_presentation,
)
from cactus45.words import Alphabet, Generator, Presentation, Word, same_relator_class

from fixtures import A_WORDS, PI_A


def jw(text):
    return Word.parse(j4_presentation().alphabet, text)


def pw(text):
    return Word.parse(j4prime_presentation().alphabet, text)


def non_squares(P):
    return [r for r in P.relators if len(r) > 2]


def reversal_permutation(n, p, q):
    """The permutation sending position i to p+q-i for p <= i <= q."""
    if not 1 <= p < q <= n:
        raise ValueError(f"bad interval [{p},{q}] for n={n}")
    return Permutation(tuple(p + q - i if p <= i <= q else i for i in range(1, n + 1)))


def mirror_generator(name):
    """Conjugation of a J_4' generator by the full reversal s14: the
    interval [p, q] mirrors to [5-q, 5-p]."""
    p, q = int(name[1]), int(name[2])
    return f"s{5 - q}{5 - p}"


def test_j4_presentation_shape():
    P = cactus_presentation(4)
    assert P.alphabet.names() == ("s12", "s13", "s14", "s23", "s24", "s34")
    squares = [r for r in P.relators if len(r) == 2]
    assert len(squares) == 6
    displayed = [
        "s12 s34 s12 s34",   # disjoint intervals commute
        "s12 s13 s23 s13",   # s12 s13 = s13 s23
        "s23 s24 s34 s24",   # s23 s24 = s24 s34
        "s12 s14 s34 s14",   # s12 s14 = s14 s34
        "s14 s23 s14 s23",   # s23 s14 = s14 s23
        "s13 s14 s24 s14",   # s13 s14 = s14 s24
    ]
    rels = non_squares(P)
    assert len(rels) == 6
    for d in displayed:
        assert any(same_relator_class(jw(d), r) for r in rels), d


def test_nesting_relation_and_mirror_share_one_relator():
    # both instances inside [1,3] are rotations of the single stored relator
    P = cactus_presentation(3)
    alph = P.alphabet
    rels = non_squares(P)
    assert len(rels) == 1
    inst1 = Word.parse(alph, "s13 s12 s13 s23")  # s13 s12 = s23 s13
    inst2 = Word.parse(alph, "s13 s23 s13 s12")  # s13 s23 = s12 s13
    assert same_relator_class(inst1, rels[0])
    assert same_relator_class(inst2, rels[0])


def test_n2_trivial_case():
    P = cactus_presentation(2)
    assert P.alphabet.names() == ("s12",)
    assert [str(r) for r in P.relators] == ["s12 s12"]


def test_cactus_presentation_rejects_small_n():
    with pytest.raises(ValueError):
        cactus_presentation(1)


def test_j4prime_shape():
    P = subgroup_presentation(4, {2, 3})
    assert P.alphabet.names() == ("s12", "s13", "s23", "s24", "s34")
    assert len([r for r in P.relators if len(r) == 2]) == 5
    rels = non_squares(P)
    assert len(rels) == 3
    for d in ("s12 s34 s12 s34", "s12 s13 s23 s13", "s23 s24 s34 s24"):
        assert any(same_relator_class(pw(d), r) for r in rels), d


def test_full_length_set_recovers_whole_group():
    assert subgroup_presentation(4, {2, 3, 4}) == cactus_presentation(4)


def test_overlapping_intervals_give_free_product_of_involutions():
    P = subgroup_presentation(3, {2})
    assert P.alphabet.names() == ("s12", "s23")
    assert all(len(r) == 2 for r in P.relators)  # infinite dihedral


def test_subgroup_presentation_validates_S():
    with pytest.raises(ValueError):
        subgroup_presentation(4, set())
    with pytest.raises(ValueError):
        subgroup_presentation(4, {5})


def test_reversal_permutation():
    assert str(reversal_permutation(4, 1, 4)) == "(14)(23)"
    assert str(reversal_permutation(4, 1, 2)) == "(12)"
    assert reversal_permutation(4, 2, 3).images == (1, 3, 2, 4)


def test_projection_examples():
    assert str(project_to_symmetric(jw("s14"), 4)) == "(14)(23)"
    assert str(project_to_symmetric(pw(A_WORDS[2]), 4)) == "e"
    assert str(project_to_symmetric(pw(A_WORDS[1]), 4)) == "(14)(23)"


def test_projection_table_of_short_pure_candidates():
    for i, expected in PI_A.items():
        assert str(project_to_symmetric(pw(A_WORDS[i]), 4)) == expected


def test_projection_is_homomorphism():
    rng = random.Random(11)
    alph = j4_presentation().alphabet
    names = alph.names()
    for _ in range(150):
        u = Word(alph, [(rng.choice(names), 1) for _ in range(rng.randrange(0, 9))])
        v = Word(alph, [(rng.choice(names), 1) for _ in range(rng.randrange(0, 9))])
        pu = project_to_symmetric(u, 4)
        pv = project_to_symmetric(v, 4)
        assert project_to_symmetric(u * v, 4).images == pu.then(pv).images


@pytest.mark.parametrize("P", [j4_presentation(), j4prime_presentation()])
def test_projection_matches_a_fold_of_reversals(P):
    # an independent fold: one reversal permutation per letter, composed
    # left to right through Permutation.then
    rng = random.Random(15)
    names = P.alphabet.names()
    reversal = {nm: reversal_permutation(4, int(nm[1]), int(nm[2])) for nm in names}
    for length in range(201):
        letters = [rng.choice(names) for _ in range(length)]
        folded = Permutation.identity(4)
        for nm in letters:
            folded = folded.then(reversal[nm])
        word = Word(P.alphabet, [(nm, 1) for nm in letters])
        assert project_to_symmetric(word, 4) == folded


@pytest.mark.parametrize("P", [j4_presentation(), j4prime_presentation()])
def test_s4_table_holds_each_letters_reversal(P):
    table = s4_table(P)
    assert table is s4_table(P)  # built once, kept on P
    assert S4[0] == Permutation.identity(4) and len(set(S4)) == 24
    names = P.alphabet.names()
    letters = [reversal_permutation(4, int(nm[1]), int(nm[2])) for nm in names]
    assert len(table.step) == 24
    for i, row in enumerate(table.step):
        assert [S4[j] for j in row] == [S4[i].then(x) for x in letters]
    assert S4[cactus.W0] == Permutation((4, 3, 2, 1))


@pytest.mark.parametrize("P", [j4_presentation(), j4prime_presentation()])
def test_an_altered_letter_image_is_refused_at_build(monkeypatch, P):
    # every other image of any one letter breaks some relator, so the
    # table is not built
    for name in P.alphabet.names():
        for other in S4:
            if other != cactus._INTERVAL_IMAGES[name]:
                with monkeypatch.context() as m:
                    m.setitem(cactus._INTERVAL_IMAGES, name, other)
                    assert cactus._s4_table(P) is None, (name, other)
    assert cactus._s4_table(P) == s4_table(P)


def _s4_table_through_records(letters):
    """`S4Table.of` as it was built before it composed image tuples: one
    `Permutation.then` per entry, looked up in `S4`."""
    return cactus.S4Table(tuple(tuple(S4.index(p.then(x)) for x in letters) for p in S4))


@pytest.mark.parametrize("P", [j4_presentation(), j4prime_presentation()])
def test_the_s4_table_equals_the_one_built_through_permutation_records(P):
    letters = [cactus._INTERVAL_IMAGES[nm] for nm in P.alphabet.names()]
    assert cactus.S4Table.of(letters) == _s4_table_through_records(letters) == s4_table(P)
    # any letters, not only reversals: every permutation, and a shuffle
    rng = random.Random(37)
    for letters in (list(S4), rng.sample(S4, 7)):
        assert cactus.S4Table.of(letters) == _s4_table_through_records(letters)


@pytest.mark.parametrize("P", [j4_presentation(), j4prime_presentation()])
def test_an_s4_table_is_built_with_no_permutation_record(monkeypatch, P):
    built = []
    real = Permutation.__init__

    def counted(self, images):
        built.append(images)
        real(self, images)

    monkeypatch.setattr(Permutation, "__init__", counted)
    fresh = Presentation(P.alphabet, P.relators)  # an empty memo
    assert cactus.s4_table(fresh) == s4_table(P)
    assert built == []
    assert Permutation((2, 1, 3, 4)) and len(built) == 1  # the count sees a build


def test_only_intervals_of_1_to_4_get_an_s4_table():
    # the J4' relators over other names, J5's intervals, and a free
    # alphabet named like J4''s
    J4P = j4prime_presentation()
    plain = Alphabet(Generator(nm, involutive=True) for nm in "pqrst")
    renamed = Presentation(plain, [Word._from_codes(plain, r.codes) for r in J4P.relators])
    free = Alphabet(Generator(nm) for nm in J4P.alphabet.names())
    for P in (renamed, cactus_presentation(5), Presentation(free, [])):
        assert s4_table(P) is None
    # a relator that maps to a transposition
    assert s4_table(Presentation(J4P.alphabet, [*J4P.relators, pw("s12")])) is None


def test_projection_rejects_an_interval_outside_the_range():
    with pytest.raises(ValueError):
        project_to_symmetric(jw("s14"), 3)
    with pytest.raises(ValueError):
        project_to_symmetric(jw("s12 s34"), 3)
    # two out-of-range letters would compose back to a bijection
    with pytest.raises(ValueError):
        project_to_symmetric(jw("s14 s14"), 3)
    with pytest.raises(ValueError):
        reversal_permutation(4, 2, 5)


def test_parity_law_on_five_generator_words():
    # every generator of the subgroup projects to a transposition, so
    # the sign of the image tracks word length mod 2
    rng = random.Random(12)
    alph = j4prime_presentation().alphabet
    names = alph.names()
    for nm in names:
        p = project_to_symmetric(Word(alph, [(nm, 1)]), 4)
        assert len(p.cycles()) == 1 and len(p.cycles()[0]) == 2
    for _ in range(200):
        word = Word(alph, [(rng.choice(names), 1) for _ in range(rng.randrange(0, 12))])
        sign = project_to_symmetric(word, 4).sign()
        assert sign == (-1) ** len(word)


def test_is_pure():
    assert is_pure(pw(A_WORDS[2]), 4)
    assert not is_pure(pw("s12"), 4)
    assert is_pure(jw(A_WORDS[1] + " s14"), 4)


def test_permutation_algebra():
    p = Permutation((2, 1, 4, 3))
    q = Permutation((1, 3, 2, 4))
    assert p.then(p).is_identity()
    assert p.then(q).images == tuple(q.images[i - 1] for i in p.images)
    assert str(Permutation.identity(4)) == "e"
    with pytest.raises(ValueError):
        Permutation((1, 1, 2, 3))


def test_mirror_generator_involution():
    for nm in ("s12", "s13", "s23", "s24", "s34"):
        assert mirror_generator(mirror_generator(nm)) == nm
    assert mirror_generator("s12") == "s34"
    assert mirror_generator("s23") == "s23"
    # the letter-code table the action reads agrees
    names = j4prime_presentation().alphabet.names()
    assert [names[c] for c in J4P_MIRROR] == [mirror_generator(nm) for nm in names]


def test_push_examples():
    from cactus45.rewrite import words_equal

    Pp = j4prime_presentation()
    out, parity = push_s14_right(jw("s14 " + A_WORDS[1]))
    assert parity == 1
    assert words_equal(out, pw(A_WORDS[12]), Pp)

    out, parity = push_s14_right(jw("s14 s14"))
    assert out.is_identity() and parity == 0

    out, parity = push_s14_right(jw("s14 s13"))
    assert str(out) == "s24" and parity == 1


def test_push_preserves_projection_and_is_idempotent():
    rng = random.Random(13)
    alph = j4_presentation().alphabet
    names = alph.names()
    for _ in range(150):
        word = Word(alph, [(rng.choice(names), 1) for _ in range(rng.randrange(0, 10))])
        out, parity = push_s14_right(word)
        n_s14 = sum(1 for nm, _ in word.letters if nm == "s14")
        assert parity == n_s14 % 2
        assert len(out) + parity <= len(word)
        # same element of the big group: same symmetric-group image
        rebuilt = Word(alph, list(out.letters) + [("s14", 1)] * parity)
        assert (
            project_to_symmetric(rebuilt, 4).images
            == project_to_symmetric(word, 4).images
        )
        again, parity2 = push_s14_right(Word(alph, out.letters))
        assert again == out and parity2 == 0


def test_pure_word_pushes_to_central_image():
    # characterization used by the short-element search: a pure word
    # pushes to a five-generator word whose image is central
    rng = random.Random(14)
    alph = j4_presentation().alphabet
    names = alph.names()
    found = 0
    while found < 30:
        word = Word(alph, [(rng.choice(names), 1) for _ in range(rng.randrange(0, 9))])
        if not is_pure(word, 4):
            continue
        found += 1
        out, _parity = push_s14_right(word)
        assert str(project_to_symmetric(out, 4)) in ("e", "(14)(23)")
