import copy
import gc
import itertools
import pickle
import random
import tracemalloc
from collections import Counter

import pytest

from cactus45.cactus import (
    cactus_presentation,
    j4_presentation,
    j4prime_presentation,
    project_to_symmetric,
)
from cactus45.rewrite import (
    EQUAL,
    PROVEN_UNEQUAL,
    EqualityCertificate,
    Move,
    RewriteBudget,
    RewriteSystem,
    canonical_form,
    sphere,
    system_for,
    words_equal,
)
from cactus45 import cactus, rewrite, words
from cactus45.complex import _construct, build_ball
from cactus45.grouptheory import one_relator_presentation, word_problem_search
from cactus45.words import Alphabet, Generator, Presentation, Word

from complex_helpers import plain_ball

import rewrite_oracle
from rewrite_oracle import (
    PENTAGON,
    apply,
    expected_route,
    flip_at_random,
    involutive,
    inverted,
    oracle_for,
    random_word,
    relator_walk,
    rewrite_neighbors,
    s4_image,
)

from fixtures import (
    A_INVERSE_PAIRS,
    A_WORDS,
    CONJ_RANGE,
    LENGTH2_WORDS,
    TABLE_LENGTH3,
    TABLE_LENGTH4_DUPLICATE,
    TABLE_LENGTH4_MISSING,
    TABLE_LENGTH4_PRINTED,
)

PP = j4prime_presentation()
P4 = j4_presentation()


def pw(text):
    return Word.parse(PP.alphabet, text)


def jw(text):
    return Word.parse(P4.alphabet, text)


def test_a_certificate_that_fails_its_replay_is_an_internal_error(monkeypatch):
    # a replay that makes no move leaves the first word, not the second
    monkeypatch.setattr(rewrite, "replay", lambda P, w, moves, edit: w)
    with pytest.raises(AssertionError, match="^internal error: certificate failed to replay$"):
        words_equal(PP.word("s12 s34"), PP.word("s34 s12"), PP, certificate=True)


def test_budget_validation():
    with pytest.raises(ValueError):
        RewriteBudget(slack=1)
    with pytest.raises(ValueError):
        RewriteBudget(slack=-2)
    with pytest.raises(ValueError):
        RewriteBudget(max_states=0)


def test_neighbors_of_commuting_pair():
    ns = rewrite_neighbors(pw("s12 s34"), PP)
    assert pw("s34 s12") in ns
    assert pw("s12 s34 s13 s13") in ns  # an insertion
    # every neighbor is one move away: length 0, 2, or 4
    assert {len(n) for n in ns} <= {0, 2, 4}


def test_neighbors_nesting_swap():
    assert pw("s23 s13") in rewrite_neighbors(pw("s13 s12"), PP)
    assert pw("s13 s12") in rewrite_neighbors(pw("s23 s13"), PP)


def test_neighbors_of_identity_are_insertions():
    ns = rewrite_neighbors(pw("e"), PP)
    assert ns == {pw(f"{n} {n}") for n in PP.alphabet.names()}
    assert rewrite_neighbors(pw("e"), PP, slack=0) == set()


def test_canonical_form_examples():
    assert str(canonical_form(pw("s34 s12"), PP)) == "s12 s34"
    assert str(canonical_form(pw("s13 s13"), PP)) == "e"
    assert str(canonical_form(pw("s23 s13"), PP)) == "s13 s12"


def test_canonical_form_constant_on_class():
    rng = random.Random(21)
    names = PP.alphabet.names()
    for _ in range(40):
        word = Word(PP.alphabet, [(rng.choice(names), 1) for _ in range(rng.randrange(0, 7))])
        c = canonical_form(word, PP)
        for n in rewrite_neighbors(word, PP):
            assert canonical_form(n, PP) == c


def test_canonical_form_of_long_word_is_exact():
    # a 10^3-letter spelling of a known length-8 normal form, built by
    # relator moves
    rng = random.Random(5)
    target = sphere(PP, 8)[1234]
    word = relator_walk(PP, target, 1000, rng)
    assert len(word) >= 1000
    assert canonical_form(word, PP) == target


def test_sphere_counts():
    assert [len(sphere(PP, L)) for L in range(5)] == [1, 5, 15, 40, 105]


def test_sphere_stability_between_slack_levels():
    # sphere still accepts the budget the benchmark's growth pass
    # passes, and no budget changes its result
    for L in range(5):
        s0 = sphere(PP, L, RewriteBudget(slack=0))
        s2 = sphere(PP, L, RewriteBudget(slack=2))
        assert s0 == s2


def test_sphere_elements_are_canonical_geodesics():
    for L in range(4):
        for v in sphere(PP, L):
            assert len(v) == L
            assert canonical_form(v, PP) == v


def test_length2_sphere_matches_listed_words():
    reps = {str(canonical_form(pw(t), PP)) for t in LENGTH2_WORDS}
    assert len(reps) == 15
    assert reps == {str(v) for v in sphere(PP, 2)}


def test_length3_table_matches_sphere():
    s3 = {str(v) for v in sphere(PP, 3)}
    reps = set()
    for t in TABLE_LENGTH3:
        c = canonical_form(pw(t), PP)
        assert len(c) == 3, t
        reps.add(str(c))
    assert len(reps) == 40
    assert reps == s3


def test_length4_table_covers_all_but_one_element():
    s4 = {str(v) for v in sphere(PP, 4)}
    assert len(TABLE_LENGTH4_PRINTED) == 105
    distinct = set(TABLE_LENGTH4_PRINTED)
    assert len(distinct) == 104  # one spelling occurs twice
    dup = [t for t in distinct if TABLE_LENGTH4_PRINTED.count(t) == 2]
    assert dup == [TABLE_LENGTH4_DUPLICATE]
    covered = {str(canonical_form(pw(t), PP)) for t in distinct}
    assert len(covered) == 104
    assert s4 - covered == {TABLE_LENGTH4_MISSING}


def test_equal_with_certificate_replays():
    pairs = [
        (pw("s34 s13 s23 s24"), pw("s34 s13 s24 s34")),  # the noted respelling
        (pw("s34 s12"), pw("s12 s34")),
        (pw("s13 s12"), pw("s23 s13")),
        (pw(A_WORDS[16]), pw("s34 s13 s24 s34")),
    ]
    for w1, w2 in pairs:
        res = words_equal(w1, w2, PP, certificate=True)
        assert res.equal and res.status == EQUAL
        assert res.certificate is not None
        assert res.certificate.verify(PP, w1, w2)
        assert res.certificate.replay(PP, w1) == w2


def test_unequal_by_projection_is_proven():
    res = words_equal(pw("s12"), pw("s13"), PP)
    assert not res.equal
    assert res.status == PROVEN_UNEQUAL
    assert (res.oracle, res.witness) == ("s4", (s4_image(pw("s12")), s4_image(pw("s13"))))


def test_unequal_same_projection_is_not_found():
    # same symmetric-group image but different elements: the distinct
    # normal forms decide it and are the witness
    w1, w2 = pw(A_WORDS[1]), pw(A_WORDS[3])
    assert project_to_symmetric(w1, 4).images == project_to_symmetric(w2, 4).images
    res = words_equal(w1, w2, PP)
    assert not res.equal
    assert (res.status, res.oracle) == (PROVEN_UNEQUAL, "rewrite")
    assert res.witness == (canonical_form(w1, PP), canonical_form(w2, PP))


def test_inverse_pair_collapses_to_identity():
    res = words_equal(pw(A_WORDS[1] + " " + A_WORDS[17]), pw("e"), PP, certificate=True)
    assert res.equal
    assert res.certificate.verify(PP, pw(A_WORDS[1] + " " + A_WORDS[17]), pw("e"))


def test_full_group_equality_with_fourth_generator():
    lhs = jw("s14 " + A_WORDS[1])
    rhs = jw(A_WORDS[12] + " s14")
    assert words_equal(lhs, rhs, P4).equal


def test_conjugation_table_through_full_reversal():
    for i in CONJ_RANGE:
        lhs = jw("s14 " + A_WORDS[i])
        rhs = jw(A_WORDS[13 - i] + " s14")
        assert words_equal(lhs, rhs, P4).equal, i


def test_inverse_table():
    for i, j in A_INVERSE_PAIRS.items():
        prod = pw(A_WORDS[i] + " " + A_WORDS[j])
        res = words_equal(prod, pw("e"), PP, certificate=True)
        assert res.equal, (i, j)
        assert res.certificate is not None and res.certificate.verify(PP, prod, pw("e"))


def test_certificates_preserve_projection():
    # every certified pair has the same symmetric-group image
    rng = random.Random(23)
    names = PP.alphabet.names()
    checked = 0
    while checked < 25:
        word = Word(PP.alphabet, [(rng.choice(names), 1) for _ in range(rng.randrange(1, 6))])
        c = canonical_form(word, PP)
        res = words_equal(word, c, PP, certificate=True)
        assert res.equal
        if res.certificate is None:
            continue
        checked += 1
        assert (
            project_to_symmetric(word, 4).images
            == project_to_symmetric(c, 4).images
        )


def test_rewrite_layer_rejects_noninvolutive_alphabet():
    from cactus45.words import Alphabet, Generator, Presentation

    free = Alphabet([Generator("a")])
    P = Presentation(free, [Word.parse(free, "a a a")])
    with pytest.raises(ValueError):
        canonical_form(Word.parse(free, "a"), P)


def test_a_copy_of_a_presentation_starts_with_an_empty_memo():
    # the memo is no part of the value: a copy or a pickle equals J4'
    # and derives its own engine
    J4P = j4prime_presentation()
    engine = system_for(J4P)
    assert J4P._memo
    for twin in (copy.copy(J4P), copy.deepcopy(J4P), pickle.loads(pickle.dumps(J4P))):
        assert twin == J4P and hash(twin) == hash(J4P)
        assert twin._memo == {}
        assert system_for(twin) is not engine
        assert list(twin._memo) == [(rewrite._engine,)]


def test_one_j4prime_engine(monkeypatch):
    # J4's split engine holds the J4' engine that J4' keeps; the action,
    # the spheres and J4's words all run on that one engine
    from cactus45.action import TWENTY, gamma

    J4P, J4 = j4prime_presentation(), j4_presentation()
    engine = system_for(J4P)
    assert system_for(J4).inner is engine
    ran = []
    geodesic = RewriteSystem.geodesic

    def recording(self, *args, **kwargs):
        ran.append(id(self))
        return geodesic(self, *args, **kwargs)

    monkeypatch.setattr(RewriteSystem, "geodesic", recording)
    gamma(TWENTY[0], J4P.word("s12 s23"))
    assert len(sphere(J4P, 3)) == 40
    assert words_equal(J4.word("s12 s14"), J4.word("s14 s34"), J4)
    assert ran and set(ran) == {id(engine)}
    assert system_for(J4P) is engine
    assert build_ball(J4P, 4) is J4P._memo[(_construct, 4)]


# ---------------------------------------------------------------------------
# the exact engine against the closure oracle, and on long random words


def test_normal_form_matches_closure_oracle_on_all_short_words():
    sys, o = system_for(PP), oracle_for(PP)
    count = 0
    for L in range(8):
        for t in itertools.product(range(5), repeat=L):
            assert sys.normal_form(t) == o.dcanon(t), t
            count += 1
    assert count == 97656


def _sunk_length(g):
    """Length of a geodesic as an engine holds it: J4' a list, J4 (u, p)."""
    return len(g[0]) + g[1] if isinstance(g, tuple) else len(g)


def _check_prefix_sinks(sys, t, K):
    """geodesic(t, start=k), moves included, is geodesic(t) for every
    k <= K, where t[:K] is geodesic; the normal forms agree at k = K.
    Returns the length of geodesic(t)."""
    want_trace = []
    want = sys.geodesic(t, want_trace)
    for k in range(K + 1):
        trace = []
        assert sys.geodesic(t, trace, start=k) == want, (t, k)
        assert trace == want_trace, (t, k)
    assert sys.normal_form(t, start=K) == sys.normal_form(t), t
    return _sunk_length(want)


@pytest.mark.parametrize("P, max_length", [(PP, 6), (P4, 5)], ids=["j4p", "j4"])
def test_sinking_after_a_geodesic_prefix_is_exact(P, max_length):
    sys, rng = system_for(P), random.Random(31)
    n = len(P.alphabet)
    # every word, and every k with t[:k] geodesic; prefixes of a
    # geodesic are geodesic, so those k are 0..K, K read off t[:-1]
    K = {(): 0}
    for L in range(1, max_length + 1):
        for t in itertools.product(range(n), repeat=L):
            k = K[t[:-1]]
            K[t] = L if _check_prefix_sinks(sys, t, k) == L == k + 1 else k
    geodesic = sum(K[t] == len(t) for t in K)
    assert 1000 < geodesic < len(K) - 1000
    for _ in range(2000):
        t = tuple(rng.randrange(n) for _ in range(rng.randrange(7, 25)))
        k = 0
        while k < len(t) and _sunk_length(sys.geodesic(t[: k + 1])) == k + 1:
            k += 1
        _check_prefix_sinks(sys, t, k)


def test_full_group_spheres_match_closure_oracle():
    o = oracle_for(P4)
    for L in range(5):
        assert sphere(P4, L) == [o.decode(t) for t in o.sphere(L)]
    assert [len(sphere(P4, L)) for L in range(6)] == [1, 6, 20, 55, 145, 380]


# Z/2 x Z/2 free product Z/2
KLEIN_FREE = involutive("a b c", ["a b a b"])


@pytest.mark.parametrize(
    "P, top",
    [(PP, 8), (P4, 7), (PENTAGON, 9), (KLEIN_FREE, 9)],
    ids=["j4p", "j4", "pentagon", "klein-free"],
)
def test_sphere_walk_equals_sink_and_sort(P, top):
    levels = rewrite_oracle.sink_and_sort_spheres(P)
    for L in range(top + 1):
        assert [w.codes for w in sphere(P, L)] == next(levels)


def _automaton_faults(P, top):
    """The normal forms of S_0 .. S_top at which the automaton's row
    differs from the sink-and-sort oracle's; each form's state is read
    off the rows from state 0, and the engine's levels must be the
    oracle's spheres.  Also the states no level meets."""
    engine = system_for(P)
    rows, levels = engine.automaton.rows, rewrite_oracle.sink_and_sort_spheres(P)
    faults, unmet = [], set(range(len(rows)))
    for L, level in enumerate(itertools.islice(engine.spheres(), top + 1)):
        if level != next(levels):
            faults.append((L, "level"))
        for t in level:
            s = 0
            for z in t:
                s = dict(rows[s])[z]
            unmet.discard(s)
            if {z for z, _ in rows[s]} != rewrite_oracle.automaton_row(P, t):
                faults.append((t, "row"))
    return faults, unmet


@pytest.mark.parametrize(
    "P, states", [(PP, 23), (PENTAGON, 17), (KLEIN_FREE, 5)], ids=["j4p", "pentagon", "klein-free"]
)
def test_the_automaton_rows_are_the_normal_form_extensions(P, states):
    # state 0 is the empty word's; every state is met by length 6
    automaton = system_for(P).automaton
    assert len(automaton.rows) == states
    assert [z for z, _ in automaton.rows[0]] == list(range(len(P.alphabet)))
    assert all([z for z, _ in row] == sorted(z for z, _ in row) for row in automaton.rows)
    assert _automaton_faults(P, 6) == ([], set())


def test_a_letter_dropped_from_one_row_is_caught(monkeypatch):
    # state 14, first met on the sphere of length 3, loses its last letter
    real = system_for(PP).automaton
    rows = list(real.rows)
    rows[14] = rows[14][:-1]
    monkeypatch.setitem(PP._memo, (rewrite._automaton,), real._replace(rows=tuple(rows)))
    faults, _ = _automaton_faults(PP, 6)
    assert (3, "level") not in faults and (4, "level") in faults
    assert any(kind == "row" for _, kind in faults)
    ball, plain = _construct(PP, 4), plain_ball(PP, 4)
    assert list(ball.vertices.items()) != list(plain.vertices.items())


def test_accepts_reads_the_longest_normal_form_prefix():
    # normal forms are closed under prefixes, so the prefix of length k
    # must be one and the prefix of length k + 1 not
    rng, engine = random.Random(2101), system_for(PP)
    for _ in range(200):
        t = canonical_form(random_word(PP, rng.randrange(30), rng), PP).codes
        t += tuple(rng.randrange(5) for _ in range(rng.randrange(4)))
        k = engine.accepts(t)
        assert engine.normal_form(t[:k]) == t[:k]
        assert k == len(t) or engine.normal_form(t[:k + 1]) != t[:k + 1]


def test_the_automaton_is_built_once_and_never_for_equality():
    Q = involutive("p q r s t", ["p q p q", "q r q r", "r s r s", "s t s t", "t p t p"])
    p, q = Q.word("p"), Q.word("q")

    def built():
        return [k for k in Q._memo if k[0] is rewrite._automaton]

    assert words_equal(p * q, q * p, Q).equal and canonical_form(q * p, Q) == p * q
    assert built() == []
    assert len(sphere(Q, 4)) == 105
    automaton = system_for(Q).automaton
    assert built() == [(rewrite._automaton,)]
    # p q r is a normal form; p r q spells it too, and p q p spells q
    engine = system_for(Q)
    assert [engine.accepts(t) for t in ((), (0, 1, 2), (0, 2, 1), (0, 1, 0))] == [0, 3, 2, 2]
    assert len(sphere(Q, 5)) == 275 and system_for(Q).automaton is automaton


def test_no_sphere_outlives_its_call():
    for P in (PP, P4):
        sphere(P, 1)  # the engines exist before measuring
    gc.collect()
    tracemalloc.start()
    try:
        sphere(PP, 9)
        sphere(P4, 8)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 100_000


@pytest.mark.parametrize("P", [PP, P4], ids=["j4p", "j4"])
@pytest.mark.parametrize("length", [40, 200, 1000])
def test_certificates_of_random_relator_walks_replay(P, length):
    rng = random.Random(length)
    for _ in range(5):
        u = random_word(P, length, rng)
        v = relator_walk(P, u, length + 20, rng)
        res = words_equal(u, v, P, certificate=True)
        assert res.equal and res.status == EQUAL
        assert res.certificate.verify(P, u, v)
        assert {m.kind for m in res.certificate.moves} <= {"swap", "delete", "insert"}


def _replay_outcome(replay, cert, P, w):
    try:
        return replay(cert, P, w)
    except ValueError:
        return "refused"


@pytest.mark.parametrize("P", [PP, P4], ids=["j4p", "j4"])
def test_linear_replay_agrees_with_rebuilding_oracle(P):
    rng = random.Random(7)
    square = Word._from_codes(P.alphabet, (0, 0))
    for length in (20, 80, 300, 1000):
        for _ in range(3):
            u = random_word(P, length, rng)
            v = relator_walk(P, u, length + 40, rng)
            moves = words_equal(u, v, P, certificate=True).certificate.moves
            k = rng.randrange(len(moves))
            m = moves[k]
            # a bad position, a shifted one, a non-relator, an unknown kind
            corrupted = [
                (Move(len(v) + 3, m.relator, m.kind), "refused"),
                (Move(m.position + 1, m.relator, m.kind), None),
                (Move(m.position, Word._from_codes(P.alphabet, m.relator.codes[:1] * 4), "swap"), "refused"),
                (Move(m.position, square, "flip"), "refused"),
            ]
            cases = [(moves, v), (moves[:k] + moves[k + 1 :], None)]
            cases += [(moves[:k] + (bad,) + moves[k + 1 :], want) for bad, want in corrupted]
            for mvs, expected in cases:
                cert = EqualityCertificate(mvs)
                new = _replay_outcome(EqualityCertificate.replay, cert, P, u)
                assert new == _replay_outcome(rewrite_oracle.replay, cert, P, u)
                assert expected in (None, new)


def test_the_cursor_reaches_both_ends_of_the_word():
    # w starts and ends on the commuting pair s12 s34, so a swap fits at
    # its first and at its last position
    w = pw("s12 s34 s23 s12 s34")
    n = len(w)
    sq, swap = pw("s13 s13"), pw("s12 s34 s12 s34")
    cases = [
        ([], w),
        ([Move(0, sq, "insert")], pw("s13 s13 s12 s34 s23 s12 s34")),
        ([Move(n, sq, "insert")], pw("s12 s34 s23 s12 s34 s13 s13")),
        ([Move(0, swap, "swap"), Move(n - 2, swap, "swap")], pw("s34 s12 s23 s34 s12")),
        # out to the end, back to 0, to the end again and back to 0
        (
            [Move(n, sq, "insert"), Move(0, sq, "insert"),
             Move(n + 2, sq, "delete"), Move(0, sq, "delete")],
            w,
        ),
        ([Move(n - 2, swap, "swap"), Move(0, swap, "swap")], pw("s34 s12 s23 s34 s12")),
        # past either end, or a pair that runs over the end
        ([Move(n + 1, sq, "insert")], "refused"),
        ([Move(-1, sq, "insert")], "refused"),
        ([Move(n - 1, swap, "swap")], "refused"),
        ([Move(n, sq, "insert"), Move(n + 1, sq, "delete")], "refused"),
    ]
    for moves, expected in cases:
        cert = EqualityCertificate(tuple(moves))
        got = _replay_outcome(EqualityCertificate.replay, cert, PP, w)
        assert got == _replay_outcome(rewrite_oracle.replay, cert, PP, w) == expected


def flip_distance(P, u, v):
    """Fewest square flips from u to v, by breadth-first search."""
    o = oracle_for(P)
    start, goal = o.encode(u), o.encode(v)
    layer, seen, d = {start}, {start}, 0
    while goal not in layer:
        layer = {y for x in layer for y in o.swap_neighbors(x)} - seen
        seen |= layer
        d += 1
    return d


def test_certificate_between_geodesics_is_a_shortest_flip_path():
    rng = random.Random(9)
    o = oracle_for(PP)
    for u in rng.sample(sphere(PP, 8), 30):
        t = list(o.encode(u))
        flip_at_random(PP, t, 4, rng)
        v = o.decode(t)
        res = words_equal(u, v, PP, certificate=True)
        assert len(res.certificate.moves) == flip_distance(PP, u, v)


def test_normal_form_is_invariant_under_square_flips():
    rng = random.Random(8)
    o = oracle_for(PP)
    for _ in range(40):
        w = random_word(PP, rng.randrange(5, 60), rng)
        t = list(o.encode(w))
        flip_at_random(PP, t, 3 * len(t), rng)
        assert canonical_form(o.decode(t), PP) == canonical_form(w, PP)


def test_sphere_sizes_follow_the_growth_recurrence():
    # rational growth a_L = 3 a_{L-1} - a_{L-2} (Cannon 1984)
    sizes = [len(sphere(PP, L)) for L in range(10)]
    assert sizes[3:] == [40, 105, 275, 720, 1885, 4935, 12920]
    for L in range(3, 10):
        assert sizes[L] == 3 * sizes[L - 1] - sizes[L - 2]


def test_planted_fake_relator_is_rejected():
    # s12 s13 s24 s34 is no relator, and the two words differ
    w1, w2 = pw("s12 s13"), pw("s34 s24")
    fake = EqualityCertificate((Move(0, pw("s12 s13 s24 s34"), "swap"),))
    assert not fake.verify(PP, w1, w2)
    with pytest.raises(ValueError):
        fake.replay(PP, w1)
    assert words_equal(w1, w2, PP).status == PROVEN_UNEQUAL
    # a deletion or insertion must use a stored square
    assert not EqualityCertificate((Move(0, pw("s12 s13"), "delete"),)).verify(PP, w1, pw("e"))
    assert not EqualityCertificate((Move(0, pw("s12 s13"), "insert"),)).verify(PP, pw("e"), w1)
    # a genuine relator rotation and its reverse are accepted
    real = EqualityCertificate((Move(0, pw("s12 s34 s12 s34"), "swap"),))
    assert real.verify(PP, pw("s12 s34"), pw("s34 s12"))
    back = EqualityCertificate((inverted(Move(0, pw("s13 s12 s13 s23"), "swap")),))
    assert back.verify(PP, pw("s23 s13"), pw("s13 s12"))


# a square whose letters are not two commuting ones: a b a c turns
# a b into c a, so the table's two entries differ from the pair itself
BENT = involutive("a b c", ["a b a c"])


@pytest.mark.parametrize("P", [PP, BENT, KLEIN_FREE], ids=["j4p", "bent", "klein-free"])
def test_the_flip_table_is_read_off_the_forms(P):
    engine = system_for(P)
    n = len(P.alphabet)
    assert len(engine.flip) == n and all(len(row) == n for row in engine.flip)
    for y in P.forms:
        assert engine.flip[y[0]][y[1]] == (y[3], y[2]), y
    on_squares = {y[:2] for y in P.forms}
    for a, b in itertools.product(range(n), repeat=2):
        if (a, b) not in on_squares:
            assert engine.flip[a][b] is None, (a, b)
    assert not hasattr(engine, "swap")


def test_flip_table_of_the_bent_square():
    a, b, c = range(3)
    flips = {(a, b): (c, a), (b, a): (a, c), (a, c): (b, a), (c, a): (a, b)}
    flip = system_for(BENT).flip
    assert {(x, y): flip[x][y] for x in range(3) for y in range(3) if flip[x][y]} == flips


def test_a_pair_on_two_squares_is_refused():
    # a b lies on a b a b and on a b c b
    with pytest.raises(ValueError, match=r"letters \(0, 1\) lie on two squares"):
        RewriteSystem(involutive("a b c", ["a b a b", "a b c b"]))


def test_engine_rejects_complexes_that_are_not_cat0():
    with pytest.raises(ValueError, match="triangle"):
        RewriteSystem(P4)  # the full reversal's link has triangles
    with pytest.raises(ValueError):
        canonical_form(Word.parse(cactus_presentation(5).alphabet, "s12"), cactus_presentation(5))


# ---------------------------------------------------------------------------
# one sink per word, and one table of relator forms per presentation


def _pairs(P, rng):
    """Seeded pairs: equal ones by relator walks, unequal ones that are
    random, one letter apart, one pure word apart (the same S4 image),
    or equal up to a last letter (the flips then get far before they
    fail); in J4 some differ in s14 parity."""
    names = P.alphabet.names()
    pure = P.word("s13 s24 s13 s24")  # a translation, so nontrivial
    for length in (0, 1, 6, 20, 60):
        for _ in range(6):
            u = random_word(P, length, rng)
            v = relator_walk(P, u, length + 12, rng)
            g = Word(P.alphabet, [(rng.choice(names), 1)])
            p = rng.randrange(len(v) + 1)
            yield u, v
            yield u, random_word(P, length, rng)
            yield u, v[:p] * g * v[p:]
            yield u, v[:p] * pure * v[p:]
            yield u * g, relator_walk(P, u, length + 12, rng) * Word(P.alphabet, [(rng.choice(names), 1)])


@pytest.mark.parametrize("P", [PP, P4], ids=["j4p", "j4"])
def test_words_equal_matches_the_two_sink_oracle(P):
    # the oracle decides by two normal forms; a pair whose S4 images
    # differ is decided by them, with the images as witness
    rng = random.Random(1207)
    seen = Counter()
    for u, v in _pairs(P, rng):
        for certificate in (True, False):
            got = words_equal(u, v, P, certificate=certificate)
            want = rewrite_oracle.words_equal(u, v, P, certificate=certificate)
            assert (got.equal, got.status) == (want.equal, want.status)
            assert (got.oracle, got.witness) == expected_route(u, v, want), (u, v)
            assert got.certificate == want.certificate, (u, v)
        seen[got.equal, got.oracle] += 1
    # both witnesses of inequality, and equal pairs, on each group
    assert set(seen) == {(True, "rewrite"), (False, "rewrite"), (False, "s4")}
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("P", [PP, P4], ids=["j4p", "j4"])
def test_a_pair_with_two_s4_images_is_neither_sunk_nor_sorted(monkeypatch, P):
    rng = random.Random(33)
    u = random_word(P, 200, rng)
    v = relator_walk(P, u, 300, rng) * P.word("s12")
    system_for(P)
    sinks = _count_calls(monkeypatch, RewriteSystem, "geodesic")
    sorts = _count_calls(monkeypatch, RewriteSystem, "sort")
    for certificate in (False, True):
        got = words_equal(u, v, P, certificate=certificate)
        assert (got.status, got.oracle, got.certificate) == (PROVEN_UNEQUAL, "s4", None)
        assert got.witness == (s4_image(u), s4_image(v))
    assert sinks == [] and sorts == []
    # one pure word apart, the pair has one image and is rewritten
    pure = u * P.word("s13 s24 s13 s24")
    got = words_equal(u, pure, P)
    assert len(sinks) == 2 and sorts  # J4 sorts again after placing s14
    forms = canonical_form(u, P), canonical_form(pure, P)
    assert (got.oracle, got.witness) == ("rewrite", forms)


def test_a_presentation_with_no_s4_table_is_decided_by_rewriting():
    # J4''s relators over names that are no intervals
    plain = Alphabet(Generator(nm, involutive=True) for nm in "pqrst")
    P = Presentation(plain, [Word._from_codes(plain, r.codes) for r in PP.relators])
    assert cactus.s4_table(P) is None
    u, v = P.word("p t q"), P.word("t p q")
    assert words_equal(u, v, P, certificate=True).certificate.verify(P, u, v)
    got = words_equal(u, u[:2], P)
    assert (got.status, got.oracle) == (PROVEN_UNEQUAL, "rewrite")
    assert got.witness == (canonical_form(u, P), canonical_form(u[:2], P))


def test_a_refused_s4_table_leaves_words_equal_to_rewriting(monkeypatch):
    # s12 sent to the identity: a fresh copy of J4' builds no table, and
    # a pair one letter apart is sunk and sorted
    monkeypatch.setitem(cactus._INTERVAL_IMAGES, "s12", cactus.S4[0])
    P = copy.deepcopy(PP)
    u = P.word("s13 s12")
    got = words_equal(u, u[:1], P)
    assert cactus.s4_table(P) is None
    assert (got.status, got.oracle) == (PROVEN_UNEQUAL, "rewrite")
    assert got.witness == (canonical_form(u, P), canonical_form(u[:1], P))


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("P", [PP, P4], ids=["j4p", "j4"])
def test_certified_equality_sinks_each_word_once(monkeypatch, P):
    rng = random.Random(5)
    u = random_word(P, 30, rng)
    v = relator_walk(P, u, 50, rng)
    system_for(P)
    sinks = _count_calls(monkeypatch, RewriteSystem, "geodesic")
    built = _count_calls(monkeypatch, Presentation, "__init__")
    stored = _count_calls(monkeypatch, words, "_stored_relators")
    res = words_equal(u, v, P, certificate=True)
    assert res.equal and len(sinks) == 2  # 4 when the paths sank the words again
    for _ in range(3):
        assert res.certificate.verify(P, u, v)
    # replay reads P.forms, listed once when P was built
    assert built == [] and stored == []


def _plain_lift(sys, g1, g2, trace):
    """`RewriteSystem.lift` as it was: every position through `_lift`,
    also one that already holds g2's letter."""
    return len(g1) == len(g2) and all(sys._lift(g1, k, x, trace) for k, x in enumerate(g2))


def _lift_mismatches(lift):
    """The seeded pairs of J4' geodesics g1, g2, of words of up to 500
    letters, on which lift(sys, g1, g2, trace) and `_plain_lift` differ
    in verdict, in the final g1 or in the trace.  Two pairs of each
    draw are equal; the third is one letter off at the end, so its
    flips get far before they fail."""
    sys, rng, bad, verdicts, longest = system_for(PP), random.Random(4211), [], Counter(), 0
    for length in (0, 3, 12, 40, 120, 300, 480):
        for _ in range(4):
            u = random_word(PP, length, rng)
            v = relator_walk(PP, u, length + 20, rng)
            g = sys.geodesic(u.codes)
            flipped = list(g)
            near = next((t for t in (g[:-1] + [z] for z in range(sys.n) if g and z != g[-1])
                         if len(sys.geodesic(t)) == len(g)), [])
            for t in (flipped, near):
                flip_at_random(PP, t, len(t), rng)
            longest = max(longest, len(v))
            for w1, g2 in ((u, sys.geodesic(v.codes)), (v, flipped), (v, near)):
                runs = []
                for f in (lift, _plain_lift):
                    g1, trace = sys.geodesic(w1.codes), []
                    runs.append((f(sys, g1, g2, trace), g1, trace))
                verdicts[runs[1][0]] += 1
                if runs[0] != runs[1]:
                    bad.append((w1, g2))
    assert verdicts == {True: 60, False: 24} and longest == 500
    return bad


def test_lift_passes_letters_in_place_with_the_plain_trace():
    assert _lift_mismatches(RewriteSystem.lift) == []


def test_a_lift_that_also_passes_commuting_letters_is_caught():
    def passes_commuting(sys, g1, g2, trace):
        if len(g1) != len(g2):
            return False
        for k, x in enumerate(g2):
            if g1[k] == x or sys.flip[g1[k]][x] == (x, g1[k]):
                continue  # wrong: x commutes with g1[k], but g1[k] is not x
            if not sys._lift(g1, k, x, trace):
                return False
        return True

    assert len(_lift_mismatches(passes_commuting)) >= 10


def test_lift_calls_the_flips_only_where_the_letters_differ(monkeypatch):
    # a geodesic and a spelling of it reached by square flips
    sys, rng = system_for(PP), random.Random(79)
    g1 = sys.geodesic(random_word(PP, 60, rng).codes)
    g2 = list(g1)
    flip_at_random(PP, g2, 40, rng)
    plain, differ = list(g1), 0
    for k, x in enumerate(g2):
        differ += plain[k] != x
        assert sys._lift(plain, k, x, None)
    calls = _count_calls(monkeypatch, RewriteSystem, "_lift")
    assert sys.lift(g1, g2, None) and g1 == g2
    assert len(calls) == differ == 8 < len(g2) == 32


_KERNEL_GROUPS = pytest.mark.parametrize(
    "P", [PP, PENTAGON, KLEIN_FREE, BENT], ids=["j4p", "pentagon", "klein-free", "bent"]
)


@_KERNEL_GROUPS
def test_below_lists_the_lesser_letters_on_a_square(P):
    on_squares = {y[:2] for y in P.forms}
    n = len(P.alphabet)
    want = [tuple(x for x in range(y) if (x, y) in on_squares) for y in range(n)]
    assert system_for(P).below == want
    if P is PP:
        assert want == [(), (0,), (1,), (2,), (0, 3)]


def _sort_mismatches(P):
    """The seeded geodesics of P, of words of up to 300 letters, on which
    `sort` or `normal_form` differs from `rewrite_oracle.plain_sort`
    after `plain_sink`; each geodesic is also sorted after random square
    flips, so that most inputs are not normal forms already."""
    sys, rng, bad, moved, longest = system_for(P), random.Random(3307), [], 0, 0
    for length in (0, 1, 4, 15, 50, 120, 300):
        for _ in range(4):
            t = random_word(P, length, rng).codes
            longest = max(longest, len(t))
            g = rewrite_oracle.plain_sink(sys, t)
            flipped = list(g)
            flip_at_random(P, flipped, len(g), rng)
            for w in (g, flipped):
                want = rewrite_oracle.plain_sort(sys, list(w))
                moved += want != tuple(w)
                if sys.sort(list(w)) != want:
                    bad.append(w)
            if sys.normal_form(t) != rewrite_oracle.plain_sort(sys, g):
                bad.append(t)
    assert longest == 300 and moved >= 10
    return bad


@_KERNEL_GROUPS
def test_sort_and_normal_form_agree_with_the_plain_sort(P):
    assert _sort_mismatches(P) == []


def test_a_sort_missing_one_lesser_letter_is_caught(monkeypatch):
    # each of J4''s five entries of `below` dropped in turn
    engine = system_for(PP)
    real = engine.below
    for y, xs in enumerate(real):
        for x in xs:
            planted = list(real)
            planted[y] = tuple(z for z in xs if z != x)
            monkeypatch.setattr(engine, "below", planted)
            assert len(_sort_mismatches(PP)) >= 5, (y, x)


@_KERNEL_GROUPS
def test_the_sink_keeps_its_word_and_trace_with_or_without_a_trace(P):
    # seeded words of up to 300 letters, nearly all of which cancel:
    # the word is the same with a trace or without, and it and the trace
    # are the plain sink's
    sys, rng, cancelled = system_for(P), random.Random(6203), 0
    for length in (4, 15, 50, 120, 300):
        for _ in range(5):
            t = random_word(P, length, rng).codes
            trace, want_trace = [], []
            g = sys.geodesic(t)
            assert sys.geodesic(t, trace) == g == rewrite_oracle.plain_sink(sys, t, want_trace)
            assert trace == want_trace, t
            cancelled += len(g) < len(t)
    assert cancelled >= 20


def test_the_ball_makes_as_many_lifts_as_before_the_sort_was_tuned(monkeypatch):
    # `below` drops the letters that the flip table turned away before
    # any lift; the lifts themselves, the work, are the same
    system_for(PP)
    lifts = _count_calls(monkeypatch, RewriteSystem, "_lift")
    forms = _count_calls(monkeypatch, RewriteSystem, "normal_form")
    _construct(PP, 4)
    assert (len(lifts), len(forms)) == (12_476, 3_790)


def test_replay_needs_a_presentation_with_an_engine():
    u, v = pw("s12 s34"), pw("s34 s12")
    cert = words_equal(u, v, PP, certificate=True).certificate
    assert cert.verify(PP, u, v)
    # the same relators without the squares: the moves are still stored
    # relators, but the presentation has no exact engine
    no_squares = Presentation(PP.alphabet, [r for r in PP.relators if len(r) == 4])
    with pytest.raises(ValueError):
        system_for(no_squares)
    assert cert.verify(no_squares, u, v) is False
    free = Alphabet([Generator("a"), Generator("b")])
    a = Word.parse(free, "a")
    assert EqualityCertificate(()).verify(Presentation(free, [a * a * a]), a, a) is False


class _CountingTrace(list):
    """A trace that counts the calls that would shrink it."""

    shrinks = 0

    def __delitem__(self, i):
        self.shrinks += 1
        super().__delitem__(i)

    def pop(self, *args):
        self.shrinks += 1
        return super().pop(*args)


def test_a_sink_records_only_the_moves_it_keeps():
    sys, o, rng = system_for(PP), oracle_for(PP), random.Random(18)
    # a geodesic, or a square flip of one, sinks with no cancellation,
    # so nothing is recorded, not even for a while
    for u in sphere(PP, 6)[::24]:
        t = list(o.encode(u))
        flip_at_random(PP, t, 4, rng)
        for g in (u, o.decode(t)):
            trace = _CountingTrace()
            assert sys.geodesic(g.codes, trace) == list(g.codes)
            assert trace == [] and trace.shrinks == 0
    # any other word: the trace only grows, and is the certificate's start
    for length in (10, 40, 200):
        for _ in range(5):
            w = random_word(PP, length, rng)
            trace = _CountingTrace()
            sys.geodesic(w.codes, trace)
            assert trace.shrinks == 0
            kept = tuple(Move(pos, Word._from_codes(PP.alphabet, r), kind) for kind, pos, r in trace)
            moves = words_equal(w, w, PP, certificate=True).certificate.moves
            assert moves[: len(kept)] == kept


def test_moves_of_both_certificate_kinds_are_plain_records():
    u, v = pw("s12 s34 s13"), pw("s34 s12 s13 s23 s23")
    equal = words_equal(u, v, PP, certificate=True).certificate.moves
    F = one_relator_presentation()
    trivial = word_problem_search(F.relators[0], F).certificate.moves
    assert {m.kind for m in equal} == {"swap", "insert"} and trivial
    for m in equal + trivial:
        assert isinstance(m, Move)
        for field in ("position", "relator", "kind"):
            with pytest.raises(AttributeError):
                setattr(m, field, getattr(m, field))
        twin = Move(m.position, Word._from_codes(m.relator.alphabet, m.relator.codes), m.kind)
        assert twin == m and hash(twin) == hash(m) and len({m, twin}) == 1
        assert Move(m.position + 1, m.relator, m.kind) != m
        assert m.letters == m.relator.letters
        assert inverted(inverted(m)) == m
    # each equality move takes u one step towards v, and back
    w = u
    for m in equal:
        nxt = apply(m, w)
        assert apply(inverted(m), nxt) == w
        w = nxt
    assert w == v
    swap = next(m for m in equal if m.kind == "swap")
    reverse = Word._from_codes(PP.alphabet, swap.relator.codes[::-1])
    assert inverted(swap) == Move(swap.position, reverse, "swap")
    cut = trivial[0]
    assert inverted(cut) == Move(cut.position, cut.relator, "delete")
    assert apply(cut, F.relators[0]) == F.relators[0][: cut.position] * cut.relator * F.relators[0][cut.position :]


# the oracle's own moves, over small alphabets of either kind
INV = Alphabet([Generator(n, involutive=True) for n in ("x", "y", "z")])
FREE = Alphabet([Generator(n) for n in ("a", "b", "c")])


def test_move_applies_a_relator_at_a_position():
    word = Word.parse(FREE, "a b")
    insert = Move(1, Word.parse(FREE, "c a^-1"), "insert")
    assert insert.letters == (("c", 1), ("a", -1))
    assert apply(insert, word) == Word.parse(FREE, "a c a^-1 b")
    assert apply(inverted(insert), apply(insert, word)) == word
    swap = Move(0, Word.parse(INV, "x y z x"), "swap")
    assert apply(swap, Word.parse(INV, "x y")) == Word.parse(INV, "x z")
    assert inverted(swap).relator == Word.parse(INV, "x z y x")
    delete, shift = Move(2, Word.parse(FREE, "a b"), "delete"), Move(0, Word.parse(FREE, "a"), "shift")
    for bad in (delete, shift):
        with pytest.raises(ValueError):
            apply(bad, word)


def test_a_swap_by_a_relator_not_four_letters_long_is_refused():
    # the pair matches, but there is no y4 y3 to swap it for
    for rel in ("x y", "x y z", "x y z x y"):
        with pytest.raises(ValueError, match="swap mismatch"):
            apply(Move(0, Word.parse(INV, rel), "swap"), Word.parse(INV, "x y z"))
