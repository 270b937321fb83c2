"""The registry's own machinery: tabled spellings read off the ball
against `canonical_form`, the level-by-level parity law of criterion 3
against `project_to_symmetric`, a mutation of one letter's image in the
S4 table for criteria 2 and 3, a wrong enumeration for criterion 2, a
missing face (one at the identity, one farther out), a missing and a
doubled edge and an extra square in criterion 5, planted faults in
criterion 13's action checks (a short ball, a lift that compares
spellings, odd orbit distances, with invalid elements built past the
`PureElement` constructor), one wrong table entry for criteria 1, 2,
4, 7, 8 and 9, a short sphere and each fault of criterion 1's length-2
and length-4 lists, equality certificates that do not replay for
criteria 1 and 2, planted objects for criteria 6 to 12, criterion 6's
printed edge length and face angles, each count and table match of
criterion 9, criterion 7's
side count, distinct labels and label set, the work one ``verify-all``
run does in its costliest stages, and the alphabets a warm run
compares (none)."""

import itertools
import sys
from collections import Counter

import pytest

import cactus45.reference as ref
from cactus45 import action, cactus, dirichlet, geometry, verify, words
from cactus45.action import PureElement
from cactus45.cactus import J4P, S4, Permutation, S4Table, project_to_symmetric, s4_table
from cactus45.complex import CayleyBall, Face, _construct, build_ball
from cactus45.dirichlet import fundamental_domain
from cactus45.grouptheory import (
    STANDARD_ELIMINATIONS,
    GroupHom,
    TrivialityCertificate,
    one_relator_presentation,
    surface_isomorphism_pair,
    surface_presentation,
)
from cactus45.rewrite import EqualityCertificate, RewriteSystem, canonical_form, sphere, system_for
from cactus45.words import Alphabet, Move, Presentation, Word, invert, same_relator_class

from complex_helpers import forget, radii_built, without_face


def _tabled_spellings():
    """Every J4' spelling the registry reads through `verify._canon`."""
    pairings = ref.SIDE_PAIRING_TABLE.values()
    cycles = (ref.FIVE_TERM_CYCLE, *ref.THREE_TERM_CYCLES)
    return (
        *ref.SPHERE2_WORDS,
        *ref.SPHERE3_WORDS,
        *ref.SPHERE4_WORDS,
        *ref.SHORT_PURE_WORDS.values(),
        *(t for row in ref.IDENTITY_FACES for t in row),
        *ref.CORNERS_AT_2PI5,
        *ref.CORNERS_AT_3PI5,
        *ref.CORNERS_AT_4PI5,
        *(t for row in pairings for side in row for t in side),
        *(t for cycle in cycles for t in cycle["vertices"]),
    )


def test_tabled_spellings_walk_to_their_normal_forms():
    spellings = _tabled_spellings()
    # the spheres, the short words, the faces, corners, pairings and cycles
    assert len(spellings) == 15 + 40 + 105 + 20 + 20 + 20 + 40 + 20
    for text in spellings:
        assert verify._canon(text) == canonical_form(J4P.word(text), J4P), text


def test_a_spelling_that_leaves_the_ball_is_refused():
    # a five-letter geodesic walks out of the radius-4 ball
    text = str(sphere(J4P, 5)[0])
    with pytest.raises(ValueError, match="leaves the radius-4 ball"):
        verify._canon(text)


def test_image_levels_match_the_projection():
    # all 3,906 words of length at most 5, in lexicographic order within
    # each length, each projected from scratch: every length's image set
    # is criterion 3's level, which keeps the first word to reach each
    names = J4P.alphabet.names()
    levels = verify._image_levels(s4_table(J4P), 5)
    assert len(levels) == 6
    total = 0
    for length, level in enumerate(levels):
        first = {}
        for combo in itertools.product(names, repeat=length):
            word = Word(J4P.alphabet, [(nm, 1) for nm in combo])
            first.setdefault(project_to_symmetric(word, 4).images, word.codes)
            total += 1
        assert {S4[i].images: codes for i, codes in level.items()} == first
        assert list(level.values()) == sorted(first.values())
    assert total == 3906


def _plant_s23_as_identity(monkeypatch, *presentations):
    """Each presentation's S4 table with s23 sent to the identity, an
    even permutation: a table its build refuses, planted past the build."""
    for P in presentations:
        letters = [S4[j] for j in s4_table(P).step[0]]
        letters[P.alphabet.index("s23")] = Permutation.identity(4)
        monkeypatch.setitem(P._memo, (cactus._s4_table,), S4Table.of(letters))


def test_an_even_letter_image_breaks_criterion_3(monkeypatch):
    _plant_s23_as_identity(monkeypatch, J4P)
    assert not verify.run_criterion(3).passed
    # with the displayed images out of the way, the parity law catches it
    monkeypatch.setattr(ref, "CENTRAL_IMAGES", {})
    result = verify.run_criterion(3)
    assert not result.passed
    assert result.details == "parity law fails on s23"


def test_a_wrong_s4_table_breaks_criterion_2(monkeypatch):
    # on J4' and J4 alike: the sphere words that look pure change
    _plant_s23_as_identity(monkeypatch, J4P, cactus.J4)
    result = verify.run_criterion(2)
    assert not result.passed
    assert result.details == "expected 20 elements, got 14"


def test_an_enumeration_that_is_not_the_twenty_fails_criterion_2(monkeypatch):
    # twenty elements, one of them the identity in place of the last
    real = verify.pure_elements_within
    monkeypatch.setattr(
        verify, "pure_elements_within", lambda d: [*real(d)[:-1], PureElement.identity()]
    )
    result = verify.run_criterion(2)
    assert not result.passed
    assert result.details == "enumeration differs from generators and inverses"


def _replace(monkeypatch, fn, wrapper):
    """Put wrapper in place of fn in every cactus45 module that holds fn."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cactus45") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)


def test_every_certificate_the_criteria_check_is_replayed_in_words(monkeypatch):
    # one replay path: each certificate a criterion checks, of either
    # kind, goes through `words.replay`, and a move cannot replay itself
    running = [None]  # the criterion being run
    checked, replayed = [], []
    real = words.replay

    def replay(P, w, moves, edit):
        replayed.append((running[0], moves))
        return real(P, w, moves, edit)

    def checking(fn):
        def run(cert, *args):
            checked.append((running[0], cert.moves))
            return fn(cert, *args)

        return run

    def in_criterion(number, check):
        def run(tol):
            running[0] = number
            try:
                return check(tol)
            finally:
                running[0] = None

        return run

    _replace(monkeypatch, real, replay)
    monkeypatch.setattr(EqualityCertificate, "verify", checking(EqualityCertificate.verify))
    monkeypatch.setattr(TrivialityCertificate, "check", checking(TrivialityCertificate.check))
    monkeypatch.setattr(
        verify,
        "CRITERIA",
        tuple((n, name, in_criterion(n, fn)) for n, name, fn in verify.CRITERIA),
    )
    results = verify.run_all()
    assert all(r.passed for r in results), [r.details for r in results if not r.passed]
    assert {n for n, _ in checked} == {1, 2, 4, 11}
    through_words = {(n, id(moves)) for n, moves in replayed}
    assert all((n, id(moves)) in through_words for n, moves in checked)
    assert not hasattr(Move, "apply") and not hasattr(Move, "inverted")


def test_verify_all_work_counts(monkeypatch):
    running = [None]  # the criterion being run
    acting = [0]  # depth of gamma and compose calls
    calls = Counter()

    def counted(fn, key):
        """fn, counting each call under key(), unless that is None."""

        def run(*args, **kwargs):
            k = key()
            if k is not None:
                calls[k] += 1
            return fn(*args, **kwargs)

        return run

    def per_criterion(name):
        return lambda: f"{name} in {running[0]}"

    def in_action(name):
        return lambda: name if acting[0] else None

    def in_criterion(number, check):
        def run(tol):
            running[0] = number
            try:
                return check(tol)
            finally:
                running[0] = None

        return run

    def acting_through(fn):
        def run(*args):
            acting[0] += 1
            try:
                return fn(*args)
            finally:
                acting[0] -= 1

        return run

    monkeypatch.setattr(
        verify,
        "CRITERIA",
        tuple((n, name, in_criterion(n, fn)) for n, name, fn in verify.CRITERIA),
    )
    monkeypatch.setattr(S4Table, "fold", counted(S4Table.fold, per_criterion("project")))
    _replace(
        monkeypatch,
        action.pure_elements_within,
        counted(action.pure_elements_within, per_criterion("enumerate")),
    )
    # canonical forms and parses are counted twice: inside the action,
    # and in the criterion that runs them
    canon = counted(canonical_form, in_action("canonical_form"))
    _replace(monkeypatch, canonical_form, counted(canon, per_criterion("canonical_form")))
    # on the class, so every J4' engine is counted: the J4 engine runs
    # on one, and `action` keeps the one it was imported with
    for name in ("sort", "geodesic"):
        fn = getattr(RewriteSystem, name)
        monkeypatch.setattr(RewriteSystem, name, counted(fn, per_criterion(name)))
    parse = counted(Word.parse.__func__, in_action("parse"))
    parse = counted(parse, per_criterion("parse"))
    monkeypatch.setattr(Word, "parse", classmethod(parse))
    _replace(monkeypatch, action.gamma, acting_through(action.gamma))
    monkeypatch.setattr(PureElement, "compose", acting_through(PureElement.compose))

    # the fundamental domain is rebuilt inside the run, so its cell and
    # pairings are counted too
    forget(monkeypatch, J4P, _construct, dirichlet._domain)
    built = radii_built(monkeypatch)
    results = verify.run_all()
    assert all(r.passed for r in results), [r.details for r in results if not r.passed]
    # one J4' ball, radius 4, built by criterion 1's first tabled
    # spelling: criterion 5 reads its radius-2 counts off it
    assert built == [4]
    assert (calls["sort in 5"], calls["geodesic in 5"]) == (0, 0)
    # criterion 3 folds its ten central words, and reads each level's
    # images off the table's steps; criterion 2 folds the 165 vertices
    # within distance 4, its 20 pure elements and the ten inverses it
    # builds (each element's constructor checks it is pure), and both
    # words of each of its 11 certified products; criteria 7 and 13 fold
    # once for each element they compose
    assert (calls["project in 3"], calls["project in 2"]) == (10, 165 + 20 + 10 + 22)
    assert (calls["project in 7"], calls["project in 13"]) == (14, 12)
    assert calls["enumerate in 2"] == 1
    assert sum(v for k, v in calls.items() if k.startswith("enumerate")) == 1
    assert calls["canonical_form"] == 0 and calls["parse"] == 0
    # tabled spellings are read off the ball, so no criterion parses one
    # to canonicalise it: elements are put in normal form on the engine,
    # so only criterion 7's fundamental domain canonicalises a word, and
    # criterion 1 parses only the two spellings it certifies equal
    canonicalised = {k: v for k, v in calls.items() if k.startswith("canonical_form in")}
    assert canonicalised == {"canonical_form in 7": 2}
    assert calls["parse in 1"] == 2
    # normal forms only where a word can match, and a spelling that the
    # automaton accepts whole is not sunk or sorted again: criterion 2's
    # 20 enumerated vertices are normal forms, so it sinks and sorts only
    # its ten orbit points and the five inverse spellings that are not
    # normal forms, and sinks both words of its 11 certified products;
    # criterion 3 projects and never rewrites; criterion 7 builds the
    # fundamental domain, whose cell is read off S4 with no rewriting:
    # its 220 geodesics are the side pairings' 200 images, one for each
    # of the cycles' 14 compositions and one more for each of the four
    # whose image is not a normal form, and the anchor's two canonical
    # forms; 13 sorts one candidate fixer per vertex of the radius-3 ball
    # and the six of its 12 sampled products whose image is not a normal
    # form, and sinks each of those six products twice, the others once
    assert (calls["sort in 2"], calls["geodesic in 2"]) == (15, 37)
    assert (calls["sort in 3"], calls["geodesic in 3"]) == (0, 0)
    assert (calls["sort in 6"], calls["geodesic in 6"]) == (0, 0)
    assert (calls["sort in 7"], calls["geodesic in 7"]) == (31, 220)
    assert (calls["sort in 13"], calls["geodesic in 13"]) == (67, 939)


def test_verify_all_compares_no_alphabets_once_warm(monkeypatch):
    # every alphabet check tests `is` first, and the route to the Tietze
    # oracle compares forms before alphabets; with alphabets first, each
    # of its 24 queries in a run compared two distinct ones.  A cold run
    # compares one pair, when it builds the first engine
    assert all(r.passed for r in verify.run_all())
    real, callers = Alphabet.__eq__, Counter()

    def eq(self, other):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(self, other)

    monkeypatch.setattr(Alphabet, "__eq__", eq)
    results = verify.run_all()
    assert all(r.passed for r in results), [r.details for r in results if not r.passed]
    assert callers == Counter()


def _plant_ball(monkeypatch, edges=None, faces=None):
    """The radius-4 ball of J4', with its edges or faces replaced, kept
    in the memo that criterion 5 reads."""
    ball = build_ball(J4P, 4)
    planted = CayleyBall(
        J4P, 4, ball.vertices, ball.neighbor, edges or ball.edges, faces or ball.faces,
        ball.interior,
    )
    monkeypatch.setitem(J4P._memo, (_construct, 4), planted)


def test_a_missing_face_fails_criterion_5(monkeypatch):
    # without one face whose farthest corner is at distance 3, the
    # interior vertices on it lose a face and their pentagon link; the
    # radius-4 ball J4' keeps is the planted one, and criterion 5 reads
    # only it
    ball = build_ball(J4P, 4)
    face = next(f for f in ball.faces if max(map(ball.vertices.get, f.boundary)) == 3)
    planted = without_face(ball, face)
    monkeypatch.setitem(J4P._memo, (_construct, 4), planted)
    result = verify.run_criterion(5)
    assert not result.passed
    assert result.details.startswith("tiling check failures")
    for v in face.vertex_set & ball.interior:
        assert f"vertex {v}: 4 faces != 5" in result.details


def test_a_missing_near_edge_fails_criterion_5(monkeypatch):
    # the first edge, from the identity, is within distance 2
    _plant_ball(monkeypatch, edges=build_ball(J4P, 4).edges[1:])
    result = verify.run_criterion(5)
    assert not result.passed
    assert result.details == "radius-2 ball has 24 edges"


def test_a_doubled_near_edge_fails_criterion_5(monkeypatch):
    # the first edge, from the identity, listed twice
    edges = build_ball(J4P, 4).edges
    _plant_ball(monkeypatch, edges=edges[:1] + edges)
    result = verify.run_criterion(5)
    assert not result.passed
    assert result.details == "radius-2 ball has 26 edges"


def test_a_missing_face_at_the_identity_fails_criterion_5(monkeypatch):
    ball = build_ball(J4P, 4)
    _plant_ball(monkeypatch, faces=without_face(ball, ball.faces_at(ball.identity())[0]).faces)
    result = verify.run_criterion(5)
    assert not result.passed
    assert result.details == "faces at the identity differ"


def test_an_extra_near_square_fails_criterion_5(monkeypatch):
    # four vertices at distance 2 as one more square: the identity keeps
    # its five faces, but the radius-2 ball closes a sixth
    ball = build_ball(J4P, 4)
    corners = [v for v, d in ball.vertices.items() if d == 2][:4]
    _plant_ball(monkeypatch, faces=ball.faces + (Face.from_cycle(corners),))
    result = verify.run_criterion(5)
    assert not result.passed
    assert result.details == "radius-2 ball should close no other face"


def test_a_clockwise_polygon_fails_criterion_7(monkeypatch):
    # the same corners and angles, listed clockwise: the embedded
    # polygon's interior angles are then the exterior ones
    fd = fundamental_domain()
    poly = fd.polygon
    turned = poly._replace(labels=poly.labels[::-1], angle_fifths=poly.angle_fifths[::-1])
    monkeypatch.setattr(verify, "fundamental_domain", lambda: fd._replace(polygon=turned))
    result = verify.run_criterion(7)
    assert not result.passed
    assert result.details == "numeric corner angle deviation 3.77e+00"


def test_a_length_3_vertex_inside_the_polygon_fails_criterion_7(monkeypatch):
    # an embedding that puts one length-3 vertex, not a corner, on the
    # identity's point leaves the corner angles alone
    labels = fundamental_domain().polygon.labels
    text = next(t for t in ref.SPHERE3_WORDS if verify._canon(t) not in labels)
    embed = verify.embed_ball

    def planted(ball):
        emb = embed(ball)
        emb[verify._canon(text)] = emb[ball.identity()]
        return emb

    monkeypatch.setattr(verify, "embed_ball", planted)
    result = verify.run_criterion(7)
    assert not result.passed
    assert result.details == f"length-3 vertex {text} lies strictly inside the polygon"


def _with_labels(monkeypatch, labels):
    """Criterion 7 handed the fundamental polygon with other labels."""
    fd = fundamental_domain()
    polygon = fd.polygon._replace(labels=labels)
    monkeypatch.setattr(verify, "fundamental_domain", lambda: fd._replace(polygon=polygon))


def test_a_polygon_missing_a_corner_fails_criterion_7(monkeypatch):
    _with_labels(monkeypatch, fundamental_domain().polygon.labels[:-1])
    result = verify.run_criterion(7)
    assert not result.passed
    assert result.details == "19 sides"


def test_a_repeated_corner_label_fails_criterion_7(monkeypatch):
    # twenty labels, the last one a second copy of the first
    labels = fundamental_domain().polygon.labels
    _with_labels(monkeypatch, labels[:-1] + labels[:1])
    result = verify.run_criterion(7)
    assert not result.passed
    assert result.details == "corner labels are not 20 distinct words"


def test_a_corner_missing_from_the_table_fails_criterion_7(monkeypatch):
    # every corner the table names still sits at its angle, but the
    # polygon has one corner more than the table
    monkeypatch.setattr(ref, "CORNERS_AT_4PI5", ref.CORNERS_AT_4PI5[:-1])
    result = verify.run_criterion(7)
    assert not result.passed
    assert result.details == "corner label set differs"


def test_a_side_pairing_that_fixes_its_corners_fails_criterion_8(monkeypatch):
    # the rows still match the table, but the action no longer carries
    # g1's source side onto its target
    monkeypatch.setattr(verify, "gamma", lambda g, w: w)
    result = verify.run_criterion(8)
    assert not result.passed
    assert result.details == "g1 does not carry its source corner to its target"


def test_a_domain_missing_a_pairing_fails_criterion_8(monkeypatch):
    # the domain pairs nine sides: g10's row is gone
    planted = fundamental_domain()._replace(pairings=fundamental_domain().pairings[:-1])
    monkeypatch.setattr(verify, "fundamental_domain", lambda: planted)
    result = verify.run_criterion(8)
    assert not result.passed
    assert result.details == "pairing generators differ"


def test_a_second_surviving_relator_fails_criterion_10(monkeypatch):
    # the eliminations leave the five generators, with the commutator
    # of g2 and g4 beside the ten-letter relator
    real = verify.tietze_eliminate

    def planted(P, eliminations):
        after = real(P, eliminations)
        return Presentation(after.alphabet, [*after.relators, after.word("g2 g4 g2^-1 g4^-1")])

    monkeypatch.setattr(verify, "tietze_eliminate", planted)
    result = verify.run_criterion(10)
    assert not result.passed
    assert result.details == "2 relators remain"


def test_a_missing_elimination_fails_criterion_10(monkeypatch):
    # without the last elimination g3 survives beside the five
    monkeypatch.setattr(verify, "STANDARD_ELIMINATIONS", STANDARD_ELIMINATIONS[:-1])
    result = verify.run_criterion(10)
    assert not result.passed
    assert result.details == "surviving generators ('g2', 'g3', 'g4', 'g8', 'g9', 'g10')"


def test_a_wrong_final_relator_fails_criterion_10(monkeypatch):
    # the expected word with its first two letters exchanged
    F = one_relator_presentation()
    codes = F.relators[0].codes
    swapped = Word._from_codes(F.alphabet, codes[1::-1] + codes[2:])
    planted = Presentation(F.alphabet, [swapped])
    monkeypatch.setattr(verify, "one_relator_presentation", lambda: planted)
    result = verify.run_criterion(10)
    assert not result.passed
    assert result.details == "final relator is not the expected ten-letter word"


def test_a_lost_torsion_factor_fails_criterion_10(monkeypatch):
    # invariants that drop the torsion of a one-relator presentation
    real = verify.abelianization_invariants

    def planted(P):
        rank, torsion = real(P)
        return (rank, ()) if len(P.relators) == 1 else (rank, torsion)

    monkeypatch.setattr(verify, "abelianization_invariants", planted)
    result = verify.run_criterion(10)
    assert not result.passed
    assert result.details == "abelianization changed: (4, (2,)) vs (4, ())"


def _planted_reports(monkeypatch, plant):
    """Criterion 11 with each well-definedness report passed through
    plant(index, report): alt f, alt g, surface f, surface g."""
    real, seen = verify.hom_well_defined, []

    def planted(h):
        seen.append(h)
        return plant(len(seen) - 1, real(h))

    monkeypatch.setattr(verify, "hom_well_defined", planted)
    return verify.run_criterion(11)


def test_a_truncated_certificate_fails_criterion_11(monkeypatch):
    # the first certificate of the first report loses its last move
    def truncate(i, report):
        if i:
            return report
        first, *rest = report.certificates
        assert first.moves
        cut = first._replace(moves=first.moves[:-1])
        return report._replace(certificates=(cut, *rest))

    result = _planted_reports(monkeypatch, truncate)
    assert not result.passed
    assert result.details == "a triviality certificate does not replay"


def test_surface_images_not_decided_by_dehn_fail_criterion_11(monkeypatch):
    # the surface-side report names another route for its images
    def reroute(i, report):
        rows = tuple((word, "tietze+dehn", status) for word, _, status in report.details)
        return report._replace(details=rows) if i == 3 else report

    result = _planted_reports(monkeypatch, reroute)
    assert not result.passed
    assert result.details == (
        "surface-side images decided by {'tietze+dehn'}, not greedy reduction"
    )


def test_a_surface_relator_with_long_pieces_fails_criterion_11(monkeypatch):
    # the surface relator squared is a proper power: each rotation
    # meets itself, and every proper subword is a piece
    S = surface_presentation()
    doubled = Presentation(S.alphabet, [S.relators[0] * S.relators[0]])
    monkeypatch.setattr(verify, "surface_presentation", lambda: doubled)
    result = verify.run_criterion(11)
    assert not result.passed
    assert result.details == "surface relator piece ratio 19/20"


def test_an_inverted_image_fails_criterion_11(monkeypatch):
    # g(g4) = a3^-1 in place of a3 sends the five-generator relator to
    # a nontrivial word of the surface group
    f, g = surface_isomorphism_pair()
    images = dict(g.images, g4=invert(g.images["g4"]))
    planted = GroupHom(g.source, g.target, images, g.name)
    monkeypatch.setattr(verify, "surface_isomorphism_pair", lambda: (f, planted))
    result = verify.run_criterion(11)
    assert not result.passed
    assert result.details == (
        "g not verified: (('g2 g9 g10^-1 g8^-1 g4 g9 g2 g10 g8^-1 g4^-1', "
        "'dehn', 'NONTRIVIAL'),)"
    )


def test_a_well_defined_map_that_is_no_inverse_fails_criterion_11(monkeypatch):
    # g sends every generator to the identity: each relator goes to the
    # empty word, so g is well defined, but no round trip comes back
    f, g = surface_isomorphism_pair()
    empty = {name: Word(g.target.alphabet) for name in g.images}
    planted = GroupHom(g.source, g.target, empty, g.name)
    monkeypatch.setattr(verify, "surface_isomorphism_pair", lambda: (f, planted))
    result = verify.run_criterion(11)
    assert not result.passed
    rows = tuple((f"g(f(a{i}))", "dehn", "NONTRIVIAL") for i in range(1, 6))
    rows += tuple((f"f(g({x}))", "dehn", "NONTRIVIAL") for x in ("g2", "g4", "g8", "g9", "g10"))
    assert result.details == f"round trips of f/g not verified: {rows}"


def _planted_surface(monkeypatch, **fields):
    """Criterion 12 with the classified surface's fields replaced."""
    real = verify.classify_identified_surface
    monkeypatch.setattr(
        verify, "classify_identified_surface", lambda *a: real(*a)._replace(**fields)
    )
    return verify.run_criterion(12)


def test_an_orientable_surface_fails_criterion_12(monkeypatch):
    result = _planted_surface(monkeypatch, orientable=True)
    assert not result.passed
    assert result.details == "surface reported orientable"


def test_a_misnamed_surface_fails_criterion_12(monkeypatch):
    result = _planted_surface(monkeypatch, name="N_4 = #_4 RP^2")
    assert not result.passed
    assert result.details == "surface reported as N_4 = #_4 RP^2"


def test_a_lost_corner_class_fails_criterion_12(monkeypatch):
    # the surface is classified off the polygon and its pairings, so only
    # the count of corner classes sees the lost cycle
    fd = fundamental_domain()
    planted = fd._replace(cycles=fd.cycles[:-1])
    monkeypatch.setattr(verify, "fundamental_domain", lambda: planted)
    result = verify.run_criterion(12)
    assert not result.passed
    assert result.details == "corner classes minus side pairs plus one face is not -3"


def test_a_side_glued_the_other_way_fails_criterion_12(monkeypatch):
    # g1's target side turned round glues its corners crosswise, and the
    # quotient has one corner class fewer
    fd = fundamental_domain()
    first = fd.pairings[0]
    turned = first._replace(target=first.target[::-1])
    planted = fd._replace(pairings=(turned,) + fd.pairings[1:])
    monkeypatch.setattr(verify, "fundamental_domain", lambda: planted)
    result = verify.run_criterion(12)
    assert not result.passed
    assert result.details == "Euler characteristic -4"


def _unchecked(form, parity):
    """A PureElement built past its constructor, which would refuse the
    impure form or store its normal form: how a test plants an element
    that is not pure, or not in normal form."""
    element = object.__new__(PureElement)
    words.Record.__init__(element, form, parity)
    return element


def test_criterion_13_catches_a_planted_element_that_fixes_a_vertex(monkeypatch):
    # the identity fixes every vertex; among the parity-0 elements only
    # the identity can, since g fixes h exactly when g.j4p_form = h h^-1
    planted = action.TWENTY[:3] + (PureElement.identity(),) + action.TWENTY[4:]
    monkeypatch.setattr(verify, "TWENTY", planted)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "g4 fixes the vertex e"


def test_criterion_13_catches_a_planted_parity_1_fixer(monkeypatch):
    # a parity-1 element whose form is h · mirror(h)^-1 fixes h; the
    # report names the first vertex of the radius-3 ball it fixes, found
    # here by acting on each vertex
    h = J4P.word("s12 s13 s24")
    inverse = action.mirror_word(invert(h))
    form = canonical_form(J4P.word(f"{h} {inverse}"), J4P)
    fixer = _unchecked(form, 1)
    assert action.gamma(fixer, h) == h
    ball = [v for L in range(4) for v in sphere(J4P, L)]
    first = next(v for v in ball if action.gamma(fixer, v) == v)
    planted = (fixer,) + action.TWENTY[1:]
    monkeypatch.setattr(verify, "TWENTY", planted)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == f"g1 fixes the vertex {first}"


def test_criterion_13_catches_a_planted_action_law_failure(monkeypatch):
    # every element acts as itself after a fixed translation z: the
    # action stays free and isometric, but g(g'(h)) = g z g' z h while
    # (g g')(h) = g g' z h
    g2 = action.standard_generator("g2")
    z = g2.compose(g2)
    assert not z.is_identity and z not in action.TWENTY
    image_geodesic = action.image_geodesic

    def shifted(g, codes):
        return image_geodesic(g.compose(z), codes)

    monkeypatch.setattr(verify, "image_geodesic", shifted)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "action law fails on a sampled pair"


def test_criterion_13_catches_a_short_ball(monkeypatch):
    # spheres whose length-3 level lacks its last vertex
    real = verify.sphere
    monkeypatch.setattr(verify, "sphere", lambda P, L: real(P, L)[: -1 if L == 3 else None])
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "radius-3 ball has 60 vertices"


def test_criterion_13_catches_a_lift_that_compares_spellings(monkeypatch):
    # an engine whose lift compares the two geodesics letter by letter:
    # the images g(g'(h)) and (g g')(h) are one vertex spelled apart
    engine = system_for(J4P)

    class Literal:
        def __getattr__(self, name):
            return getattr(engine, name)

        def lift(self, g1, g2, trace):
            return g1 == g2

    monkeypatch.setattr(verify, "system_for", lambda P: Literal())
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "action law fails on a sampled pair"


def test_criterion_13_catches_an_odd_orbit_distance(monkeypatch):
    # one letter is no pure element: it moves the identity an odd distance
    planted = (_unchecked(J4P.word("s12"), 0),) + action.TWENTY[1:]
    monkeypatch.setattr(verify, "TWENTY", planted)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "orbit distance of a short element is odd"


def test_criterion_13_catches_a_product_at_an_odd_distance(monkeypatch):
    # every product gains a letter
    compose = PureElement.compose

    def planted(g, h):
        gh = compose(g, h)
        return _unchecked(gh.j4p_form * J4P.word("s12"), gh.parity)

    monkeypatch.setattr(PureElement, "compose", planted)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "orbit distance of a product is odd"


def test_criterion_13_catches_a_planted_non_isometry(monkeypatch):
    # the action conjugated by the swap of the identity vertex with s12
    # is still a free action, but no isometry: d(s12, h) and |h| differ
    # in parity, so any sampled pair with one end at e and the other at
    # neither e nor s12 shows it
    engine = system_for(J4P)
    image_geodesic = action.image_geodesic
    e, s12 = (), (J4P.alphabet.index("s12"),)

    def swap(codes):
        form = engine.sort(list(codes))
        return list(s12) if form == e else list(e) if form == s12 else list(codes)

    def conjugated(g, codes):
        return swap(image_geodesic(g, swap(codes)))

    monkeypatch.setattr(verify, "image_geodesic", conjugated)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "action does not preserve the graph metric"


def test_criterion_6_compares_the_edge_length_at_the_tables_precision():
    # the tabled 1.253739 is 3.3e-7 off the closed form, so it is read
    # at its six places; the tolerance bounds the embedding alone
    assert verify.run_criterion(6, 1e-9).passed


def test_criterion_6_fails_an_edge_length_off_the_half_edge_identity(monkeypatch):
    R = geometry.edge_length_45()
    monkeypatch.setattr(verify, "edge_length_45", lambda: R + 1e-10)
    result = verify.run_criterion(6)
    assert not result.passed
    assert result.details == "edge length departs from closed form"


def test_criterion_6_fails_an_edge_length_that_prints_off_the_table(monkeypatch):
    # R itself, so the closed form holds, printed one unit up in the
    # sixth place
    R = geometry.edge_length_45()

    class Misprinted(float):
        def __format__(self, spec):
            return format(float(self) + 1e-6, spec)

    monkeypatch.setattr(verify, "edge_length_45", lambda: Misprinted(R))
    result = verify.run_criterion(6)
    assert not result.passed
    assert result.details == "edge length 1.253740"


def test_criterion_6_fails_a_face_angle_off_two_fifths_of_pi(monkeypatch):
    # every embedded edge keeps its length; each face's first corner
    # reads 1e-3 wide
    class Skewed(geometry.HPolygon):
        def interior_angles(self):
            first, *rest = super().interior_angles()
            return [first + 1e-3, *rest]

    monkeypatch.setattr(verify, "HPolygon", Skewed)
    result = verify.run_criterion(6)
    assert not result.passed
    assert result.details == "face angle deviation 1.00e-03"


def _planted_domain(monkeypatch, **fields):
    """Criterion 9's result on the fundamental domain with these fields
    replaced."""
    planted = fundamental_domain()._replace(**fields)
    monkeypatch.setattr(verify, "fundamental_domain", lambda: planted)
    return verify.run_criterion(9)


def test_a_lost_corner_cycle_fails_criterion_9(monkeypatch):
    result = _planted_domain(monkeypatch, cycles=fundamental_domain().cycles[:-1])
    assert not result.passed
    assert result.details == "5 corner cycles"


def test_a_cycle_walked_twice_fails_criterion_9(monkeypatch):
    # the multiplicity alone is planted: the angles still sum to 2pi
    first, *rest = fundamental_domain().cycles
    result = _planted_domain(monkeypatch, cycles=(first._replace(nu=2), *rest))
    assert not result.passed
    assert result.details == "cycle multiplicity differs from 1"


def test_a_five_term_row_read_from_another_corner_fails_criterion_9(monkeypatch):
    # the corners start one place on, the generators where they were
    row = ref.FIVE_TERM_CYCLE
    vs = row["vertices"]
    monkeypatch.setattr(ref, "FIVE_TERM_CYCLE", dict(row, vertices=vs[1:] + vs[:1]))
    result = verify.run_criterion(9)
    assert not result.passed
    assert result.details == "five-term cycle differs from the table"


def test_a_three_term_cycle_lost_to_a_second_five_term_one_fails_criterion_9(monkeypatch):
    # still six cycles, but four of three terms
    cycles = fundamental_domain().cycles
    five = next(c for c in cycles if len(c.generators) == 5)
    dropped = next(i for i, c in enumerate(cycles) if len(c.generators) == 3)
    result = _planted_domain(monkeypatch, cycles=_with_entry(cycles, dropped, five))
    assert not result.passed
    assert result.details == "expected five three-term cycles"


def test_a_three_term_row_with_a_foreign_corner_fails_criterion_9(monkeypatch):
    # row 1's last corner taken from row 2: no computed cycle has them all
    first, second = ref.THREE_TERM_CYCLES[:2]
    planted = dict(first, vertices=first["vertices"][:2] + second["vertices"][2:])
    monkeypatch.setattr(ref, "THREE_TERM_CYCLES", _with_entry(ref.THREE_TERM_CYCLES, 0, planted))
    result = verify.run_criterion(9)
    assert not result.passed
    assert result.details == "cycle with corners ('s13 s34', 's24 s34', 's12 s23')"


def test_a_three_term_row_with_other_angles_fails_criterion_9(monkeypatch):
    # row 1's angles (3, 4, 3) in fifths made (3, 3, 3)
    first = ref.THREE_TERM_CYCLES[0]
    planted = dict(first, fifths=(3, 3, 3))
    monkeypatch.setattr(ref, "THREE_TERM_CYCLES", _with_entry(ref.THREE_TERM_CYCLES, 0, planted))
    result = verify.run_criterion(9)
    assert not result.passed
    assert result.details == "angle classes of cycle ('s13 s34', 's24 s34', 's34 s23')"


def test_a_seventh_relator_fails_criterion_9(monkeypatch):
    # the six cycle relators all present, and the first one's square too
    pres = fundamental_domain().presentation
    first = pres.relators[0]
    planted = Presentation(pres.alphabet, [*pres.relators, first * first])
    result = _planted_domain(monkeypatch, presentation=planted)
    assert not result.passed
    assert result.details == "7 relators"


def test_criterion_9_decides_each_angle_sum_exactly(monkeypatch):
    # the tolerance does not enter: the angle sums pass at any, and a
    # sum of 9 fifths fails at any
    assert verify.run_criterion(9, 1e-300).passed
    fd = fundamental_domain()
    first = fd.cycles[0]
    short = first._replace(fifths=(first.fifths[0] - 1,) + first.fifths[1:])
    planted = fd._replace(cycles=(short,) + fd.cycles[1:])
    monkeypatch.setattr(verify, "fundamental_domain", lambda: planted)
    result = verify.run_criterion(9, 1.0)
    assert not result.passed
    assert result.details == "cycle angle sum 5.65486678"


def test_relabelled_presentation_generators_fail_criterion_9(monkeypatch):
    # the same relators over the generators listed in reverse
    fd = fundamental_domain()
    pres = fd.presentation
    turned = Alphabet(pres.alphabet.generators[::-1])
    relators = [Word.parse(turned, str(r)) for r in pres.relators]
    planted = fd._replace(presentation=Presentation(turned, relators))
    monkeypatch.setattr(verify, "fundamental_domain", lambda: planted)
    result = verify.run_criterion(9)
    assert not result.passed
    assert result.details == "presentation generators differ"


def test_a_missing_cycle_relator_fails_criterion_9(monkeypatch):
    # the first tabled relator squared in its place: still six relators
    fd = fundamental_domain()
    pres = fd.presentation
    first = ref.CYCLE_RELATORS[0]
    want = pres.word(first)
    kept = [r for r in pres.relators if not same_relator_class(r, want)]
    assert len(kept) == 5
    planted = fd._replace(presentation=Presentation(pres.alphabet, kept + [want * want]))
    monkeypatch.setattr(verify, "fundamental_domain", lambda: planted)
    result = verify.run_criterion(9)
    assert not result.passed
    assert result.details == f"relator {first} missing up to rotation and inversion"


def test_criterion_6_passes_only_the_embeddings_reflecting_set(monkeypatch):
    # of the 32 choices of reflecting edge symmetries, one places the
    # tiling; every other leaves edges off the length R
    passing = []
    for k in range(len(J4P.alphabet) + 1):
        for chosen in itertools.combinations(J4P.alphabet.names(), k):
            monkeypatch.setattr(geometry, "_REFLECTING", frozenset(chosen))
            result = verify.run_criterion(6)
            if result.passed:
                passing.append(chosen)
            else:
                assert result.details.startswith("edge length deviation")
    assert passing == [("s12", "s23", "s34")]


def _with_entry(table, key, value):
    """A copy of a tuple or dict table with one entry replaced."""
    if isinstance(table, dict):
        return {**table, key: value}
    return table[:key] + (value,) + table[key + 1:]


@pytest.mark.parametrize(
    "number, table, key, value, message",
    [
        (1, "SPHERE3_WORDS", 5, "s12 s12 s13", "length-3 spelling 's12 s12 s13' shortens"),
        (1, "SPHERE3_WORDS", 5, "s13 s23 s34",
         "length-3 list does not cover the sphere element-by-element"),
        (2, "TRANSLATION_GENERATORS", "g9", (11, 1),
         "g9 does not move the identity to short word 11"),
        (2, "TRANSLATION_GENERATORS", "g2", (2, 1), "g2 parity"),
        (2, "INVERSE_PARTNERS", 7, 14, "short words 7 and 14 are not inverse"),
        (4, "SHORT_PURE_WORDS", 3, "s13 s34 s23 s24", "conjugation identity fails at index 3"),
        # a 3pi/5 corner listed among the 2pi/5 ones
        (7, "CORNERS_AT_2PI5", 0, "s12 s23", "corner s12 s23 should sit at 2pi/5"),
        # g1's source and target sides exchanged
        (8, "SIDE_PAIRING_TABLE", "g1", (("s13 s24", "s13 s23"), ("s34 s12", "s34 s13")),
         "pairing row g1 differs from the table"),
        # a spelling whose last two letters are turned round
        (1, "EQUIVALENT_SPELLINGS", 1, "s34 s13 s24 s23", "alternative spelling pair not equal"),
        # an inverse's short word, then its parity
        (2, "TRANSLATION_INVERSES", "g1", (17, 1), "g1^-1 does not match short word 17"),
        (2, "TRANSLATION_INVERSES", "g2", (11, 1), "g2^-1 does not match short word 11"),
        # the length-2 list with one spelling twice
        (1, "SPHERE2_WORDS", 0, "s13 s23", "length-2 list does not cover the sphere"),
        # the repeated spelling's second entry made the unlisted element,
        # then another listed spelling
        (1, "SPHERE4_WORDS", 8, "s13 s24 s12 s23", "length-4 list should repeat one spelling"),
        (1, "SPHERE4_WORDS", 8, "s13 s23 s34 s12",
         "unexpected repeated spelling ['s13 s23 s34 s12']"),
        # the first entry made another spelling of a listed element, then
        # the unlisted element, whose place its own element takes
        (1, "SPHERE4_WORDS", 0, "s34 s13 s23 s24", "length-4 spellings collide"),
        (1, "SPHERE4_WORDS", 0, "s13 s24 s12 s23",
         "unlisted length-4 elements {'s12 s13 s12 s34'}"),
    ],
)
def test_a_mutated_table_entry_fails_its_criterion(monkeypatch, number, table, key, value, message):
    assert verify.run_criterion(number).passed
    monkeypatch.setattr(ref, table, _with_entry(getattr(ref, table), key, value))
    result = verify.run_criterion(number)
    assert not result.passed
    assert result.details == message


def test_a_length_4_list_one_entry_short_fails_criterion_1(monkeypatch):
    monkeypatch.setattr(ref, "SPHERE4_WORDS", ref.SPHERE4_WORDS[:-1])
    result = verify.run_criterion(1)
    assert not result.passed
    assert result.details == "length-4 list size"


def test_a_sphere_one_element_short_fails_criterion_1(monkeypatch):
    real = verify.sphere

    def short(P, L):
        level = real(P, L)
        return level[:-1] if L == 3 else level

    monkeypatch.setattr(verify, "sphere", short)
    result = verify.run_criterion(1)
    assert not result.passed
    assert result.details == "sphere sizes [1, 5, 15, 39, 105]"


def _truncated(result):
    """The result with its certificate's last move dropped."""
    moves = result.certificate.moves
    assert moves
    return result._replace(certificate=result.certificate._replace(moves=moves[:-1]))


@pytest.mark.parametrize(
    "plant",
    [_truncated, lambda result: result._replace(certificate=None)],
    ids=["truncated", "missing"],
)
@pytest.mark.parametrize(
    "number, message",
    [
        (1, "alternative spelling certificate does not replay"),
        (2, "inverse certificate for pair (1, 17) does not replay"),
        (4, "conjugation identity fails at index 1"),
    ],
)
def test_a_certificate_that_does_not_replay_fails_its_criterion(monkeypatch, plant, number, message):
    real = verify.words_equal
    monkeypatch.setattr(verify, "words_equal", lambda *args, **kw: plant(real(*args, **kw)))
    result = verify.run_criterion(number)
    assert not result.passed
    assert result.details == message


def _inverse(name):
    return name[: -len("^-1")] if name.endswith("^-1") else name + "^-1"


def _rotated(row):
    """The row read from its second corner."""
    return {key: row[key][1:] + row[key][:1] for key in ("vertices", "generators", "fifths")}


def _turned(row):
    """The row read from its first corner the other way round: the
    corners in reverse, the generator word inverted."""
    vs, fifths = row["vertices"], row["fifths"]
    return {
        "vertices": vs[:1] + vs[:0:-1],
        "generators": tuple(map(_inverse, reversed(row["generators"]))),
        "fifths": fifths[:1] + fifths[:0:-1],
    }


@pytest.mark.parametrize("row", range(5))
def test_criterion_9_reads_a_three_term_row_from_any_corner_either_way(monkeypatch, row):
    # the computed cycles match rows 2, 4 and 5 forwards and rows 1 and
    # 3 turned round; each row passes however it is read
    cycles = ref.THREE_TERM_CYCLES
    for read in (_rotated, _turned, lambda r: _rotated(_turned(r))):
        monkeypatch.setattr(ref, "THREE_TERM_CYCLES", _with_entry(cycles, row, read(cycles[row])))
        assert verify.run_criterion(9).passed
    # turned round without inverting its word, the row no longer matches
    turned = dict(_turned(cycles[row]), generators=cycles[row]["generators"][::-1])
    monkeypatch.setattr(ref, "THREE_TERM_CYCLES", _with_entry(cycles, row, turned))
    result = verify.run_criterion(9)
    assert not result.passed
    assert result.details == f"generators of cycle {turned['vertices']}"


def test_criterion_9_fails_a_swapped_generator(monkeypatch):
    # row 1's g8^-1 replaced by g9^-1: the corners and angles still match
    first = ref.THREE_TERM_CYCLES[0]
    assert first["generators"] == ("g4^-1", "g8^-1", "g3")
    planted = dict(first, generators=("g4^-1", "g9^-1", "g3"))
    monkeypatch.setattr(ref, "THREE_TERM_CYCLES", _with_entry(ref.THREE_TERM_CYCLES, 0, planted))
    result = verify.run_criterion(9)
    assert not result.passed
    assert result.details == "generators of cycle ('s13 s34', 's24 s34', 's34 s23')"
