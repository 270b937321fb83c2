"""Record semantics of every record type the package defines.

Each record is a `NamedTuple` or a subclass of `words.Record`.  Either
way it is equal by its fields, hashes as the tuple of its fields (so set
and dict orders do not depend on the record type), refuses assignment
and `del`, shows as ``Name(field=value, ...)``, takes its fields by
position or by keyword, and survives copy, deepcopy and pickle.  The
instances are the ones the package builds.
"""

import contextlib
import copy
import io
import pickle

import pytest

from cactus45 import action, cactus, cli, dirichlet, grouptheory, rewrite, verify, words
from cactus45.cactus import (
    IntervalGenerator,
    Permutation,
    interval_generators,
    j4_presentation,
    j4prime_presentation,
    project_to_symmetric,
)
from cactus45.complex import build_ball, check_tiling
from cactus45.geometry import HPoint, HPolygon, Mobius, embed_ball
from cactus45.words import Alphabet, Generator, Word

PP = j4prime_presentation()


def _reports(monkeypatch, *commands):
    reports = []
    emit = cli.emit_report
    monkeypatch.setattr(cli, "emit_report", lambda r, *a: reports.append(r) or emit(r, *a))
    with contextlib.redirect_stdout(io.StringIO()):
        for command in commands:
            assert cli.main([command]) == 0
    return reports


def _pair(name, monkeypatch):
    """Two unequal instances of the record called name, and its fields;
    the more fields they differ in, the more the equality test sees."""
    fd = dirichlet.fundamental_domain()
    emb = embed_ball(build_ball(PP, 4))
    F = grouptheory.one_relator_presentation()
    u, v = PP.word("s12 s34 s13"), PP.word("s34 s12 s13 s23 s23")
    f, g = grouptheory.alt_isomorphism_pair()
    if name == "Generator":
        pair = (PP.alphabet.generators[0], action.TRANSLATIONS.generators[0])
        return pair, ("name", "involutive")
    if name == "IntervalGenerator":
        return interval_generators(4)[1:5:3], ("p", "q")
    if name == "Permutation":
        return (project_to_symmetric(u, 4), project_to_symmetric(u[:2], 4)), ("images",)
    if name == "S4Table":
        return (cactus.s4_table(PP), cactus.s4_table(j4_presentation())), ("step",)
    if name == "PureElement":
        return action.TWENTY[:2], ("j4p_form", "parity")
    if name == "Face":
        return build_ball(PP, 2).faces[:2], ("boundary",)
    if name == "TilingReport":
        fields = ("ok", "vertex_count", "edge_count", "face_count", "interior_count", "failures")
        return (check_tiling(build_ball(PP, 3)), check_tiling(build_ball(PP, 4))), fields
    if name == "HPoint":
        return (emb[u[:2]], emb[u[:1]]), ("x", "y")
    if name == "Mobius":
        t = Mobius.translation(0.25 + 0.5j)
        return (t, t.inverse()), ("a", "b")
    if name == "HPolygon":
        corners = [tuple(emb[w] for w in p.labels) for p in (fd.polygon,)]
        corners.append(tuple(emb[w] for w in build_ball(PP, 2).faces[0].boundary))
        return tuple(map(HPolygon, corners)), ("vertices",)
    if name == "LabeledPolygon":
        p = fd.polygon
        fields = ("labels", "angle_fifths", "side_kinds")
        return (p, type(p)(p.labels[::-1], p.angle_fifths, p.side_kinds)), fields
    if name == "SidePairing":
        return fd.pairings[:2], ("code", "source", "target")
    if name == "VertexCycle":
        return fd.cycles[:2], ("word", "vertices", "fifths", "nu")
    if name == "SurfaceClass":
        torus = Word.parse(Alphabet([Generator("a"), Generator("b")]), "a b a^-1 b^-1")
        pair = (
            dirichlet.classify_identified_surface(fd.polygon, fd.pairings),
            dirichlet.classify_identified_surface(torus),
        )
        return pair, ("euler_characteristic", "orientable", "name")
    if name == "FundamentalDomain":
        fields = ("polygon", "pairings", "cycles", "presentation")
        return (fd, fd._replace(pairings=fd.pairings[::-1])), fields
    if name in ("Verdict", "SearchResult", "EqualityResult"):
        fields = ("status", "oracle", "certificate", "witness")
        trivial = grouptheory.word_problem_search(F.relators[0], F)
        unequal = rewrite.words_equal(u, v[:3], PP)
        if name == "SearchResult":
            return (trivial, grouptheory.word_problem_search(F.relators[0][:3], F)), fields
        if name == "EqualityResult":
            return (rewrite.words_equal(u, v, PP, certificate=True), unequal), fields
        return (trivial, unequal), fields
    if name == "TrivialityCertificate":
        trivial = grouptheory.word_problem_search(F.relators[0], F)
        other = grouptheory.word_problem_search(F.relators[0][1:] * F.relators[0][:1], F)
        return (trivial.certificate, other.certificate), ("word", "moves")
    if name == "GroupHom":
        return (f, g), ("source", "target", "images", "name")
    if name == "WellDefinedVerdict":
        pair = (grouptheory.hom_well_defined(f), grouptheory.hom_well_defined(g))
        return pair, ("verdict", "details", "certificates")
    if name == "RewriteBudget":
        return (rewrite.RewriteBudget(), rewrite.RewriteBudget(slack=4)), ("slack", "max_states")
    if name == "EqualityCertificate":
        equal = rewrite.words_equal(u, v, PP, certificate=True)
        back = rewrite.words_equal(v, u, PP, certificate=True)
        return (equal.certificate, back.certificate), ("moves",)
    if name == "CriterionResult":
        pair = (verify.run_criterion(2), verify.run_criterion(4))
        return pair, ("number", "name", "passed", "details")
    if name == "RunReport":
        reports = _reports(monkeypatch, "pure", "presentation")
        return tuple(reports), ("command", "parameters", "results", "version")
    raise KeyError(name)


# the verdicts of word_problem_search and of words_equal, each pair from
# one decider, under the names of the records those deciders returned
# before both returned a Verdict
RECORD_OF = {"SearchResult": "Verdict", "EqualityResult": "Verdict"}

RECORDS = (
    "Generator",
    "IntervalGenerator",
    "Permutation",
    "S4Table",
    "PureElement",
    "Face",
    "TilingReport",
    "HPoint",
    "Mobius",
    "HPolygon",
    "LabeledPolygon",
    "SidePairing",
    "VertexCycle",
    "SurfaceClass",
    "FundamentalDomain",
    "TrivialityCertificate",
    "Verdict",
    "SearchResult",
    "GroupHom",
    "WellDefinedVerdict",
    "RewriteBudget",
    "EqualityCertificate",
    "EqualityResult",
    "CriterionResult",
    "RunReport",
)


def _hash(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_their_semantics(name, monkeypatch):
    (a, b), fields = _pair(name, monkeypatch)
    cls = type(a)
    record = RECORD_OF.get(name, name)
    assert cls.__name__ == record and type(b) is cls
    values = tuple(getattr(a, f) for f in fields)
    twin = cls(*values)
    keyed = cls(**dict(zip(fields, values)))
    # equal by fields, and hashed as the tuple of them (a field that is
    # a dict leaves both unhashable)
    assert twin == a and keyed == a and not twin != a
    assert a != b and not a == b
    # a copy of a that takes one field from b is not a
    for i, other in enumerate(getattr(b, f) for f in fields):
        if other != values[i]:
            try:
                mixed = cls(*values[:i], other, *values[i + 1 :])
            except ValueError:
                continue
            assert mixed != a
    assert _hash(a) == _hash(twin) == _hash(keyed) == _hash(values)
    if _hash(a) is not TypeError:
        assert len({a, twin, keyed}) == 1 and len({a, b}) == 2
    for field in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field, None))
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == twin
    assert copy.copy(a) == a
    for copied in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied == a
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(a) == f"{record}({shown})"


def test_small_records_show_their_fields():
    assert repr(PP.alphabet.generators[1]) == "Generator(name='s13', involutive=True)"
    assert repr(Generator("a")) == "Generator(name='a', involutive=False)"
    assert repr(interval_generators(4)[2]) == "IntervalGenerator(p=1, q=4)"
    assert repr(Permutation.identity(3)) == "Permutation(images=(1, 2, 3))"
    assert repr(HPoint(0.5, -0.25)) == "HPoint(x=0.5, y=-0.25)"
    assert repr(Mobius.translation(0.5j)) == "Mobius(a=1.0, b=0.5j)"
    budget = rewrite.RewriteBudget(slack=4)
    assert repr(budget) == "RewriteBudget(slack=4, max_states=200000)"
    assert repr(action.PureElement.identity()) == "PureElement(j4p_form=Word(e), parity=0)"
    assert repr(words.Verdict(words.NONTRIVIAL, "dehn")) == (
        "Verdict(status='NONTRIVIAL', oracle='dehn', certificate=None, witness=None)"
    )


def test_permutation_stores_its_images_as_a_tuple():
    listed = Permutation([2, 1])
    assert listed.images == (2, 1) and listed == Permutation((2, 1))
    assert hash(listed) == hash(((2, 1),))


def test_words_and_presentations_copy_pickle_and_refuse_del():
    w = PP.word("s12 s34^-1 s13")
    for field in ("alphabet", "codes"):
        with pytest.raises(AttributeError):
            delattr(w, field)
    with pytest.raises(AttributeError):
        del PP.relators
    for value in (w, PP):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
    assert pickle.loads(pickle.dumps(PP)).forms == PP.forms


def test_alphabets_refuse_assignment_and_del_and_copy_equal():
    # words, presentations and engines share one alphabet per group
    A = PP.alphabet
    for field in Alphabet.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(A, field, getattr(A, field, None))
    for field in Alphabet.__slots__:
        with pytest.raises(AttributeError):
            delattr(A, field)
    assert A.names() == ("s12", "s13", "s23", "s24", "s34")
    assert str(project_to_symmetric(PP.word("s12 s13"), 4)) == "(123)"
    for twin in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
        assert twin == A and hash(twin) == hash(A)
        assert (twin.inverse, twin._letters, twin._index) == (A.inverse, A._letters, A._index)


def _hom_with_a_foreign_image():
    f, _ = grouptheory.alt_isomorphism_pair()
    images = {**f.images, "beta": PP.word("s12")}
    return grouptheory.GroupHom(f.source, f.target, images, f.name)


def _hom_with_an_extra_image():
    # the same map as f, with one image more, under a name f.source lacks
    f, _ = grouptheory.alt_isomorphism_pair()
    images = {**f.images, "zeta": f.images["alpha"]}
    return grouptheory.GroupHom(f.source, f.target, images, f.name)


# the refusals not tested beside their modules; the others are in
# test_words (reserved names), test_cactus (a repeated image),
# test_geometry (the boundary), test_action (parity), test_rewrite
# (budgets) and test_grouptheory (a missing image)
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Generator(""), "bad generator name"),
        (lambda: Generator("a b", True), "bad generator name"),
        (lambda: IntervalGenerator(2, 2), "need 1 <= p < q"),
        (lambda: IntervalGenerator(0, 3), "need 1 <= p < q"),
        (lambda: Permutation((0, 1)), "not a bijection"),
        (lambda: HPoint(x=1.5, y=0.0), "not inside the unit disk"),
        (lambda: HPoint(float("nan"), 0.0), "not inside the unit disk"),
        (lambda: action.PureElement(j4_presentation().word("s14"), 0), "J_4' alphabet"),
        (lambda: action.PureElement(PP.word("s12"), 0), "s12 with reversal parity 0 is not pure"),
        (_hom_with_a_foreign_image, "image of beta is not a target word"),
        (_hom_with_an_extra_image, "image of zeta, which is not a source generator"),
    ],
    ids=[
        "generator-empty",
        "generator-space",
        "interval-empty",
        "interval-zero",
        "permutation-zero",
        "hpoint-outside",
        "hpoint-nan",
        "pure-alphabet",
        "pure-not-pure",
        "hom-alphabet",
        "hom-extra-image",
    ],
)
def test_records_still_validate_their_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()
