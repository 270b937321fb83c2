"""The registry's own machinery: the level-by-level parity law of
criterion 3 against `project_to_symmetric`, a mutation of one letter's
image, planted faults in criterion 13's action checks, and the work one
``verify-all`` run does in its costliest stages."""

import itertools
import sys
from collections import Counter

import cactus45.reference as ref
from cactus45 import action, verify
from cactus45.action import PureElement
from cactus45.cactus import J4P, project_to_symmetric
from cactus45.complex import build_ball
from cactus45.dirichlet import fundamental_domain
from cactus45.rewrite import RewriteSystem, canonical_form, system_for
from cactus45.words import Word


def _letter_images():
    return [
        project_to_symmetric(Word._from_codes(J4P.alphabet, (c,)), 4).images
        for c in range(len(J4P.alphabet))
    ]


def test_image_levels_match_the_projection():
    # all 3,906 words of length at most 5, in lexicographic order within
    # each length, each projected from scratch: every length's image set
    # is criterion 3's level, which keeps the first word to reach each
    names = J4P.alphabet.names()
    levels = verify._image_levels(_letter_images(), 5)
    assert len(levels) == 6
    total = 0
    for length, level in enumerate(levels):
        first = {}
        for combo in itertools.product(names, repeat=length):
            word = Word(J4P.alphabet, [(nm, 1) for nm in combo])
            first.setdefault(project_to_symmetric(word, 4).images, word.codes)
            total += 1
        assert level == first
        assert list(level.values()) == sorted(first.values())
    assert total == 3906


def test_an_even_letter_image_breaks_criterion_3(monkeypatch):
    # s23 projected to the identity, an even permutation
    s23 = J4P.alphabet.index("s23")

    def mutated(w, n):
        if w.codes == (s23,):
            return project_to_symmetric(Word(J4P.alphabet, ()), n)
        return project_to_symmetric(w, n)

    monkeypatch.setattr(verify, "project_to_symmetric", mutated)
    assert not verify.run_criterion(3).passed
    # with the displayed images out of the way, the parity law catches it
    monkeypatch.setattr(ref, "CENTRAL_IMAGES", {})
    result = verify.run_criterion(3)
    assert not result.passed
    assert result.details == "parity law fails on s23"


def _replace(monkeypatch, fn, wrapper):
    """Put wrapper in place of fn in every cactus45 module that holds fn."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cactus45") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)


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
    for fn, key in (
        (project_to_symmetric, per_criterion("project")),
        (action.pure_elements_within, per_criterion("enumerate")),
        (canonical_form, in_action("canonical_form")),
    ):
        _replace(monkeypatch, fn, counted(fn, key))
    # on the class, so every J4' engine is counted: the J4 engine runs
    # on one, and `action` keeps the one it was imported with
    for name in ("sort", "geodesic"):
        fn = getattr(RewriteSystem, name)
        monkeypatch.setattr(RewriteSystem, name, counted(fn, per_criterion(name)))
    parse = counted(Word.parse.__func__, in_action("parse"))
    monkeypatch.setattr(Word, "parse", classmethod(parse))
    _replace(monkeypatch, action.gamma, acting_through(action.gamma))
    monkeypatch.setattr(PureElement, "compose", acting_through(PureElement.compose))

    # the fundamental domain is rebuilt inside the run, so its orbit
    # sites and pairings are counted too
    fundamental_domain.cache_clear()
    build_ball.cache_clear()
    results = verify.run_all()
    assert all(r.passed for r in results), [r.details for r in results if not r.passed]
    # one J4' ball, radius 4: criterion 5 reads its smaller balls off it
    assert build_ball.cache_info().misses == 1
    assert 0 < calls["project in 3"] <= 5
    assert calls["enumerate in 2"] == 1
    assert sum(v for k, v in calls.items() if k.startswith("enumerate")) == 1
    assert calls["canonical_form"] == 0 and calls["parse"] == 0
    # normal forms only where a word can match: criterion 3 projects and
    # never rewrites; criterion 6 builds the fundamental domain (orbit
    # sites, the Voronoi cell, side pairings); 13 sorts only candidates
    # for a fixed point, products and orbit points
    assert (calls["sort in 3"], calls["geodesic in 3"]) == (0, 0)
    assert (calls["sort in 6"], calls["geodesic in 6"]) == (181, 2315)
    assert (calls["sort in 13"], calls["geodesic in 13"]) == (132, 2112)


def test_criterion_13_catches_a_planted_element_that_fixes_a_vertex(monkeypatch):
    # the identity fixes every vertex; criterion 13 decides fixing from
    # the sink's length and sorts only same-length candidates
    planted = action.TWENTY[:3] + (PureElement.identity(),) + action.TWENTY[4:]
    monkeypatch.setattr(verify, "TWENTY", planted)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "g4 fixes the vertex e"


def test_criterion_13_catches_a_planted_action_law_failure(monkeypatch):
    # every element acts as itself after a fixed translation z: the
    # action stays free and isometric, but g(g'(h)) = g z g' z h while
    # (g g')(h) = g g' z h
    g2 = action.standard_generator("g2")
    z = g2.compose(g2)
    assert not z.is_identity and z not in action.TWENTY
    image_geodesic = action.image_geodesic

    def shifted(g, codes, start=0):
        gz = g.compose(z)
        return image_geodesic(gz, codes, start=len(gz.j4p_form))

    monkeypatch.setattr(verify, "image_geodesic", shifted)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "action law fails on a sampled pair"


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

    def conjugated(g, codes, start=0):
        return swap(image_geodesic(g, swap(codes), start))

    monkeypatch.setattr(verify, "image_geodesic", conjugated)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "action does not preserve the graph metric"
